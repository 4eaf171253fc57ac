"""Archived event-stream ingestion.

Parses line-delimited JSON event dumps, accumulates platform activity
statistics per action type, and applies the corpus filtering and sampling
rules used ahead of annotation.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import EventParseError

ACTIONS = frozenset({"create", "update", "delete"})

# Wire collection name -> short kind. Unknown collections map to "other" and
# are kept in the stream but skipped by downstream analytics.
COLLECTION_KINDS = {
    "app.bsky.feed.post": "post",
    "app.bsky.feed.repost": "repost",
    "app.bsky.feed.like": "like",
    "app.bsky.graph.block": "block",
    "app.bsky.graph.follow": "follow",
    "app.bsky.actor.profile": "profile",
}
KIND_COLLECTIONS = {v: k for k, v in COLLECTION_KINDS.items()}

KINDS = ("post", "repost", "like", "block", "follow", "profile")

# Collection downtime, as observed fraction of each affected UTC day.
# Two recorded outages cost 69 hours in total: 8h on 2025-01-16 (from 16 UTC),
# 13h on 2025-03-31 (from 11 UTC), and the two full days after the second one.
DEFAULT_DOWNTIME: dict[date, float] = {
    date(2025, 1, 16): 16.0 / 24.0,
    date(2025, 3, 31): 11.0 / 24.0,
    date(2025, 4, 1): 0.0,
    date(2025, 4, 2): 0.0,
}


class RawEvent(NamedTuple):
    """One decoded event from the stream.

    ``collection`` is the short kind; the original wire name is kept so that
    unknown collections round-trip unchanged. A named tuple, not a frozen
    dataclass: one is built per dump line, and a frozen dataclass sets each
    field through ``object.__setattr__`` where a tuple is built in one call.
    Both are immutable and hashable.
    """

    action: str
    collection: str
    author: str
    timestamp: datetime
    uri: Optional[str] = None
    text: Optional[str] = None
    langs: tuple[str, ...] = ()
    subject: Optional[str] = None
    wire_collection: str = ""

    @property
    def is_create(self) -> bool:
        return self.action == "create"


def _parse_timestamp(raw: str) -> datetime:
    # RFC-3339; python 3.10 fromisoformat does not accept a trailing Z.
    if raw.endswith("Z") or raw.endswith("z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_event(line: str, offset: int = 0) -> RawEvent:
    """Decode one line of the event dump into a RawEvent.

    Raises EventParseError (with the line offset) on malformed records.
    Unknown collections are retained with collection="other" rather than
    rejected, so a stream with new event types still parses.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventParseError(offset, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise EventParseError(offset, "event is not an object")

    get = obj.get
    action = get("action")
    # an unhashable action (a list or object) cannot be looked up in ACTIONS
    if not isinstance(action, str) or action not in ACTIONS:
        raise EventParseError(offset, f"unknown action {action!r}")
    wire = get("collection")
    if not isinstance(wire, str) or not wire:
        raise EventParseError(offset, "missing collection")
    author = get("did")
    if not isinstance(author, str) or not author:
        raise EventParseError(offset, "missing author did")
    raw_time = get("time")
    if not isinstance(raw_time, str):
        raise EventParseError(offset, "missing time")
    try:
        ts = _parse_timestamp(raw_time)
    except (ValueError, OverflowError) as exc:
        # OverflowError: an offset that moves year 1 or 9999 out of range
        raise EventParseError(offset, f"bad timestamp {raw_time!r}") from exc

    langs = get("langs")
    if langs:
        if not isinstance(langs, list):
            raise EventParseError(offset, "langs must be a list")
        langs = tuple(map(str, langs))
    else:
        langs = ()
    return RawEvent(action, COLLECTION_KINDS.get(wire, "other"), author, ts, get("uri"),
                    get("text"), langs, get("subject"), wire)


def serialize_event(event: RawEvent) -> str:
    """Inverse of parse_event for well-formed events."""
    wire = event.wire_collection or KIND_COLLECTIONS.get(event.collection, event.collection)
    obj: dict = {
        "action": event.action,
        "collection": wire,
        "did": event.author,
        "time": event.timestamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
    }
    if event.uri is not None:
        obj["uri"] = event.uri
    if event.text is not None:
        obj["text"] = event.text
    if event.langs:
        obj["langs"] = list(event.langs)
    if event.subject is not None:
        obj["subject"] = event.subject
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def parse_stream(
    lines: Iterable[str],
    errors: Optional[list[EventParseError]] = None,
) -> Iterator[RawEvent]:
    """Yield events from an iterable of lines, skipping malformed ones.

    Parse failures are recoverable: they are appended to ``errors`` (when
    given) and the stream continues at the next line.
    """
    for offset, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            yield parse_event(line, offset)
        except EventParseError as exc:
            if errors is not None:
                errors.append(exc)


@dataclass
class ActionTypeStats:
    total_actions: int = 0
    total_author_days: int = 0
    daily_average_actions: float = 0.0
    daily_average_authors: float = 0.0


@dataclass
class ActivityStats:
    """Totals and daily averages per action type for create actions."""

    per_type: dict[str, ActionTypeStats]
    observed_days: float
    window: Optional[tuple[date, date]]
    non_create_events: int = 0
    other_collection_events: int = 0


class StatsAccumulator:
    """Streaming accumulator for ActivityStats."""

    def __init__(
        self,
        downtime: Optional[Mapping[date, float]] = None,
        window: Optional[tuple[date, date]] = None,
    ):
        self.downtime = dict(DEFAULT_DOWNTIME if downtime is None else downtime)
        self.window = window
        self._counts: dict[str, dict[date, int]] = defaultdict(lambda: defaultdict(int))
        self._authors: dict[str, dict[date, set[str]]] = defaultdict(lambda: defaultdict(set))
        self.non_create_events = 0
        self.other_collection_events = 0

    def add(self, event: RawEvent) -> None:
        if not event.is_create:
            self.non_create_events += 1
            return
        if event.collection == "other":
            self.other_collection_events += 1
            return
        day = event.timestamp.date()
        self._counts[event.collection][day] += 1
        self._authors[event.collection][day].add(event.author)

    def _observed_days(self, window: Optional[tuple[date, date]]) -> float:
        if window is None:
            return 0.0
        start, end = window
        total = 0.0
        day = start
        while day <= end:
            total += self.downtime.get(day, 1.0)
            day += timedelta(days=1)
        return total

    def finalize(self) -> ActivityStats:
        window = self.window
        if window is None:
            all_days = [d for days in self._counts.values() for d in days]
            if all_days:
                window = (min(all_days), max(all_days))
        observed = self._observed_days(window)

        per_type: dict[str, ActionTypeStats] = {}
        for kind in KINDS:
            counts = self._counts.get(kind, {})
            authors = self._authors.get(kind, {})
            total = sum(counts.values())
            author_days = sum(len(s) for s in authors.values())
            per_type[kind] = ActionTypeStats(
                total_actions=total,
                total_author_days=author_days,
                daily_average_actions=total / observed if observed else 0.0,
                daily_average_authors=author_days / observed if observed else 0.0,
            )
        return ActivityStats(
            per_type=per_type,
            observed_days=observed,
            window=window,
            non_create_events=self.non_create_events,
            other_collection_events=self.other_collection_events,
        )


@dataclass(frozen=True)
class PostRecord:
    uri: str
    author: str
    text: str
    langs: tuple[str, ...]
    created_at: datetime
    repost_count: int = 0


@dataclass(frozen=True)
class RepostEvent:
    reposter: str
    subject_uri: str
    timestamp: datetime


def build_post_records(
    events: Iterable[RawEvent],
) -> tuple[dict[str, PostRecord], list[RepostEvent]]:
    """Collect create-post records and repost events from one stream.

    repost_count is derived from repost events inside the same collection
    window; external counters are not trusted. update/delete events are
    ignored here.
    """
    posts: dict[str, PostRecord] = {}
    reposts: list[RepostEvent] = []
    for event in events:
        if not event.is_create:
            continue
        if event.collection == "post" and event.uri:
            posts[event.uri] = PostRecord(
                uri=event.uri,
                author=event.author,
                text=event.text or "",
                langs=event.langs,
                created_at=event.timestamp,
                repost_count=0,
            )
        elif event.collection == "repost" and event.subject:
            reposts.append(RepostEvent(event.author, event.subject, event.timestamp))
    counts: dict[str, int] = defaultdict(int)
    for r in reposts:
        if r.subject_uri in posts:
            counts[r.subject_uri] += 1
    for uri, n in counts.items():
        p = posts[uri]
        posts[uri] = PostRecord(p.uri, p.author, p.text, p.langs, p.created_at, n)
    return posts, reposts


def post_to_json(post: PostRecord) -> str:
    return json.dumps(
        {
            "uri": post.uri,
            "author": post.author,
            "text": post.text,
            "langs": list(post.langs),
            "created_at": post.created_at.isoformat(),
            "repost_count": post.repost_count,
        },
        ensure_ascii=False,
        separators=(",", ":"),
    )


def post_from_json(line: str) -> PostRecord:
    obj = json.loads(line)
    return PostRecord(
        uri=obj["uri"],
        author=obj["author"],
        text=obj["text"],
        langs=tuple(obj["langs"]),
        created_at=datetime.fromisoformat(obj["created_at"]),
        repost_count=obj["repost_count"],
    )


def repost_to_json(r: RepostEvent) -> str:
    return json.dumps(
        {"reposter": r.reposter, "subject_uri": r.subject_uri,
         "timestamp": r.timestamp.isoformat()},
        ensure_ascii=False,
        separators=(",", ":"),
    )


def repost_from_json(line: str) -> RepostEvent:
    obj = json.loads(line)
    return RepostEvent(
        obj["reposter"], obj["subject_uri"], datetime.fromisoformat(obj["timestamp"])
    )


def filter_corpus(
    posts: Iterable[PostRecord],
    min_reposts: int = 1,
    min_chars: int = 5,
    lang: str = "en",
) -> list[PostRecord]:
    """Keep posts with enough reposts and characters in the requested language.

    Character length counts unicode scalar values. Language matches if the
    tag appears anywhere in the post's language tags.
    """
    return [
        p
        for p in posts
        if p.repost_count >= min_reposts and len(p.text) >= min_chars and lang in p.langs
    ]


def sample_corpus(
    posts: list[PostRecord],
    fraction: float = 0.03,
    seed: int = 0,
    stratify_by_day: bool = False,
) -> list[PostRecord]:
    """Uniform sample without replacement, reproducible under a fixed seed.

    The sample size is round(fraction * n) and input order is preserved in
    the output. With stratify_by_day the rounding is applied per UTC day,
    which keeps the sample's temporal profile at the cost of an exact
    global size.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(posts)
    if not stratify_by_day:
        k = round(fraction * n)
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(n), k))
        return [posts[i] for i in chosen]
    by_day: dict[date, list[int]] = defaultdict(list)
    for i, p in enumerate(posts):
        by_day[p.created_at.date()].append(i)
    picked: list[int] = []
    for day in sorted(by_day):
        idx = by_day[day]
        k = round(fraction * len(idx))
        rng = random.Random(f"{seed}:{day.isoformat()}")
        picked.extend(rng.sample(idx, k))
    return [posts[i] for i in sorted(picked)]
