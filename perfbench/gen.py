"""Seeded, scaled event-dump generator for the benchmark workloads.

Unlike ``polarnet.synthetic.make_event_stream`` (fixed 160 users, padded
with likes), every size here is a parameter: users, topics, participants
per topic, per-topic camp preference, the reposted apolitical corpus, the
filler mix and the share of malformed lines. The generator returns the
dump's lines together with the ground truth the benchmark checks against.

Post text carries the cue tokens of ``polarnet.providers`` so that the
mock provider (or the loopback stub that applies the same rules) labels
themes, topics and stances from text alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

from polarnet.providers import STANCE_CUES, TOPIC_CUES

KINDS = ("post", "repost", "like", "block", "follow", "profile")
FILLER_KINDS = ("like", "follow", "block", "delete", "update", "signup", "other")

WIRE = {
    "post": "app.bsky.feed.post",
    "repost": "app.bsky.feed.repost",
    "like": "app.bsky.feed.like",
    "block": "app.bsky.graph.block",
    "follow": "app.bsky.graph.follow",
    "profile": "app.bsky.actor.profile",
    "other": "app.bsky.feed.threadgate",
}

# Phrases free of every theme, topic and stance cue.
APOLITICAL_PHRASES = (
    "sourdough starter update day",
    "sketching birds by the lake",
    "weekend hiking photos incoming",
    "my cat discovered the keyboard",
    "vinyl crate digging finds",
    "tomato seedlings finally sprouted",
    "rainy afternoon with a long novel",
)

T0 = int(datetime(2025, 1, 1, tzinfo=timezone.utc).timestamp())
SPAN_S = 80 * 24 * 3600
POSTS_PER_PARTICIPANT = 2
NON_ENGLISH_SHARE = 0.1  # of apolitical posts; the corpus filter drops them


@dataclass(frozen=True)
class TopicPlan:
    """One topic network to plant.

    ``camp_pref`` is the probability that a repost is drawn from the
    reposter's own camp; otherwise it is drawn uniformly from the topic's
    posts, so 0.0 plants no structure at all.
    """

    id: str
    participants: int
    camp_pref: float
    reposts_per_participant: float


@dataclass(frozen=True)
class DumpSpec:
    users: int
    topics: tuple[TopicPlan, ...]
    apolitical_posts: int  # each reposted 1 or 2 times, so they survive the corpus filter
    lines: int  # target dump size; filler fills the gap
    filler_mix: dict  # FILLER_KINDS -> weight
    malformed_share: float = 0.005


@dataclass
class Truth:
    creates: dict  # KINDS -> create events written
    non_create: int = 0
    other_collection: int = 0
    malformed: int = 0
    lines: int = 0
    camps: dict = field(default_factory=dict)  # topic -> {user: 0 | 1}
    stances: dict = field(default_factory=dict)  # topic -> {user: for | against}
    polarized: tuple = ()  # topics with planted camp structure


def _first_cue(topic: str) -> str:
    for cue, t in TOPIC_CUES.items():
        if t == topic:
            return cue
    raise ValueError(f"no topic cue for {topic!r}")


_DAYS = [
    datetime.fromtimestamp(T0 + d * 86400, tz=timezone.utc).strftime("%Y-%m-%d")
    for d in range(SPAN_S // 86400 + 1)
]
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _stamp(ts: int) -> str:
    day, sec = divmod(ts - T0, 86400)
    hour, sec = divmod(sec, 3600)
    minute, sec = divmod(sec, 60)
    return f"{_DAYS[day]}T{hour:02d}:{minute:02d}:{sec:02d}Z"


def _malformed(rng: random.Random, good: str, n: int) -> str:
    """Four kinds of broken line, each rejected by ``parse_event``."""
    kind = n % 4
    if kind == 0:
        return good[: max(1, len(good) // 2)]  # truncated JSON
    obj = json.loads(good)
    if kind == 1:
        obj["action"] = "upsert"
    elif kind == 2:
        del obj["did"]
    else:
        obj["time"] = f"2025-13-{rng.randrange(32, 99)}T99:00:00Z"
    return _encode(obj)


def generate(spec: DumpSpec, seed: int) -> tuple[list[str], Truth]:
    """Return (lines, truth); the same (spec, seed) gives the same lines."""
    rng = random.Random(seed)
    users = [f"did:plc:u{i:06d}" for i in range(spec.users)]
    truth = Truth(creates={k: 0 for k in KINDS})
    events: list[tuple[int, dict]] = []

    def emit(kind: str, author: str, action: str = "create", **payload) -> None:
        ts = T0 + rng.randrange(SPAN_S)
        obj = {"action": action, "collection": WIRE[kind], "did": author, "time": ts}
        obj.update(payload)
        events.append((ts, obj))
        if action != "create":
            truth.non_create += 1
        elif kind == "other":
            truth.other_collection += 1
        else:
            truth.creates[kind] += 1

    uri_no = 0

    def new_uri() -> str:
        nonlocal uri_no
        uri_no += 1
        return f"at://bench/post/{uri_no}"

    topic_posts: list[str] = []
    for plan in spec.topics:
        members = rng.sample(users, plan.participants)
        camps = {u: rng.randrange(2) for u in members}
        truth.camps[plan.id] = camps
        truth.stances[plan.id] = {u: ("for", "against")[c] for u, c in camps.items()}
        cue = _first_cue(plan.id)
        stance_cues = STANCE_CUES[plan.id]
        by_camp: tuple[list, list] = ([], [])
        posts: list[tuple[str, str]] = []
        for _ in range(plan.participants * POSTS_PER_PARTICIPANT):
            author = rng.choice(members)
            uri = new_uri()
            text = f"{cue} {stance_cues[camps[author]]} take number {uri_no}"
            emit("post", author, uri=uri, text=text, langs=["en"])
            posts.append((uri, author))
            by_camp[camps[author]].append((uri, author))
            topic_posts.append(uri)
        for _ in range(round(plan.participants * plan.reposts_per_participant)):
            reposter = rng.choice(members)
            pool = by_camp[camps[reposter]] if rng.random() < plan.camp_pref else posts
            for _attempt in range(10):
                uri, author = rng.choice(pool)
                if author != reposter:
                    break
            emit("repost", reposter, subject=uri)
    truth.polarized = tuple(p.id for p in spec.topics if p.camp_pref > 0)

    apolitical: list[str] = []
    for _ in range(spec.apolitical_posts):
        uri = new_uri()
        langs = ["pt"] if rng.random() < NON_ENGLISH_SHARE else ["en"]
        text = f"{rng.choice(APOLITICAL_PHRASES)} {uri_no}"
        emit("post", rng.choice(users), uri=uri, text=text, langs=langs)
        apolitical.append(uri)
    for uri in apolitical:
        for _ in range(1 + rng.randrange(2)):
            emit("repost", rng.choice(users), subject=uri)

    all_posts = topic_posts + apolitical
    filler = [k for k in FILLER_KINDS if spec.filler_mix.get(k)]
    weights = [spec.filler_mix[k] for k in filler]
    n_malformed = round(spec.lines * spec.malformed_share)
    n_filler = max(0, spec.lines - n_malformed - len(events))
    signups = 0
    for kind in rng.choices(filler, weights, k=n_filler):
        author = rng.choice(users)
        if kind == "like":
            emit("like", author, subject=rng.choice(all_posts))
        elif kind in ("follow", "block"):
            emit(kind, author, subject=rng.choice(users))
        elif kind == "delete":
            emit("post", author, action="delete", uri=rng.choice(all_posts))
        elif kind == "update":
            emit("profile", author, action="update")
        elif kind == "signup":
            signups += 1
            emit("profile", f"did:plc:new{signups:06d}")
        else:
            emit("other", author, uri=f"at://bench/gate/{rng.randrange(1 << 30)}")

    events.sort(key=lambda pair: pair[0])
    good = []
    for ts, obj in events:
        obj["time"] = _stamp(ts)
        good.append(_encode(obj))
    broken = sorted(
        (rng.randrange(len(good) + 1), _malformed(rng, rng.choice(good), n))
        for n in range(n_malformed)
    )
    lines = []
    start = 0
    for at, line in broken:
        lines.extend(good[start:at])
        lines.append(line)
        start = at
    lines.extend(good[start:])
    truth.malformed = n_malformed
    truth.lines = len(lines)
    return lines, truth
