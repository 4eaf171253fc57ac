"""Classification labels and the aggregation rules built on them.

Holds the closed label vocabularies (themes, parent topics, stances), the
operations that call an annotation provider, and the persisted label
stores. All enums are closed: stores and the batch annotators reject
anything outside them.
"""

from __future__ import annotations

import json
import random
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import tee
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Union

from .errors import AnnotationError
from .files import open_new
from .ingest import PostRecord
from .providers import AnnotationProvider, AnnotationRequest, annotate_in_order
from .templates import template_hash

NON_POLITICAL = "Non-Political"

THEMES = (
    "Civil Rights",
    "Defense & International Affairs",
    "Economy, Trade & Labor",
    "Government Operations & Administration",
    "Infrastructure & Environment",
    "Law, Crime & Justice",
    "Science, Technology & Energy",
    "Social Policy",
    NON_POLITICAL,
)

POLITICAL_THEMES = tuple(t for t in THEMES if t != NON_POLITICAL)

OTHER_TOPIC = "other"

STANCES = ("for", "neutral", "against")


@dataclass(frozen=True)
class TopicSpec:
    """One parent topic plus its stance display names.

    The canonical stance values are always for/neutral/against; the
    display names are what providers see and what reports print.
    """

    id: str
    name: str
    for_name: str
    against_name: str

    def stance_display(self, stance: str) -> str:
        if stance == "for":
            return self.for_name
        if stance == "against":
            return self.against_name
        return "Neutral"

    def label_set(self) -> tuple[str, str, str]:
        return (self.for_name, "neutral", self.against_name)

    def stance_from_label(self, label: str) -> str:
        if label == self.for_name:
            return "for"
        if label == self.against_name:
            return "against"
        if label == "neutral":
            return "neutral"
        raise ValueError(f"label {label!r} is not in {self.id}'s stance set")


DEFAULT_TOPICS = (
    TopicSpec("trump_administration", "Trump administration", "supports_trump", "opposes_trump"),
    TopicSpec("elon_musk", "Elon Musk", "supports_musk", "opposes_musk"),
    TopicSpec("us_canada_relations", "US-Canada relations", "supports_canada", "supports_us"),
    TopicSpec("la_wildfires", "LA wildfires", "supports_response", "opposes_response"),
    TopicSpec("dei_programs", "DEI programs", "supports_dei", "opposes_dei"),
    TopicSpec("tiktok_ban", "TikTok ban", "supports_ban", "opposes_ban"),
    TopicSpec("israel_palestine", "Israel-Palestine", "supports_palestine", "supports_israel"),
    TopicSpec("russia_ukraine", "Russia-Ukraine", "supports_ukraine", "supports_russia"),
    TopicSpec("lgbtq_rights", "LGBTQ+ rights", "supports_lgbtq", "opposes_lgbtq"),
    TopicSpec("ai", "AI", "supports_ai", "opposes_ai"),
)


def theme_request(post: PostRecord) -> AnnotationRequest:
    """The provider request for a post's theme; ValueError for an empty post."""
    if not post.text:
        raise ValueError(f"post {post.uri} has empty text")
    return AnnotationRequest(
        template_id="theme_v1",
        context={"text": post.text, "label_lines": "\n".join(THEMES)},
        label_set=THEMES,
    )


def topic_request(
    post: PostRecord, topics: tuple[TopicSpec, ...] = DEFAULT_TOPICS
) -> AnnotationRequest:
    """The provider request for a political post's parent topic."""
    label_set = tuple(t.id for t in topics) + (OTHER_TOPIC,)
    return AnnotationRequest(
        template_id="topic_v1",
        context={"text": post.text, "label_lines": "\n".join(label_set)},
        label_set=label_set,
    )


def sample_user_posts(
    user: str, topic_corpus: list[PostRecord], k: int = 10, seed: int = 0
) -> list[PostRecord]:
    """Sample up to k of the user's topic posts, uniformly, seed-reproducible.

    The corpus is the user's authored-or-reposted posts inside one topic.
    Sorting by uri first makes the draw independent of input order.
    """
    if not topic_corpus:
        raise ValueError(f"user {user} has no posts in the topic corpus")
    ordered = sorted(topic_corpus, key=lambda p: p.uri)
    if len(ordered) <= k:
        return ordered
    rng = random.Random(f"{seed}:{user}")
    return rng.sample(ordered, k)


def stance_request(user: str, sample: list[PostRecord], topic: TopicSpec) -> AnnotationRequest:
    """The provider request for a user's stance on a topic from sampled posts."""
    if not sample:
        raise ValueError(f"empty post sample for user {user}")
    for_label, neutral_label, against_label = topic.label_set()
    return AnnotationRequest(
        template_id="stance_v1",
        context={
            "texts": [p.text for p in sample],
            "topic": topic.id,
            "for_label": for_label,
            "neutral_label": neutral_label,
            "against_label": against_label,
        },
        label_set=topic.label_set(),
    )


@dataclass
class ThemeDistribution:
    counts: dict[str, int]
    total: int
    political_total: int
    share_of_all: dict[str, float]
    share_of_political: dict[str, float]


def theme_distribution(counts: Mapping[str, int]) -> ThemeDistribution:
    """Per-theme counts and shares, overall and among political posts only.

    ``counts`` maps each theme to its number of posts. When no post is
    political, the political-conditional shares are reported as an empty
    section.
    """
    counts = Counter(counts)
    unknown = set(counts) - set(THEMES)
    if unknown:
        raise ValueError(f"labels outside the theme vocabulary: {sorted(unknown)}")
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no labels given")
    political_total = sum(counts[t] for t in POLITICAL_THEMES)
    share_all = {t: counts.get(t, 0) / total for t in THEMES}
    share_political = (
        {t: counts.get(t, 0) / political_total for t in POLITICAL_THEMES}
        if political_total
        else {}
    )
    return ThemeDistribution(
        counts=dict(counts),
        total=total,
        political_total=political_total,
        share_of_all=share_all,
        share_of_political=share_political,
    )


class LabelStore:
    """Line-delimited JSON label store with a closed vocabulary.

    Each ``writing()`` starts a fresh store. Writes are serialized by a
    lock; readers just scan the file. Each record carries the template hash
    of the prompt that produced it.
    """

    def __init__(self, path: Union[str, Path], vocab: Iterable[str], key_field: str):
        self.path = Path(path)
        self.vocab = frozenset(vocab)
        self.key_field = key_field
        self._lock = threading.Lock()
        self._fh = None  # the shared handle inside ``writing()``

    @contextmanager
    def writing(self):
        """Start a fresh store and hold it open for ``append`` until exit.

        The handle is flushed and closed on exit, also when the block raises.
        """
        with open_new(self.path, encoding="utf-8") as fh:
            self._fh = fh
            try:
                yield self
            finally:
                with self._lock:
                    self._fh = None

    def append(
        self,
        key: str,
        label: str,
        template_hash_value: str,
        timestamp: str,
        topic: Optional[str] = None,
    ) -> None:
        """Write one record; call it inside ``writing()``."""
        if label not in self.vocab:
            raise ValueError(f"label {label!r} not in store vocabulary")
        record = {self.key_field: key}
        if topic is not None:
            record["topic"] = topic
        record.update(
            {"label": label, "template_hash": template_hash_value, "timestamp": timestamp}
        )
        line = json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
        with self._lock:
            self._fh.write(line)

    def load(self) -> list[dict]:
        if not self.path.exists():
            return []
        records = []
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    records.append(json.loads(line))
        return records

    def mapping(self) -> dict:
        """Latest label per key (or per (key, topic) when topics present)."""
        out = {}
        for rec in self.load():
            key = rec[self.key_field]
            if "topic" in rec:
                out[(key, rec["topic"])] = rec["label"]
            else:
                out[key] = rec["label"]
        return out


def theme_store(path: Union[str, Path]) -> LabelStore:
    return LabelStore(path, THEMES, "post_uri")


def topic_store(path: Union[str, Path], topics: tuple[TopicSpec, ...] = DEFAULT_TOPICS) -> LabelStore:
    return LabelStore(path, tuple(t.id for t in topics) + (OTHER_TOPIC,), "post_uri")


def stance_store(path: Union[str, Path]) -> LabelStore:
    return LabelStore(path, STANCES, "user")


@dataclass
class AnnotationOutcome:
    """Batch result: labels plus the items skipped and why."""

    labeled: int = 0
    skipped: list[tuple[str, str]] = field(default_factory=list)


def _label_in_order(
    items: Iterable[tuple[str, str, AnnotationRequest]],
    template_id: str,
    provider: AnnotationProvider,
    store: LabelStore,
    outcome: AnnotationOutcome,
    append: Callable[[str, str, str, str], None],
) -> AnnotationOutcome:
    """Label ``(key, timestamp, request)`` items into ``store`` in input order.

    Each label is stored by ``append(key, label, template_hash, timestamp)``.
    Items are drawn as requests are sent, so only those in flight are held.
    The store is started afresh and kept open for the whole batch. An
    item whose labels stayed outside the closed set is recorded as
    skipped; a TransportError propagates after the labels before the
    failing item were stored.
    """
    h = template_hash(template_id)
    to_send, to_store = tee(items)
    labels = annotate_in_order(provider, (request for _, _, request in to_send))
    with store.writing():
        # labels first, so the generator runs to its end and frees its threads
        for label, (key, stamp, _) in zip(labels, to_store):
            if isinstance(label, AnnotationError):
                outcome.skipped.append((key, str(label)))
                continue
            append(key, label, h, stamp)
            outcome.labeled += 1
    return outcome


def annotate_themes(
    posts: Iterable[PostRecord],
    provider: AnnotationProvider,
    store: LabelStore,
) -> AnnotationOutcome:
    outcome = AnnotationOutcome()

    def items():
        for post in posts:
            try:
                request = theme_request(post)
            except ValueError as exc:
                outcome.skipped.append((post.uri, str(exc)))
                continue
            yield post.uri, post.created_at.isoformat(), request

    return _label_in_order(items(), "theme_v1", provider, store, outcome, store.append)


def annotate_topics(
    posts: Iterable[PostRecord],
    themes: Mapping[str, str],
    provider: AnnotationProvider,
    store: LabelStore,
    topics: tuple[TopicSpec, ...] = DEFAULT_TOPICS,
) -> AnnotationOutcome:
    def items():
        for post in posts:
            theme = themes.get(post.uri)
            if theme is None or theme == NON_POLITICAL:
                continue
            request = topic_request(post, topics)
            yield post.uri, post.created_at.isoformat(), request

    return _label_in_order(
        items(), "topic_v1", provider, store, AnnotationOutcome(), store.append
    )


def annotate_stances(
    corpora: Mapping[str, list[PostRecord]],
    topic: TopicSpec,
    provider: AnnotationProvider,
    store: LabelStore,
    k: int = 10,
    seed: int = 0,
) -> AnnotationOutcome:
    """Classify every user with a non-empty topic corpus.

    Users whose corpus is empty are skipped with a recorded reason. The
    stored timestamp is the latest sampled post's creation time, which
    keeps reruns byte-identical.
    """
    outcome = AnnotationOutcome()

    def items():
        for user in sorted(corpora):
            if not corpora[user]:
                outcome.skipped.append((user, "empty topic corpus"))
                continue
            sample = sample_user_posts(user, corpora[user], k=k, seed=seed)
            stamp = max(p.created_at for p in sample).isoformat()
            yield user, stamp, stance_request(user, sample, topic)

    def append(user, label, h, stamp):
        store.append(user, topic.stance_from_label(label), h, stamp, topic=topic.id)

    return _label_in_order(items(), "stance_v1", provider, store, outcome, append)
