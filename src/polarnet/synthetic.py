"""Synthetic data: planted-partition and structureless benchmark graphs, and
a bundled event-stream fixture with ground-truth labels.

Everything here is a pure function of its seed, which is what makes the
end-to-end pipeline reproducible in tests and demos.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from .graphs import TopicNetwork
from .ingest import serialize_event, RawEvent
from .providers import STANCE_CUES, TOPIC_CUES

UTC = timezone.utc


def planted_partition_graph(
    n: int = 200,
    blocks: int = 2,
    p_in: float = 0.1,
    p_out: float = 0.01,
    seed: int = 0,
) -> tuple[TopicNetwork, dict]:
    """Undirected planted-partition graph with equal-size blocks.

    Each unordered pair gets at most one edge (emitted as a single
    directed edge; group detection folds directions anyway). Returns the
    network and the planted node -> block labels.
    """
    rng = random.Random(seed)
    nodes = [f"n{i:04d}" for i in range(n)]
    labels = {nodes[i]: i * blocks // n for i in range(n)}
    mult: Counter = Counter()
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[nodes[i]] == labels[nodes[j]] else p_out
            if rng.random() < p:
                mult[(nodes[i], nodes[j])] += 1
    return (
        TopicNetwork("planted", "reposts", None, set(nodes), mult),
        labels,
    )


def erdos_renyi_graph(n: int = 200, p: float = 0.055, seed: int = 0) -> TopicNetwork:
    rng = random.Random(seed)
    nodes = [f"n{i:04d}" for i in range(n)]
    mult: Counter = Counter()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                mult[(nodes[i], nodes[j])] += 1
    return TopicNetwork("er", "reposts", None, set(nodes), mult)


# ---------------------------------------------------------------------------
# Event-stream fixture


@dataclass
class FixtureTruth:
    """Ground truth behind the generated stream."""

    users: list[str]
    participants: dict[str, list[str]]  # topic -> users
    stances: dict[tuple[str, str], str]  # (topic, user) -> stance
    post_topics: dict[str, str]  # uri -> topic id
    n_events: int = 0


# topic id -> (participant count, (for, neutral, against) weights,
#              same-camp repost preference, reposts per participant)
_FIXTURE_TOPICS = {
    "russia_ukraine": (70, (0.65, 0.25, 0.10), 0.95, 16),
    "trump_administration": (80, (0.70, 0.20, 0.10), 0.93, 13),
    "tiktok_ban": (50, (0.20, 0.65, 0.15), 0.0, 7),
    "ai": (45, (0.25, 0.60, 0.15), 0.0, 6),
}

_FILLER = (
    "sourdough starter update day",
    "sketching birds by the lake",
    "weekend hiking photos incoming",
    "my cat discovered the keyboard",
    "vinyl crate digging finds",
)


def _stance_token(topic: str, stance: str) -> str:
    pro, anti = STANCE_CUES[topic]
    if stance == "for":
        return pro
    if stance == "against":
        return anti
    return ""


def make_event_stream(seed: int = 0, n_events: int = 10_000) -> tuple[list[str], FixtureTruth]:
    """Generate a line-delimited event dump with known structure.

    Polarized topics get camp-concentrated reposting so structural
    detection has real groups to find; cue tokens in post text let the
    mock provider recover every planted label. The stream includes
    non-create actions, likes, follows, blocks, and profile sign-ups so
    activity accounting has every action type to chew on.
    """
    rng = random.Random(seed)
    n_users = 160
    users = [f"did:plc:u{i:04d}" for i in range(n_users)]
    truth = FixtureTruth(users=users, participants={}, stances={}, post_topics={})

    topic_cue = {}
    for cue, topic in TOPIC_CUES.items():
        topic_cue.setdefault(topic, cue)

    # overlapping participant pools drive the cross-topic numbers
    pool = list(users)
    rng.shuffle(pool)
    offsets = {"russia_ukraine": 0, "trump_administration": 20,
               "tiktok_ban": 90, "ai": 110}
    for topic, (count, weights, _, _) in _FIXTURE_TOPICS.items():
        members = pool[offsets[topic] : offsets[topic] + count]
        truth.participants[topic] = members
        for user in members:
            roll = rng.random()
            if roll < weights[0]:
                stance = "for"
            elif roll < weights[0] + weights[1]:
                stance = "neutral"
            else:
                stance = "against"
            truth.stances[(topic, user)] = stance

    t0 = datetime(2025, 1, 1, tzinfo=UTC)
    span_s = 80 * 24 * 3600

    def stamp() -> datetime:
        return t0 + timedelta(seconds=rng.randrange(span_s))

    events: list[tuple[datetime, RawEvent]] = []

    def emit(action, collection, author, ts, **payload):
        events.append((ts, RawEvent(action, collection, author, ts, **payload)))

    # posts: political with cue tokens, apolitical filler
    posts_by_topic: dict[str, list[tuple[str, str]]] = {t: [] for t in _FIXTURE_TOPICS}
    uri_no = 0
    for topic, (count, _, _, _) in _FIXTURE_TOPICS.items():
        members = truth.participants[topic]
        for _ in range(count * 3):
            author = rng.choice(members)
            stance = truth.stances[(topic, author)]
            token = _stance_token(topic, stance)
            text = f"{topic_cue[topic]} {token} take number {uri_no}".strip()
            uri = f"at://fixture/post/{uri_no}"
            uri_no += 1
            emit("create", "post", author, stamp(), uri=uri, text=text, langs=("en",))
            truth.post_topics[uri] = topic
            posts_by_topic[topic].append((uri, author))
    n_apolitical = 420
    apolitical_posts = []
    for _ in range(n_apolitical):
        author = rng.choice(users)
        text = f"{rng.choice(_FILLER)} {uri_no}"
        uri = f"at://fixture/post/{uri_no}"
        uri_no += 1
        langs = ("en",) if rng.random() < 0.9 else ("pt",)
        emit("create", "post", author, stamp(), uri=uri, text=text, langs=langs)
        apolitical_posts.append((uri, author))

    # filler reposts keep apolitical posts in the filtered corpus
    for _ in range(600):
        reposter = rng.choice(users)
        uri, _author = rng.choice(apolitical_posts)
        emit("create", "repost", reposter, stamp(), subject=uri)

    # reposts: camp-concentrated for polarized topics, uniform otherwise;
    # neutral users on polarized topics stick to neutral-authored posts so
    # their sampled content stays cue-free
    for topic, (count, _, same_pref, repost_rate) in _FIXTURE_TOPICS.items():
        members = truth.participants[topic]
        topic_posts = posts_by_topic[topic]
        for _ in range(count * repost_rate):
            reposter = rng.choice(members)
            stance = truth.stances[(topic, reposter)]
            for _attempt in range(40):
                uri, author = rng.choice(topic_posts)
                if author == reposter:
                    if rng.random() < 0.02:
                        break  # the occasional self-repost, suppressed downstream
                    continue
                author_stance = truth.stances[(topic, author)]
                if same_pref and stance != "neutral" and author_stance != stance:
                    if rng.random() < same_pref:
                        continue
                if same_pref and stance == "neutral" and author_stance != "neutral":
                    continue
                break
            emit("create", "repost", reposter, stamp(), subject=uri)

    # likes: light, uniform
    all_posts = [(uri, author) for posts in posts_by_topic.values() for uri, author in posts]
    for _ in range(2400):
        liker = rng.choice(users)
        uri, _author = rng.choice(all_posts)
        emit("create", "like", liker, stamp(), subject=uri)

    # follows mostly within topic pools, blocks mostly across camps
    for _ in range(900):
        topic = rng.choice(list(_FIXTURE_TOPICS))
        members = truth.participants[topic]
        src, dst = rng.sample(members, 2)
        emit("create", "follow", src, stamp(), subject=dst)
    for _ in range(180):
        topic = rng.choice(["russia_ukraine", "trump_administration"])
        members = truth.participants[topic]
        src, dst = rng.sample(members, 2)
        emit("create", "block", src, stamp(), subject=dst)

    # sign-ups and non-create noise
    for i in range(120):
        emit("create", "profile", f"did:plc:new{i:03d}", stamp())
    for _ in range(150):
        author = rng.choice(users)
        emit("delete", "post", author, stamp(), uri=f"at://fixture/post/{rng.randrange(uri_no)}")
    for _ in range(130):
        author = rng.choice(users)
        emit("update", "profile", author, stamp())

    # pad with filler likes up to the requested stream size
    while len(events) < n_events:
        liker = rng.choice(users)
        uri, _author = rng.choice(all_posts)
        emit("create", "like", liker, stamp(), subject=uri)
    events = events[:n_events]

    events.sort(key=lambda pair: (pair[0], pair[1].author, pair[1].collection))
    lines = [serialize_event(e) for _, e in events]
    truth.n_events = len(lines)
    return lines, truth
