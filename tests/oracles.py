"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (exhaustive
enumeration, direct summation over raw edge lists) and shares no code with
the package under test; the test-graph generators only build its
TopicNetwork record, and the record helpers only feed or read its records.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import combinations
from typing import Optional

from polarnet.graphs import TopicNetwork


def set_partitions(items, max_blocks):
    """Yield every partition of ``items`` into at most ``max_blocks`` blocks.

    Enumerates restricted growth strings, so each distinct set partition
    appears exactly once. Returns partitions as dicts item -> block index.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        yield {}
        return

    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield {items[j]: labels[j] for j in range(n)}
            return
        cap = min(used + 1, max_blocks)
        for b in range(cap):
            labels[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(1, 1)


def pair_multiplicity(edges):
    """Collapse an iterable of (src, dst[, count]) into ordered-pair counts."""
    m = Counter()
    for e in edges:
        if len(e) == 3:
            u, v, c = e
        else:
            u, v = e
            c = 1
        m[(u, v)] += c
    return m


def aei_direct(edges, groups, x, y):
    """Adaptive EI between groups x and y by scanning every ordered pair."""
    nodes_x = [n for n, g in groups.items() if g == x]
    nodes_y = [n for n, g in groups.items() if g == y]
    mult = pair_multiplicity(edges)
    m_in = 0
    for side in (nodes_x, nodes_y):
        for u in side:
            for v in side:
                if u != v:
                    m_in += mult.get((u, v), 0)
    m_ext = 0
    for u in nodes_x:
        for v in nodes_y:
            m_ext += mult.get((u, v), 0) + mult.get((v, u), 0)
    nx, ny = len(nodes_x), len(nodes_y)
    pairs_in = nx * (nx - 1) + ny * (ny - 1)
    pairs_ext = 2 * nx * ny
    d_in = m_in / pairs_in if pairs_in else 0.0
    d_ext = m_ext / pairs_ext if pairs_ext else 0.0
    if d_in + d_ext == 0:
        return None
    return (d_in - d_ext) / (d_in + d_ext)


def assortativity_direct(edges, groups):
    """Categorical assortativity from an explicit mixing matrix."""
    mult = pair_multiplicity(edges)
    labels = sorted(set(groups.values()))
    index = {g: i for i, g in enumerate(labels)}
    k = len(labels)
    e = [[0.0] * k for _ in range(k)]
    total = 0
    for (u, v), c in mult.items():
        if u in groups and v in groups:
            e[index[groups[u]]][index[groups[v]]] += c
            total += c
    if total == 0:
        return None
    for r in range(k):
        for s in range(k):
            e[r][s] /= total
    a = [sum(e[r][s] for s in range(k)) for r in range(k)]
    b = [sum(e[r][s] for r in range(k)) for s in range(k)]
    trace = sum(e[g][g] for g in range(k))
    ab = sum(a[g] * b[g] for g in range(k))
    if 1.0 - ab == 0.0:
        return None
    return (trace - ab) / (1.0 - ab)


def coleman_direct(edges, groups, g):
    """Coleman homophily index for group g, straight from its definition."""
    mult = pair_multiplicity(edges)
    members = {n for n, lab in groups.items() if lab == g}
    n_total = len(groups)
    out_total = 0
    out_internal = 0
    for (u, v), c in mult.items():
        if u in members and v in groups:
            out_total += c
            if v in members:
                out_internal += c
    if out_total == 0 or n_total <= 1:
        return None
    w = out_internal / out_total
    p = (len(members) - 1) / (n_total - 1)
    if w >= p:
        return (w - p) / (1.0 - p) if p != 1.0 else None
    return (w - p) / p


def simpson_direct(frac_a, frac_b):
    """Simpson diversity over the two opposing camps, renormalized."""
    tot = frac_a + frac_b
    if tot == 0:
        return None
    p = frac_a / tot
    q = frac_b / tot
    return 1.0 - (p * p + q * q)


def nmi_direct(gx, gy):
    """Normalized mutual information via H(X) + H(Y) - H(X, Y)."""
    shared = sorted(set(gx) & set(gy))
    n = len(shared)
    if n < 2:
        return None
    joint = Counter((gx[u], gy[u]) for u in shared)
    mx = Counter(gx[u] for u in shared)
    my = Counter(gy[u] for u in shared)

    def entropy(counter):
        h = 0.0
        for c in counter.values():
            p = c / n
            h -= p * math.log(p)
        return h

    hx = entropy(mx)
    hy = entropy(my)
    hxy = entropy(joint)
    if hx == 0.0 or hy == 0.0:
        return 0.0
    return 2.0 * (hx + hy - hxy) / (hx + hy)


def maximal_cliques_direct(nodes, has_edge):
    """All maximal cliques of size >= 2 by brute subset enumeration."""
    nodes = list(nodes)
    cliques = []
    for size in range(2, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if all(has_edge(u, v) for u, v in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    maximal = [c for c in cliques if not any(c < other for other in cliques)]
    return sorted(tuple(sorted(c)) for c in set(maximal))


def joint_table_direct(sx, sy, order):
    """Empirical joint distribution over stance pairs for shared users."""
    shared = sorted(set(sx) & set(sy))
    if not shared:
        return None
    counts = defaultdict(int)
    for u in shared:
        counts[(sx[u], sy[u])] += 1
    n = len(shared)
    return [[counts[(a, b)] / n for b in order] for a in order]


# --- test graphs -----------------------------------------------------------
# Seeded graph generators for detector and metric checks. They build the
# package's TopicNetwork record, nothing more.


def two_clique_graph(clique_size: int = 4) -> tuple[TopicNetwork, dict]:
    """Two disconnected cliques; the obvious two-block ground truth."""
    nodes = [f"n{i:02d}" for i in range(2 * clique_size)]
    labels = {node: int(i >= clique_size) for i, node in enumerate(nodes)}
    mult: Counter = Counter()
    for side in (nodes[:clique_size], nodes[clique_size:]):
        for i in range(len(side)):
            for j in range(i + 1, len(side)):
                mult[(side[i], side[j])] += 1
    return TopicNetwork("cliques", "reposts", None, set(nodes), mult), labels


def random_multigraph(
    n_nodes: int, n_edges: int, n_groups: int, seed: int = 0
) -> tuple[TopicNetwork, dict]:
    """Directed multigraph with random group labels, for oracle checks."""
    rng = random.Random(seed)
    nodes = [f"n{i:04d}" for i in range(n_nodes)]
    mult: Counter = Counter()
    for _ in range(n_edges):
        u, v = rng.sample(nodes, 2)
        mult[(u, v)] += 1 + (rng.random() < 0.2)
    groups = {node: rng.randrange(n_groups) for node in nodes}
    return TopicNetwork("rand", "reposts", None, set(nodes), mult), groups


# --- record helpers --------------------------------------------------------
# Conveniences on package records that only tests call.


def add_all(acc, events):
    """Feed every event to a ``StatsAccumulator``; returns it, so that
    ``finalize`` can be chained."""
    for event in events:
        acc.add(event)
    return acc


def cell(table, stance_x: str, stance_y: str) -> float:
    """One cell of a ``JointStanceTable``, by the two stances."""
    return table.values[table.order.index(stance_x)][table.order.index(stance_y)]


def marginal_x(table) -> list[float]:
    return [sum(row) for row in table.values]


def marginal_y(table) -> list[float]:
    return [sum(row[j] for row in table.values) for j in range(len(table.order))]


# --- event parsing ---------------------------------------------------------
# The event decoder as it stood before RawEvent became a named tuple: a
# frozen dataclass built by keyword, every field fetched through obj.get.
# Only the record and error types are renamed, so the parser under test is
# compared with this copy line for line, errors included.

DIRECT_ACTIONS = frozenset({"create", "update", "delete"})

DIRECT_COLLECTION_KINDS = {
    "app.bsky.feed.post": "post",
    "app.bsky.feed.repost": "repost",
    "app.bsky.feed.like": "like",
    "app.bsky.graph.block": "block",
    "app.bsky.graph.follow": "follow",
    "app.bsky.actor.profile": "profile",
}


class DirectParseError(Exception):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"line {offset}: {reason}")
        self.offset = offset
        self.reason = reason


@dataclass(frozen=True)
class DirectEvent:
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


def _parse_timestamp_direct(raw: str) -> datetime:
    # RFC-3339; python 3.10 fromisoformat does not accept a trailing Z.
    if raw.endswith("Z") or raw.endswith("z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_event_direct(line: str, offset: int = 0) -> DirectEvent:
    """Decode one line of the event dump into a DirectEvent.

    Raises DirectParseError (with the line offset) on malformed records.
    Unknown collections are retained with collection="other" rather than
    rejected, so a stream with new event types still parses.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DirectParseError(offset, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise DirectParseError(offset, "event is not an object")

    action = obj.get("action")
    if action not in DIRECT_ACTIONS:
        raise DirectParseError(offset, f"unknown action {action!r}")
    wire = obj.get("collection")
    if not isinstance(wire, str) or not wire:
        raise DirectParseError(offset, "missing collection")
    author = obj.get("did")
    if not isinstance(author, str) or not author:
        raise DirectParseError(offset, "missing author did")
    raw_time = obj.get("time")
    if not isinstance(raw_time, str):
        raise DirectParseError(offset, "missing time")
    try:
        ts = _parse_timestamp_direct(raw_time)
    except ValueError as exc:
        raise DirectParseError(offset, f"bad timestamp {raw_time!r}") from exc

    kind = DIRECT_COLLECTION_KINDS.get(wire, "other")
    langs = obj.get("langs") or ()
    if not isinstance(langs, (list, tuple)):
        raise DirectParseError(offset, "langs must be a list")
    return DirectEvent(
        action=action,
        collection=kind,
        author=author,
        timestamp=ts,
        uri=obj.get("uri"),
        text=obj.get("text"),
        langs=tuple(str(t) for t in langs),
        subject=obj.get("subject"),
        wire_collection=wire,
    )
