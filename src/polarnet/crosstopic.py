"""Relationships across topic networks.

User-overlap matrices, threshold hypergraphs over topics, issue alignment
via normalized mutual information, and joint stance probability tables.
All pairwise operations run over the user intersection of the two inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .graphs import TopicNetwork

STANCE_ORDER = ("for", "neutral", "against")

# each NMI normalization's denominator, from the two groupings' entropies
NMI_NORMALIZATIONS = {
    "mean": lambda h_x, h_y: (h_x + h_y) / 2.0,
    "min": min,
    "max": max,
}


@dataclass
class TopicMatrix:
    """Symmetric score matrix (user overlap or alignment) over an ordered
    topic list."""

    topics: list[str]
    values: list[list[Optional[float]]]

    def get(self, x: str, y: str) -> Optional[float]:
        return self.values[self.topics.index(x)][self.topics.index(y)]


@dataclass
class TopicHypergraph:
    hyperedges: list[tuple[str, ...]]
    threshold: float
    inclusive: bool


@dataclass
class JointStanceTable:
    """Empirical joint stance distribution for one topic pair."""

    values: list[list[float]]  # rows follow STANCE_ORDER for x, columns for y
    order: tuple[str, str, str] = STANCE_ORDER


def _symmetric(topics: list[str], items: Sequence, score: Callable) -> TopicMatrix:
    """``score`` of every pair of ``items`` (diagonal included), computed
    once per unordered pair."""
    n = len(topics)
    values: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            values[i][j] = values[j][i] = score(items[i], items[j])
    return TopicMatrix(topics=topics, values=values)


def _joint_counts(gx: Mapping, gy: Mapping) -> Counter:
    """(label in x, label in y) -> number of users labeled in both,
    counted in sorted user order so every later sum is hash-independent."""
    return Counter((gx[u], gy[u]) for u in sorted(gx.keys() & gy.keys()))


def jaccard(v_x: set, v_y: set) -> Optional[float]:
    union = len(v_x | v_y)
    if union == 0:
        return None
    return len(v_x & v_y) / union


def jaccard_matrix(networks: Sequence[TopicNetwork]) -> TopicMatrix:
    """Pairwise user overlap between topic networks."""
    if len(networks) < 2:
        raise ValueError("need at least two networks")
    return _symmetric([g.topic for g in networks], [set(g.nodes) for g in networks], jaccard)


def _maximal_cliques(nodes: list, neighbors: Mapping) -> list[frozenset]:
    """Bron-Kerbosch with pivoting."""
    cliques: list[frozenset] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(neighbors[u] & p))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(nodes), set())
    return cliques


def topic_hypergraph(
    m: TopicMatrix, threshold: float = 0.2, inclusive: bool = False
) -> TopicHypergraph:
    """Bundle topics into maximal cliques of the thresholded overlap graph.

    An edge requires J > threshold (or >= with ``inclusive``); hyperedges
    are the maximal such cliques with at least two members, so a topic
    with no qualifying overlap contributes no hyperedge.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    topics = m.topics
    neighbors: dict = {t: set() for t in topics}
    for i, x in enumerate(topics):
        for j in range(i + 1, len(topics)):
            value = m.values[i][j]
            if value is None:
                continue
            hit = value >= threshold if inclusive else value > threshold
            if hit:
                neighbors[x].add(topics[j])
                neighbors[topics[j]].add(x)
    cliques = _maximal_cliques(topics, neighbors)
    hyperedges = sorted(
        tuple(sorted(c)) for c in cliques if len(c) >= 2
    )
    return TopicHypergraph(hyperedges=hyperedges, threshold=threshold, inclusive=inclusive)


def nmi_alignment(
    gx: Mapping, gy: Mapping, normalization: str = "mean"
) -> Optional[float]:
    """Normalized mutual information between two groupings.

    Computed over users present in both groupings with natural-log
    entropies. Returns 0 when either grouping is constant on the shared
    users, None when fewer than two users are shared. ``normalization``
    picks the denominator: mean (default), min, or max of the entropies.
    """
    if normalization not in NMI_NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    joint = _joint_counts(gx, gy)
    n = sum(joint.values())
    if n < 2:
        return None
    mx: Counter = Counter()
    my: Counter = Counter()
    for (a, b), c in joint.items():
        mx[a] += c
        my[b] += c
    h_x = -sum((c / n) * math.log(c / n) for c in mx.values())
    h_y = -sum((c / n) * math.log(c / n) for c in my.values())
    if h_x == 0.0 or h_y == 0.0:
        return 0.0
    info = 0.0
    for (a, b), c in joint.items():
        p_xy = c / n
        info += p_xy * math.log(p_xy * n * n / (mx[a] * my[b]))
    info = max(info, 0.0)
    return min(info / NMI_NORMALIZATIONS[normalization](h_x, h_y), 1.0)


def alignment_matrix(
    groupings: Mapping[str, Mapping], normalization: str = "mean"
) -> TopicMatrix:
    """Pairwise NMI across topics, in sorted topic order."""
    topics = sorted(groupings)
    return _symmetric(topics, [groupings[t] for t in topics],
                      lambda gx, gy: nmi_alignment(gx, gy, normalization))


def joint_stance_table(
    sx: Mapping[str, str], sy: Mapping[str, str]
) -> Optional[JointStanceTable]:
    """3x3 joint distribution of stances over the shared users.

    None when the topics share no classified users. Cells follow the
    for/neutral/against order on both axes and sum to 1.
    """
    counts = _joint_counts(sx, sy)
    n = sum(counts.values())
    if n == 0:
        return None
    return JointStanceTable(
        values=[[counts[a, b] / n for b in STANCE_ORDER] for a in STANCE_ORDER]
    )
