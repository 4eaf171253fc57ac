"""Relationships across topic networks.

User-overlap matrices, threshold hypergraphs over topics, issue alignment
via normalized mutual information, and joint stance probability tables.
All pairwise operations run over the user intersection of the two inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .graphs import TopicNetwork

STANCE_ORDER = ("for", "neutral", "against")

# each NMI normalization's denominator, from the two groupings' entropies
NMI_NORMALIZATIONS = {
    "mean": lambda h_x, h_y: (h_x + h_y) / 2.0,
    "min": min,
    "max": max,
}


@dataclass
class OverlapMatrix:
    """Symmetric Jaccard matrix over an ordered topic list."""

    topics: list[str]
    values: list[list[Optional[float]]]

    def get(self, x: str, y: str) -> Optional[float]:
        return self.values[self.topics.index(x)][self.topics.index(y)]


@dataclass
class TopicHypergraph:
    topics: list[str]
    hyperedges: list[tuple[str, ...]]
    threshold: float
    inclusive: bool


@dataclass
class AlignmentMatrix:
    topics: list[str]
    values: list[list[Optional[float]]]
    source: str  # content | structural

    def get(self, x: str, y: str) -> Optional[float]:
        return self.values[self.topics.index(x)][self.topics.index(y)]


@dataclass
class JointStanceTable:
    """Empirical joint stance distribution for one topic pair."""

    topic_x: str
    topic_y: str
    values: list[list[float]]  # rows follow STANCE_ORDER for x, columns for y
    n_shared: int
    order: tuple[str, str, str] = STANCE_ORDER


def jaccard(v_x: set, v_y: set) -> Optional[float]:
    union = len(v_x | v_y)
    if union == 0:
        return None
    return len(v_x & v_y) / union


def jaccard_matrix(networks: Sequence[TopicNetwork]) -> OverlapMatrix:
    """Pairwise user overlap between topic networks."""
    if len(networks) < 2:
        raise ValueError("need at least two networks")
    topics = [g.topic for g in networks]
    node_sets = [set(g.nodes) for g in networks]
    n = len(networks)
    values: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            score = jaccard(node_sets[i], node_sets[j])
            values[i][j] = score
            values[j][i] = score
    return OverlapMatrix(topics=topics, values=values)


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
    m: OverlapMatrix, threshold: float = 0.2, inclusive: bool = False
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
    return TopicHypergraph(
        topics=list(topics), hyperedges=hyperedges, threshold=threshold,
        inclusive=inclusive,
    )


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
    shared = set(gx) & set(gy)
    n = len(shared)
    if n < 2:
        return None
    joint: Counter = Counter()
    mx: Counter = Counter()
    my: Counter = Counter()
    for u in shared:
        joint[(gx[u], gy[u])] += 1
        mx[gx[u]] += 1
        my[gy[u]] += 1
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
    groupings: Mapping[str, Mapping], source: str, normalization: str = "mean"
) -> AlignmentMatrix:
    """Pairwise NMI across topics; diagonal entries are exact 1 by identity."""
    topics = sorted(groupings)
    n = len(topics)
    values: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            score = nmi_alignment(
                groupings[topics[i]], groupings[topics[j]], normalization
            )
            values[i][j] = score
            values[j][i] = score
    return AlignmentMatrix(topics=topics, values=values, source=source)


def joint_stance_table(
    sx: Mapping[str, str], sy: Mapping[str, str], topic_x: str = "x", topic_y: str = "y"
) -> Optional[JointStanceTable]:
    """3x3 joint distribution of stances over the shared users.

    None when the topics share no classified users. Cells follow the
    for/neutral/against order on both axes and sum to 1.
    """
    shared = set(sx) & set(sy)
    if not shared:
        return None
    counts: Counter = Counter()
    for u in shared:
        counts[(sx[u], sy[u])] += 1
    n = len(shared)
    values = [
        [counts.get((a, b), 0) / n for b in STANCE_ORDER] for a in STANCE_ORDER
    ]
    return JointStanceTable(
        topic_x=topic_x, topic_y=topic_y, values=values, n_shared=n
    )
