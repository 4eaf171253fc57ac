"""Group detection on topic networks.

Structural groups come from a degree-corrected block model constrained to
planted-partition form: one pooled connection rate inside blocks, one
pooled rate between them. Partitions are scored by description length
(lower is better) and searched with repeated greedy sweeps plus periodic
merge/split proposals. Content groups simply restrict stance labels to a
network's node set.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .graphs import TopicNetwork

_EPS = 1e-10


@dataclass(frozen=True)
class Partition:
    """A block assignment with its description length in nats.

    Block ids are canonical: numbered by first appearance when nodes are
    visited in sorted order, so equal partitions compare equal.
    """

    assignment: dict
    b: int
    dl: float


@dataclass
class RunRecord:
    """Diagnostics for one detection run."""

    seed: int
    sweeps: int
    dl: float
    trajectory: list[float] = field(default_factory=list)


@dataclass
class BlockComposition:
    block: int
    size: int
    histogram: dict[str, int]
    dominant_fraction: Optional[float]


@dataclass
class GroupComposition:
    dominant_stance: Optional[str]
    blocks: list[BlockComposition]
    max_ds: Optional[float]
    min_ds: Optional[float]


def _undirected_adjacency(g: TopicNetwork, collapse: bool) -> dict:
    """Directed multiplicities folded into undirected neighbor weights.

    Self-loops are ignored; they cannot occur in projected networks and
    carry no grouping signal.
    """
    adj: dict = defaultdict(Counter)
    for (u, v), c in g.multiplicity.items():
        if u == v:
            continue
        w = 1 if collapse else c
        adj[u][v] += w
        adj[v][u] += w
    if collapse:
        for u in adj:
            for v in adj[u]:
                adj[u][v] = 1
    return adj


def _fit_term(m: int, m_in: int, s2: int) -> float:
    """Pooled-rate log-likelihood; 0.0 for an edgeless graph (then s2 == 0)."""
    fit = 0.0
    if m_in > 0:
        fit += m_in * math.log(2.0 * m_in / s2)
    m_out = m - m_in
    if m_out > 0:
        a = 2.0 * m
        fit += m_out * math.log(2.0 * m_out / (a * a - s2))
    return fit


def _dl_value(n_nodes: int, m: int, sizes: Iterable[int], degsums: Iterable[int],
              m_in: int) -> float:
    fit = _fit_term(m, m_in, sum(d * d for d in degsums))
    model = math.lgamma(n_nodes + 1) - sum(math.lgamma(n + 1) for n in sizes)
    model += math.log(n_nodes)
    return -fit + model


def description_length(g: TopicNetwork, assignment: Mapping,
                       collapse_multigraph: bool = False) -> float:
    """Description length of one partition of ``g``, in nats.

    The fit part is the pooled-rate, degree-corrected block-model
    log-likelihood (internal rate from total internal edges and block
    degree sums, external rate from the rest); the model part charges for
    choosing block sizes (a multinomial count) and for the block count
    itself (log N). Deterministic in (g, assignment); block relabeling
    does not change the value.
    """
    if len(g.nodes) == 0:
        raise ValueError("empty graph has no description length")
    missing = [n for n in g.nodes if n not in assignment]
    if missing:
        raise ValueError(f"{len(missing)} nodes lack a block assignment")
    adj = _undirected_adjacency(g, collapse_multigraph)
    m = 0
    m_in = 0
    degsums: Counter = Counter()
    sizes: Counter = Counter()
    for node in g.nodes:
        sizes[assignment[node]] += 1
    seen = set()
    for u, nbrs in adj.items():
        for v, c in nbrs.items():
            if (v, u) in seen:
                continue
            seen.add((u, v))
            m += c
            degsums[assignment[u]] += c
            degsums[assignment[v]] += c
            if assignment[u] == assignment[v]:
                m_in += c
    return _dl_value(len(g.nodes), m, sizes.values(), degsums.values(), m_in)


class _SearchState:
    """Mutable partition state with O(degree + k) move evaluation.

    Tracks block sizes, integer block degree sums, their sum of squares
    ``s2``, the internal-edge total ``m_in`` and the current fit term. A
    node move changes only its source and target blocks, so once the
    node's edge weights into each block are counted (O(degree + k)), the
    description-length change for each target takes O(1) (Peixoto, PRE
    89, 012804, 2014). ``dl()`` stays a full recompute.
    """

    def __init__(self, nodes, adj, max_groups: int):
        self.nodes = nodes
        self.index = {n: i for i, n in enumerate(nodes)}
        self.n = len(nodes)
        self.k = max_groups
        self.adj = [
            [(self.index[v], c) for v, c in adj.get(node, {}).items()]
            for node in nodes
        ]
        self.deg = [sum(c for _, c in nbrs) for nbrs in self.adj]
        self.m = sum(self.deg) // 2
        # log(x) for block sizes 0..n; log[0] is never read
        self.log = [0.0] + [math.log(x) for x in range(1, self.n + 1)]
        self.assignment = [0] * self.n
        self._rebuild()

    def init_random(self, rng: random.Random) -> None:
        self.assignment = [rng.randrange(self.k) for _ in range(self.n)]
        self._rebuild()

    def _rebuild(self) -> None:
        self.sizes = [0] * self.k
        self.degsum = [0] * self.k
        self.m_in = 0
        for i in range(self.n):
            b = self.assignment[i]
            self.sizes[b] += 1
            self.degsum[b] += self.deg[i]
            for j, c in self.adj[i]:
                if j > i and self.assignment[j] == b:
                    self.m_in += c
        self.s2 = sum(d * d for d in self.degsum)
        self.fit = _fit_term(self.m, self.m_in, self.s2)

    def dl(self) -> float:
        return _dl_value(self.n, self.m, self.sizes, self.degsum, self.m_in)

    def block_weights(self, i: int) -> list:
        """Edge multiplicity from node i into each block."""
        w = [0] * self.k
        assignment = self.assignment
        for j, c in self.adj[i]:
            w[assignment[j]] += c
        return w

    def deltas(self, i: int, w: list, targets: Iterable[int]) -> list:
        """Description-length change of moving node i into each of
        ``targets`` (0.0 for its own block), given its block weights ``w``.

        The fit term is ``_fit_term`` written out, the same operations in
        the same order: a Python call per target measurably slows the sweep.
        """
        src = self.assignment[i]
        d2 = 2 * self.deg[i]
        m, fit, log, sizes, degsum = self.m, self.fit, self.log, self.sizes, self.degsum
        # after a move to t: m_in + w[t] - w[src], s2 + 2d(degsum[t] - degsum[src] + d),
        # and the size term changes by log(sizes[src]) - log(sizes[t] + 1)
        m_in_base = self.m_in - w[src]
        s2_base = self.s2 - d2 * degsum[src] + d2 * self.deg[i]
        model = log[sizes[src]]
        a2 = (2.0 * m) * (2.0 * m)
        out = []
        for t in targets:
            if t == src:
                out.append(0.0)
                continue
            m_in = m_in_base + w[t]
            s2 = s2_base + d2 * degsum[t]
            m_out = m - m_in
            f = 0.0
            if m_in > 0:
                f += m_in * math.log(2.0 * m_in / s2)
            if m_out > 0:
                f += m_out * math.log(2.0 * m_out / (a2 - s2))
            out.append(fit - f + model - log[sizes[t] + 1])
        return out

    def move(self, i: int, target: int, w: list) -> None:
        src = self.assignment[i]
        if target == src:
            return
        d = self.deg[i]
        self.s2 += 2 * d * (self.degsum[target] - self.degsum[src] + d)
        self.m_in += w[target] - w[src]
        self.sizes[src] -= 1
        self.sizes[target] += 1
        self.degsum[src] -= d
        self.degsum[target] += d
        self.assignment[i] = target
        self.fit = _fit_term(self.m, self.m_in, self.s2)

    def sweep(self, order: list) -> int:
        """Move each node to the block that lowers the DL most (by more than
        _EPS, ties to the smaller block id); returns the number of moves."""
        moves = 0
        blocks = range(self.k)
        for i in order:
            w = self.block_weights(i)
            deltas = self.deltas(i, w, blocks)
            src = best = self.assignment[i]
            for t in blocks:
                if deltas[t] < deltas[best] - _EPS:
                    best = t
            if best != src:
                self.move(i, best, w)
                moves += 1
        return moves

    def _pair_weights(self) -> Counter:
        """Edge multiplicity between each pair of distinct blocks (r < s)."""
        pair: Counter = Counter()
        assignment = self.assignment
        for i in range(self.n):
            bi = assignment[i]
            for j, c in self.adj[i]:
                bj = assignment[j]
                if bi < bj:
                    pair[bi, bj] += c
        return pair

    def merge_pass(self) -> bool:
        """Greedily merge block pairs while it lowers the description length."""
        changed = False
        while True:
            current = self.dl()
            best = None
            best_dl = current
            pair = self._pair_weights()
            occupied = [b for b in range(self.k) if self.sizes[b] > 0]
            for ai in range(len(occupied)):
                for bi in range(ai + 1, len(occupied)):
                    r, s = occupied[ai], occupied[bi]
                    sizes = list(self.sizes)
                    degsum = list(self.degsum)
                    sizes[r] += sizes[s]
                    sizes[s] = 0
                    degsum[r] += degsum[s]
                    degsum[s] = 0
                    m_in = self.m_in + pair[r, s]
                    candidate = _dl_value(self.n, self.m, sizes, degsum, m_in)
                    if candidate < best_dl - _EPS:
                        best_dl = candidate
                        best = (r, s)
            if best is None:
                return changed
            r, s = best
            for i in range(self.n):
                if self.assignment[i] == s:
                    self.assignment[i] = r
            self._rebuild()
            changed = True

    def split_pass(self, rng: random.Random, mini_sweeps: int = 3) -> bool:
        """Try to bisect each block; keep a split only if it lowers the DL."""
        changed = False
        for b in range(self.k):
            if self.sizes[b] < 4:
                continue
            empty = [e for e in range(self.k) if self.sizes[e] == 0]
            if not empty:
                break
            target = empty[0]
            before_dl = self.dl()
            before_assignment = list(self.assignment)
            members = [i for i in range(self.n) if self.assignment[i] == b]
            for i in members:
                if rng.random() < 0.5:
                    self.move(i, target, self.block_weights(i))
            for _ in range(mini_sweeps):
                moved = 0
                for i in members:
                    w = self.block_weights(i)
                    other = target if self.assignment[i] == b else b
                    if self.deltas(i, w, (other,))[0] < -_EPS:
                        self.move(i, other, w)
                        moved += 1
                if not moved:
                    break
            if self.dl() < before_dl - _EPS:
                changed = True
            else:
                self.assignment = before_assignment
                self._rebuild()
        return changed


def _canonical(nodes_sorted: list, assignment_by_node: Mapping) -> tuple[dict, int]:
    relabel: dict = {}
    out = {}
    for node in nodes_sorted:
        b = assignment_by_node[node]
        if b not in relabel:
            relabel[b] = len(relabel)
        out[node] = relabel[b]
    return out, len(relabel)


def _single_run(state: _SearchState, iters: int, run_seed: int) -> RunRecord:
    rng = random.Random(run_seed)
    state.init_random(rng)
    record = RunRecord(seed=run_seed, sweeps=0, dl=state.dl())
    order = list(range(state.n))
    for sweep_no in range(1, iters + 1):
        rng.shuffle(order)
        moves = state.sweep(order)
        record.sweeps = sweep_no
        record.trajectory.append(state.dl())
        if sweep_no % 10 == 0 or moves == 0:
            merged = state.merge_pass()
            split = state.split_pass(rng)
            if moves == 0 and not merged and not split:
                break
    state.merge_pass()
    record.dl = state.dl()
    return record


def detect_structural_groups_with_diagnostics(
    g: TopicNetwork,
    max_groups: int = 5,
    runs: int = 15,
    iters: int = 50,
    seed: int = 0,
    collapse_multigraph: bool = False,
) -> tuple[Partition, list[RunRecord]]:
    """Best partition over independent randomized runs.

    Each run starts from a uniform random assignment and performs greedy
    single-node sweeps (one iteration = one full sweep, ties to the
    smaller block id), with a merge/split pass every 10 sweeps and on
    convergence. The best run wins by description length; exact ties fall
    to the lexicographically smallest canonical labeling. Fixing the seed
    fixes the full output: each run redraws the whole search state from its
    own seed.
    """
    if len(g.nodes) == 0:
        raise ValueError("cannot detect groups on an empty graph")
    if max_groups < 1:
        raise ValueError("max_groups must be at least 1")
    adj = _undirected_adjacency(g, collapse_multigraph)
    nodes_sorted = sorted(g.nodes)
    master = random.Random(seed)
    run_seeds = [master.randrange(2**63) for _ in range(runs)]
    state = _SearchState(nodes_sorted, adj, max_groups)

    # the trivial one-block partition is always on the table, so a bad
    # search budget can never return something worse than "no structure"
    # (description_length() of it reduces to this _dl_value call)
    single = {node: 0 for node in nodes_sorted}
    n, m = state.n, state.m
    candidates = [(_dl_value(n, m, [n], [2 * m], m), single, 1)]
    records: list[RunRecord] = []
    for run_seed in run_seeds:
        # each run re-draws the whole assignment, so runs share one state object
        record = _single_run(state, iters, run_seed)
        records.append(record)
        by_node = {node: state.assignment[i] for i, node in enumerate(nodes_sorted)}
        canon, b = _canonical(nodes_sorted, by_node)
        candidates.append((record.dl, canon, b))

    best: Optional[tuple[float, tuple, dict, int]] = None
    for dl, canon, b in candidates:
        key = tuple(canon[node] for node in nodes_sorted)
        if best is None or dl < best[0] - 1e-9 or (abs(dl - best[0]) <= 1e-9 and key < best[1]):
            best = (dl, key, canon, b)
    assert best is not None
    dl, _, canon, b = best
    return Partition(assignment=canon, b=b, dl=dl), records


def content_groups(stances: Mapping[str, str], g: TopicNetwork) -> dict[str, str]:
    """The user -> stance labels of the network's nodes."""
    return {n: stances[n] for n in g.nodes if n in stances}


def group_composition(p: Partition, stances: Mapping[str, str]) -> GroupComposition:
    """Stance make-up of each structural block.

    The dominant stance is the globally most frequent stance across all
    labeled nodes; each block's dominant-stance fraction is computed over
    its labeled members only, with partition nodes that carry no label
    reported in their own "unlabeled" histogram bin. Every labeled node
    must be in the partition.
    """
    outside = set(stances) - set(p.assignment)
    if outside:
        raise ValueError(f"{len(outside)} labeled nodes are not in the partition")
    global_counts = Counter(stances.values())
    dominant = None
    if global_counts:
        # deterministic tie-break: highest count, then stance name
        dominant = sorted(global_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    blocks: list[BlockComposition] = []
    members: dict[int, list] = defaultdict(list)
    for node, b in p.assignment.items():
        members[b].append(node)
    for b in sorted(members):
        hist: Counter = Counter()
        for node in members[b]:
            hist[stances.get(node, "unlabeled")] += 1
        labeled = sum(c for stance, c in hist.items() if stance != "unlabeled")
        fraction = hist.get(dominant, 0) / labeled if labeled and dominant else None
        blocks.append(
            BlockComposition(
                block=b, size=len(members[b]), histogram=dict(hist),
                dominant_fraction=fraction,
            )
        )
    fractions = [blk.dominant_fraction for blk in blocks if blk.dominant_fraction is not None]
    return GroupComposition(
        dominant_stance=dominant,
        blocks=blocks,
        max_ds=max(fractions) if fractions else None,
        min_ds=min(fractions) if fractions else None,
    )
