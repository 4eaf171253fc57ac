"""Per-network polarization and homophily scores.

All network scores are pure functions of a grouped view: the group sizes
and the table of edge counts between groups, built in one pass over the
network. Edge multiplicities always count; nodes without a label are
never scored. Undefined values (empty groups, zero densities) are
reported as None and rendered as dashes downstream.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping, Optional

from .annotate import TopicSpec
from .graphs import TopicNetwork
from .groups import Partition, group_composition


class GroupedGraphView:
    """A topic network's group sizes and mixing table under a node -> group
    labeling.

    Only nodes present in the network and carrying a label are scored;
    edges with an unlabeled endpoint are invisible to every metric.
    ``mix`` maps each (source group, target group) pair to its edge
    multiplicity (Newman, PRE 67, 026126, 2003), in order of first
    appearance among the network's edges; every score reads only it and
    ``sizes``.
    """

    def __init__(self, graph: TopicNetwork, groups: Mapping):
        groups = {n: g for n, g in groups.items() if n in graph.nodes}
        self.sizes = Counter(groups.values())
        self.mix: Counter = Counter()
        for (u, v), c in graph.multiplicity.items():
            gu = groups.get(u)
            if gu is not None:
                gv = groups.get(v)
                if gv is not None:
                    self.mix[gu, gv] += c


def aei(view: GroupedGraphView, x=None, y=None) -> Optional[float]:
    """Within-versus-between connection density contrast for two groups.

    d_int pools the ordered-pair edge densities inside x and inside y,
    d_ext is the cross density, and the score is their normalized
    difference in [-1, 1]: higher means connections concentrate within
    groups. Other groups' nodes and edges do not count. None when there
    are no edges within or between x and y.
    """
    if x is None or y is None:
        present = sorted(view.sizes)
        if len(present) != 2:
            raise ValueError(f"view has {len(present)} groups; pass x and y explicitly")
        x, y = present
    if x == y:
        raise ValueError("x and y must be different groups")
    n_x = view.sizes.get(x, 0)
    n_y = view.sizes.get(y, 0)
    if n_x == 0 or n_y == 0:
        raise ValueError("both groups must be non-empty")
    if n_x + n_y < 2:
        raise ValueError("need at least two scored nodes")
    mix = view.mix
    m_in = mix[x, x] + mix[y, y]
    m_ext = mix[x, y] + mix[y, x]
    pairs_in = n_x * (n_x - 1) + n_y * (n_y - 1)
    pairs_ext = 2 * n_x * n_y
    d_int = m_in / pairs_in if pairs_in else 0.0
    d_ext = m_ext / pairs_ext if pairs_ext else 0.0
    total = d_int + d_ext
    if total == 0.0:
        return None
    return (d_int - d_ext) / total


@dataclass
class PairwiseAEI:
    """Summary of the aei scores of every pair of groups."""

    mean: Optional[float]
    max: Optional[float]
    min: Optional[float]


def pairwise_aei(view: GroupedGraphView) -> PairwiseAEI:
    """aei for every unordered pair of groups; all None when no pair has a
    defined score (for example with only one group)."""
    labels = sorted(view.sizes)
    defined = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            score = aei(view, labels[i], labels[j])
            if score is not None:
                defined.append(score)
    if not defined:
        return PairwiseAEI(None, None, None)
    return PairwiseAEI(sum(defined) / len(defined), max(defined), min(defined))


def assortativity(view: GroupedGraphView) -> Optional[float]:
    """Categorical assortativity over the directed mixing matrix.

    r = (sum_g e_gg - sum_g a_g b_g) / (1 - sum_g a_g b_g), where e is the
    fraction of edges from source group to target group and a, b are its
    row and column sums. None when all edge mass sits in one group. Every
    sum runs in ``mix`` order, so the value does not depend on hashing.
    """
    total = sum(view.mix.values())
    if total == 0:
        return None
    trace = 0.0
    a: dict = defaultdict(float)
    b: dict = defaultdict(float)
    for (gu, gv), w in view.mix.items():
        frac = w / total
        if gu == gv:
            trace += frac
        a[gu] += frac
        b[gv] += frac
    ab = sum(a[g] * b.get(g, 0.0) for g in a)
    if 1.0 - ab == 0.0:
        return None
    return (trace - ab) / (1.0 - ab)


def coleman(view: GroupedGraphView, group) -> Optional[float]:
    """Coleman homophily index for one group.

    Compares the group's internal out-edge share w against the random
    baseline p = (n_g - 1)/(N - 1); positive values scale the excess by
    what is attainable, negative ones by the baseline. None when the
    group has no out-edges.
    """
    n_g = view.sizes.get(group, 0)
    if n_g == 0:
        raise ValueError(f"group {group!r} is empty")
    n_total = sum(view.sizes.values())
    if n_total <= 1:
        return None
    out_total = sum(c for (gu, _gv), c in view.mix.items() if gu == group)
    if out_total == 0:
        return None
    w = view.mix[group, group] / out_total
    p = (n_g - 1) / (n_total - 1)
    if w >= p:
        if p == 1.0:
            return None
        return (w - p) / (1.0 - p)
    return (w - p) / p


def simpson(fractions: Mapping[str, float], include_neutral: bool = False) -> Optional[float]:
    """Probability two randomly drawn opposing-group members differ.

    By default neutral mass is set aside and the two opposing fractions
    are renormalized; 0.5 is the balanced maximum. None when no one holds
    an opposing stance. include_neutral switches to the plain three-group
    version.
    """
    if include_neutral:
        parts = {k: v for k, v in fractions.items() if v > 0}
    else:
        parts = {k: v for k, v in fractions.items() if k != "neutral" and v > 0}
    total = sum(parts.values())
    if total == 0:
        return None
    return 1.0 - sum((v / total) ** 2 for v in parts.values())


def stance_fractions(grouping: Mapping[str, str]) -> dict[str, float]:
    """for/neutral/against shares over the labeled nodes."""
    counts = Counter(grouping.values())
    labeled = sum(counts.values())
    if labeled == 0:
        return {"for": 0.0, "neutral": 0.0, "against": 0.0}
    return {s: counts.get(s, 0) / labeled for s in ("for", "neutral", "against")}


@dataclass
class MetricReport:
    """One row of the per-topic stance scoreboard."""

    topic: str
    fraction_a: float
    fraction_neutral: float
    fraction_b: float
    simpson: Optional[float]
    assortativity: Optional[float]
    aei: Optional[float]
    coleman_a: Optional[float]
    coleman_b: Optional[float]
    dominant_stance: str
    majority_camp: str
    coverage: float


def stance_metric_report(
    g: TopicNetwork,
    grouping: Mapping[str, str],
    topic_spec: TopicSpec,
    include_neutral: bool = False,
    simpson_include_neutral: bool = False,
) -> MetricReport:
    """Assemble the stance-grouping scores for one topic network.

    ``grouping`` is the network's content grouping (``content_groups``);
    coverage is its share of the network's nodes. A is the larger of the
    two opposing camps, B the smaller. Neutral nodes are excluded from the
    structural scores unless include_neutral adds them as their own
    category.
    """
    fractions = stance_fractions(grouping)
    camp_a, camp_b = ("for", "against")
    if fractions["against"] > fractions["for"]:
        camp_a, camp_b = ("against", "for")
    scored_groups = ("for", "neutral", "against") if include_neutral else ("for", "against")
    view = GroupedGraphView(g, {n: s for n, s in grouping.items() if s in scored_groups})
    aei_score = None
    if view.sizes.get(camp_a) and view.sizes.get(camp_b):
        aei_score = aei(view, camp_a, camp_b)
    coleman_a = coleman(view, camp_a) if view.sizes.get(camp_a) else None
    coleman_b = coleman(view, camp_b) if view.sizes.get(camp_b) else None
    dominant = max(
        ("for", "neutral", "against"), key=lambda s: (fractions[s], s == camp_a)
    )
    return MetricReport(
        topic=topic_spec.id,
        fraction_a=fractions[camp_a],
        fraction_neutral=fractions["neutral"],
        fraction_b=fractions[camp_b],
        simpson=simpson(fractions, include_neutral=simpson_include_neutral),
        assortativity=assortativity(view),
        aei=aei_score,
        coleman_a=coleman_a,
        coleman_b=coleman_b,
        dominant_stance=topic_spec.stance_display(dominant),
        majority_camp=topic_spec.stance_display(camp_a),
        coverage=len(grouping) / len(g.nodes) if g.nodes else 0.0,
    )


@dataclass
class StructuralReport:
    """One row of the structural-grouping scoreboard (table 5)."""

    topic: str
    mean_aei: Optional[float]
    max_aei: Optional[float]
    min_aei: Optional[float]
    n_groups: int
    max_ds: Optional[float]
    min_ds: Optional[float]


def structural_metric_report(
    g: TopicNetwork,
    partition: Partition,
    grouping: Mapping[str, str],
) -> StructuralReport:
    pw = pairwise_aei(GroupedGraphView(g, partition.assignment))
    comp = group_composition(partition, grouping)
    return StructuralReport(
        topic=g.topic,
        mean_aei=pw.mean,
        max_aei=pw.max,
        min_aei=pw.min,
        n_groups=partition.b,
        max_ds=comp.max_ds,
        min_ds=comp.min_ds,
    )
