import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarnet.annotate import DEFAULT_TOPICS
from polarnet.graphs import TopicNetwork
from polarnet.groups import Partition, content_groups
from polarnet.metrics import (
    GroupedGraphView,
    aei,
    assortativity,
    coleman,
    pairwise_aei,
    simpson,
    stance_fractions,
    stance_metric_report,
    structural_metric_report,
)
from oracles import (
    aei_direct,
    assortativity_direct,
    coleman_direct,
    random_multigraph,
    simpson_direct,
)

TOPIC_BY_ID = {t.id: t for t in DEFAULT_TOPICS}


def net(mult, nodes=None):
    mult = Counter(mult)
    node_set = set(nodes) if nodes else {u for u, v in mult} | {v for u, v in mult}
    return TopicNetwork("t", "reposts", None, node_set, mult)


def clique_edges(members, mult=1):
    out = {}
    for u in members:
        for v in members:
            if u != v:
                out[(u, v)] = mult
    return out


def two_groups(n_x=10, n_y=10):
    xs = [f"x{i}" for i in range(n_x)]
    ys = [f"y{i}" for i in range(n_y)]
    groups = {**{u: "X" for u in xs}, **{u: "Y" for u in ys}}
    return xs, ys, groups


class TestAEI:
    def test_disconnected_cliques_score_one(self):
        xs, ys, groups = two_groups()
        g = net({**clique_edges(xs), **clique_edges(ys)}, nodes=xs + ys)
        assert aei(GroupedGraphView(g, groups)) == pytest.approx(1.0, abs=1e-9)

    def test_complete_bipartite_scores_minus_one(self):
        xs, ys, groups = two_groups()
        edges = {(u, v): 1 for u in xs for v in ys}
        edges.update({(v, u): 1 for u in xs for v in ys})
        g = net(edges, nodes=xs + ys)
        assert aei(GroupedGraphView(g, groups)) == pytest.approx(-1.0, abs=1e-9)

    def test_symmetric_in_arguments(self):
        xs, ys, groups = two_groups(4, 7)
        rng = random.Random(3)
        edges = Counter()
        everyone = xs + ys
        for _ in range(60):
            u, v = rng.sample(everyone, 2)
            edges[(u, v)] += 1
        g = net(edges, nodes=everyone)
        view = GroupedGraphView(g, groups)
        assert aei(view, "X", "Y") == pytest.approx(aei(view, "Y", "X"), abs=1e-12)

    def test_no_edges_is_undefined(self):
        xs, ys, groups = two_groups(2, 2)
        g = net({}, nodes=xs + ys)
        assert aei(GroupedGraphView(g, groups)) is None

    def test_empty_group_rejected(self):
        g = net({("a", "b"): 1})
        with pytest.raises(ValueError):
            aei(GroupedGraphView(g, {"a": "X", "b": "X"}), "X", "Y")

    def test_same_group_twice_rejected(self):
        g = net({("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1})
        with pytest.raises(ValueError):
            aei(GroupedGraphView(g, {"a": "X", "b": "X", "c": "Y"}), "X", "X")

    def test_equal_density_wiring_scores_near_zero(self):
        # every ordered pair wired at the same probability regardless of
        # group, so within and between densities agree in expectation
        n, p = 2000, 0.01
        n_pairs = n * (n - 1)
        groups = {i: ("A" if i < 1300 else "B") for i in range(n)}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = rng.binomial(n_pairs, p)
            idx = rng.choice(n_pairs, size=m, replace=False)
            mult = Counter()
            for k in idx:
                u, rem = divmod(int(k), n - 1)
                v = rem if rem < u else rem + 1
                mult[(u, v)] += 1
            g = net(mult, nodes=range(n))
            score = aei(GroupedGraphView(g, groups))
            assert abs(score) <= 0.05

    def test_matches_direct_summation_oracle(self):
        for seed in range(10):
            g, groups = random_multigraph(30, 400, 2, seed=seed)
            named = {n: ("X" if b == 0 else "Y") for n, b in groups.items()}
            mine = aei(GroupedGraphView(g, named))
            edges = [(u, v, c) for (u, v), c in g.multiplicity.items()]
            ref = aei_direct(edges, named, "X", "Y")
            if ref is None:
                assert mine is None
            else:
                assert mine == pytest.approx(ref, abs=1e-12)

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_doubling_multiplicities_is_invariant(self, seed):
        g, groups = random_multigraph(20, 150, 2, seed=seed)
        doubled = TopicNetwork(
            g.topic, g.interaction, None, set(g.nodes),
            Counter({k: 2 * c for k, c in g.multiplicity.items()}),
        )
        view = GroupedGraphView(g, groups)
        view2 = GroupedGraphView(doubled, groups)
        assert aei(view, 0, 1) == pytest.approx(aei(view2, 0, 1), abs=1e-12)
        assert assortativity(view) == pytest.approx(assortativity(view2), abs=1e-12)
        assert coleman(view, 0) == pytest.approx(coleman(view2, 0), abs=1e-12)


class TestPairwiseAEI:
    def test_two_groups_reduces_to_single_value(self):
        xs, ys, groups = two_groups()
        g = net({**clique_edges(xs), **clique_edges(ys)}, nodes=xs + ys)
        view = GroupedGraphView(g, groups)
        pw = pairwise_aei(view)
        single = aei(view)
        assert pw.mean == pw.max == pw.min == pytest.approx(single)

    def test_disconnected_and_merged_triples(self):
        r = [f"r{i}" for i in range(6)]
        s = [f"s{i}" for i in range(6)]
        t = [f"t{i}" for i in range(6)]
        edges = {**clique_edges(r), **clique_edges(s), **clique_edges(t)}
        # s and t fused into one dense blob: cross density equals internal
        edges.update({(u, v): 1 for u in s for v in t})
        edges.update({(v, u): 1 for u in s for v in t})
        groups = {**{u: "r" for u in r}, **{u: "s" for u in s}, **{u: "t" for u in t}}
        view = GroupedGraphView(net(edges, nodes=r + s + t), groups)
        assert aei(view, "r", "s") == pytest.approx(1.0)
        assert abs(aei(view, "s", "t")) < 0.01
        pw = pairwise_aei(view)
        assert pw.max == pytest.approx(1.0)
        assert abs(pw.min) < 0.01

    def test_single_group_empty_matrix(self):
        g = net({("a", "b"): 1})
        pw = pairwise_aei(GroupedGraphView(g, {"a": 0, "b": 0}))
        assert pw.mean is None and pw.max is None and pw.min is None

    def test_five_block_summary_values(self):
        # five 40-node blocks; within-block ordered-pair density 0.5, cross
        # counts chosen so the pair scores summarize to 0.84 / 0.97 / 0.65
        blocks = {b: [f"b{b}n{i}" for i in range(40)] for b in range(5)}
        groups = {n: b for b, members in blocks.items() for n in members}
        edges = Counter()
        for b, members in blocks.items():
            edges[(members[0], members[1])] = 780
        cross = {(0, 1): 24, (0, 2): 339}
        for pair in [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            cross[pair] = 132
        for (r, s), m in cross.items():
            edges[(blocks[r][0], blocks[s][0])] = m
        g = net(edges, nodes=[n for m in blocks.values() for n in m])
        pw = pairwise_aei(GroupedGraphView(g, groups))
        assert round(pw.mean, 2) == 0.84
        assert round(pw.max, 2) == 0.97
        assert round(pw.min, 2) == 0.65


    def test_every_pair_and_mixing_table_match_direct_oracles(self):
        # some nodes unlabeled and one label outside the network, so the
        # table must skip both; 3-5 groups, so several pairs share the view
        for seed in range(20):
            rng = random.Random(seed)
            g, groups = random_multigraph(30, 300, 3 + seed % 3, seed=seed)
            labeled = {n: b for n, b in groups.items() if rng.random() < 0.8}
            view = GroupedGraphView(g, {**labeled, "outsider": 0})
            edges = [(u, v, c) for (u, v), c in g.multiplicity.items()]
            mix = Counter()
            for u, v, c in edges:
                if u in labeled and v in labeled:
                    mix[(labeled[u], labeled[v])] += c
            assert dict(view.mix) == dict(mix)
            present = sorted(set(labeled.values()))
            refs = []
            for i, r in enumerate(present):
                for s in present[i + 1:]:
                    ref = aei_direct(edges, labeled, r, s)
                    mine = aei(view, r, s)
                    if ref is None:
                        assert mine is None
                    else:
                        assert mine == pytest.approx(ref, abs=1e-12)
                        refs.append(ref)
            pw = pairwise_aei(view)
            assert pw.mean == pytest.approx(sum(refs) / len(refs), abs=1e-12)
            assert pw.max == pytest.approx(max(refs), abs=1e-12)
            assert pw.min == pytest.approx(min(refs), abs=1e-12)


class TestAssortativity:
    def test_all_within_group_edges(self):
        xs, ys, groups = two_groups(3, 3)
        g = net({**clique_edges(xs), **clique_edges(ys)}, nodes=xs + ys)
        assert assortativity(GroupedGraphView(g, groups)) == pytest.approx(1.0)

    def test_independent_mixing_is_zero(self):
        g = net({("x1", "x2"): 1, ("x1", "y1"): 1, ("y1", "x1"): 1, ("y1", "y2"): 1})
        groups = {"x1": "X", "x2": "X", "y1": "Y", "y2": "Y"}
        assert assortativity(GroupedGraphView(g, groups)) == pytest.approx(0.0, abs=1e-12)

    def test_single_group_undefined(self):
        g = net({("a", "b"): 2})
        assert assortativity(GroupedGraphView(g, {"a": "X", "b": "X"})) is None

    def test_matches_direct_summation_oracle(self):
        for seed in range(10):
            g, groups = random_multigraph(25, 50, 3, seed=seed)
            mine = assortativity(GroupedGraphView(g, groups))
            edges = [(u, v, c) for (u, v), c in g.multiplicity.items()]
            ref = assortativity_direct(edges, groups)
            assert mine == pytest.approx(ref, abs=1e-12)


class TestColeman:
    def test_all_internal_out_edges(self):
        xs, ys, groups = two_groups(4, 4)
        g = net({**clique_edges(xs), **clique_edges(ys)}, nodes=xs + ys)
        assert coleman(GroupedGraphView(g, groups), "X") == pytest.approx(1.0)

    def test_w_equals_p_is_zero(self):
        # group {a, b} in a 3-node graph: p = 1/2; a sends one edge in,
        # one edge out, so w = 1/2 exactly
        g = net({("a", "b"): 1, ("a", "c"): 1})
        groups = {"a": "G", "b": "G", "c": "H"}
        assert coleman(GroupedGraphView(g, groups), "G") == pytest.approx(0.0, abs=1e-12)

    def test_single_node_group_all_external(self):
        nodes = [f"n{i}" for i in range(100)]
        groups = {n: "big" for n in nodes}
        groups["n0"] = "solo"
        edges = {("n0", f"n{i}"): 1 for i in range(1, 5)}
        g = net(edges, nodes=nodes)
        assert coleman(GroupedGraphView(g, groups), "solo") == pytest.approx(0.0, abs=1e-9)

    def test_no_out_edges_undefined(self):
        g = net({("b", "a"): 1})
        groups = {"a": "G", "b": "H"}
        assert coleman(GroupedGraphView(g, groups), "G") is None

    def test_heterophilous_group_negative(self):
        xs, ys, groups = two_groups(5, 5)
        edges = {(u, v): 1 for u in xs for v in ys}
        g = net(edges, nodes=xs + ys)
        assert coleman(GroupedGraphView(g, groups), "X") == pytest.approx(-1.0)

    def test_matches_direct_summation_oracle(self):
        for seed in range(10):
            g, groups = random_multigraph(25, 300, 2, seed=seed)
            view = GroupedGraphView(g, groups)
            edges = [(u, v, c) for (u, v), c in g.multiplicity.items()]
            for grp in (0, 1):
                mine = coleman(view, grp)
                ref = coleman_direct(edges, groups, grp)
                if ref is None:
                    assert mine is None
                else:
                    assert mine == pytest.approx(ref, abs=1e-12)


class TestSimpson:
    # published stance fractions (A, neutral, B) -> two-decimal index
    PUBLISHED_ROWS = [
        ("trump", 0.82, 0.17, 0.01, 0.02),
        ("us_canada", 0.47, 0.46, 0.07, 0.23),
        ("la_wildfires", 0.19, 0.77, 0.04, 0.29),
        ("dei", 0.53, 0.27, 0.20, 0.40),
        ("tiktok", 0.24, 0.67, 0.08, 0.38),
    ]

    @pytest.mark.parametrize("name,a,neutral,b,expected", PUBLISHED_ROWS)
    def test_published_rows(self, name, a, neutral, b, expected):
        value = simpson({"for": a, "neutral": neutral, "against": b})
        assert value == pytest.approx(expected, abs=0.01)
        assert simpson_direct(a, b) == pytest.approx(value, abs=1e-12)

    def test_balanced_camps_hit_half(self):
        assert simpson({"for": 0.3, "neutral": 0.4, "against": 0.3}) == pytest.approx(0.5)

    def test_all_neutral_undefined(self):
        assert simpson({"for": 0.0, "neutral": 1.0, "against": 0.0}) is None

    def test_naive_three_group_variant(self):
        value = simpson({"for": 0.5, "neutral": 0.25, "against": 0.25}, include_neutral=True)
        assert value == pytest.approx(1 - (0.25 + 0.0625 + 0.0625))

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.45))
    def test_imbalance_strictly_lowers_score(self, shift_a, shift_b):
        base = simpson({"for": 0.5, "neutral": 0.0, "against": 0.5})
        tilted = simpson({"for": 0.5 + shift_a, "neutral": 0.0, "against": 0.5 - shift_a})
        more = simpson(
            {"for": 0.55 + shift_b, "neutral": 0.0, "against": 0.45 - shift_b}
        )
        assert tilted <= base + 1e-12
        assert more <= simpson({"for": 0.55, "neutral": 0.0, "against": 0.45}) + 1e-12


class TestReports:
    def make_grouping(self, n_against=82, n_neutral=17, n_for=1):
        users = [f"u{i:03d}" for i in range(n_against + n_neutral + n_for)]
        stances = {}
        for i, u in enumerate(users):
            if i < n_against:
                stances[u] = "against"
            elif i < n_against + n_neutral:
                stances[u] = "neutral"
            else:
                stances[u] = "for"
        edges = Counter()
        rng = random.Random(1)
        against = users[:n_against]
        for _ in range(400):
            u, v = rng.sample(against, 2)
            edges[(u, v)] += 1
        if n_for:
            edges[(users[-1], against[0])] += 1
        g = TopicNetwork("trump_administration", "reposts", None, set(users), edges)
        return g, content_groups(stances, g)

    def test_majority_minority_assignment(self):
        g, grouping = self.make_grouping()
        report = stance_metric_report(g, grouping, TOPIC_BY_ID["trump_administration"])
        assert report.fraction_a == pytest.approx(0.82)
        assert report.fraction_neutral == pytest.approx(0.17)
        assert report.fraction_b == pytest.approx(0.01)
        assert report.dominant_stance == "opposes_trump"
        assert report.majority_camp == "opposes_trump"
        assert report.simpson == pytest.approx(0.02, abs=0.01)

    def test_neutral_dominant_display(self):
        g, grouping = self.make_grouping(n_against=10, n_neutral=80, n_for=10)
        report = stance_metric_report(g, grouping, TOPIC_BY_ID["ai"])
        assert report.dominant_stance == "Neutral"

    def test_fractions_sum_to_one(self):
        g, grouping = self.make_grouping(40, 35, 25)
        report = stance_metric_report(g, grouping, TOPIC_BY_ID["dei_programs"])
        total = report.fraction_a + report.fraction_neutral + report.fraction_b
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_coverage_is_labeled_share_of_nodes(self):
        g, grouping = self.make_grouping(40, 35, 25)
        del grouping["u000"], grouping["u050"]
        report = stance_metric_report(g, grouping, TOPIC_BY_ID["dei_programs"])
        assert report.coverage == 98 / 100

    def test_structural_report_single_block_dashes(self):
        g = net({("a", "b"): 1, ("b", "c"): 1})
        partition = Partition({"a": 0, "b": 0, "c": 0}, 1, 12.0)
        grouping = {"a": "for", "b": "for", "c": "neutral"}
        report = structural_metric_report(g, partition, grouping)
        assert report.n_groups == 1
        assert report.mean_aei is None and report.max_aei is None and report.min_aei is None

    def test_structural_report_two_blocks(self):
        xs, ys, groups = two_groups(5, 5)
        g = net({**clique_edges(xs), **clique_edges(ys)}, nodes=xs + ys)
        partition = Partition({**{u: 0 for u in xs}, **{u: 1 for u in ys}}, 2, 1.0)
        stances = {u: "for" for u in xs}
        stances.update({u: "against" for u in ys})
        report = structural_metric_report(g, partition, stances)
        assert report.mean_aei == pytest.approx(1.0)
        assert report.max_ds == pytest.approx(1.0)  # block 0 is all "for"
        assert report.min_ds == pytest.approx(0.0)  # block 1 has no "for"


class TestStanceFractions:
    def test_counts_labeled_only(self):
        fractions = stance_fractions({"a": "for", "b": "for", "c": "against"})
        assert fractions == {
            "for": pytest.approx(2 / 3),
            "neutral": 0.0,
            "against": pytest.approx(1 / 3),
        }
