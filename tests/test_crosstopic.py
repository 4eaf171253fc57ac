import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarnet.crosstopic import (
    TopicMatrix,
    alignment_matrix,
    jaccard_matrix,
    joint_stance_table,
    nmi_alignment,
    topic_hypergraph,
)
from polarnet.graphs import TopicNetwork

from oracles import (
    cell,
    joint_table_direct,
    marginal_x,
    marginal_y,
    maximal_cliques_direct,
    nmi_direct,
)


def net(topic, nodes):
    return TopicNetwork(topic, "reposts", None, set(nodes), Counter())


def overlap_from_pairs(topics, pairs, default=0.05):
    idx = {t: i for i, t in enumerate(topics)}
    values = [[default] * len(topics) for _ in topics]
    for i in range(len(topics)):
        values[i][i] = 1.0
    for (x, y), v in pairs.items():
        values[idx[x]][idx[y]] = v
        values[idx[y]][idx[x]] = v
    return TopicMatrix(topics=list(topics), values=values)


class TestJaccard:
    def test_identical_sets(self):
        m = jaccard_matrix([net("a", {"u1", "u2"}), net("b", {"u1", "u2"})])
        assert m.get("a", "b") == 1.0

    def test_disjoint_sets(self):
        m = jaccard_matrix([net("a", {"u1"}), net("b", {"u2"})])
        assert m.get("a", "b") == 0.0

    def test_diagonal_is_one(self):
        m = jaccard_matrix([net("a", {"u1"}), net("b", {"u1", "u2"})])
        assert m.get("a", "a") == 1.0 and m.get("b", "b") == 1.0

    def test_empty_pair_undefined(self):
        m = jaccard_matrix([net("a", set()), net("b", set())])
        assert m.get("a", "b") is None

    def test_symmetry_and_range(self):
        rng = random.Random(0)
        nets = [
            net(f"t{i}", {f"u{rng.randrange(40)}" for _ in range(20)}) for i in range(5)
        ]
        m = jaccard_matrix(nets)
        for i in range(5):
            for j in range(5):
                assert m.values[i][j] == m.values[j][i]
                assert 0.0 <= m.values[i][j] <= 1.0

    def test_high_overlap_trio_is_hypergraph_eligible(self):
        # three heavily co-attended topics: all pairwise overlaps above
        # 0.30, so they bundle at the 0.2 threshold
        shared = {f"s{i}" for i in range(40)}
        nets = [
            net("trump", shared | {f"a{i}" for i in range(30)}),
            net("musk", shared | {f"b{i}" for i in range(30)}),
            net("rus_ukr", shared | {f"c{i}" for i in range(30)}),
        ]
        m = jaccard_matrix(nets)
        for x, y in [("trump", "musk"), ("trump", "rus_ukr"), ("musk", "rus_ukr")]:
            assert m.get(x, y) > 0.30
        hg = topic_hypergraph(m, threshold=0.2)
        assert hg.hyperedges == [("musk", "rus_ukr", "trump")]


class TestTopicHypergraph:
    def test_triangle_single_hyperedge(self):
        m = overlap_from_pairs(
            ["a", "b", "c"], {("a", "b"): 0.4, ("b", "c"): 0.4, ("a", "c"): 0.4}
        )
        assert topic_hypergraph(m).hyperedges == [("a", "b", "c")]

    def test_chain_gives_two_edges(self):
        m = overlap_from_pairs(["a", "b", "c"], {("a", "b"): 0.4, ("b", "c"): 0.4})
        assert topic_hypergraph(m).hyperedges == [("a", "b"), ("b", "c")]

    def test_no_qualifying_edges(self):
        m = overlap_from_pairs(["a", "b"], {})
        assert topic_hypergraph(m).hyperedges == []

    def test_threshold_is_strict_by_default(self):
        m = overlap_from_pairs(["a", "b"], {("a", "b"): 0.2})
        assert topic_hypergraph(m, threshold=0.2).hyperedges == []
        assert topic_hypergraph(m, threshold=0.2, inclusive=True).hyperedges == [("a", "b")]

    def test_threshold_validation(self):
        m = overlap_from_pairs(["a", "b"], {})
        with pytest.raises(ValueError):
            topic_hypergraph(m, threshold=0.0)

    def test_four_bundle_fixture(self):
        # an overlap matrix whose qualifying graph has exactly these four
        # mutually non-nested bundles as its maximal cliques
        topics = ["trump", "musk", "canada", "fires", "dei", "tiktok",
                  "isrpal", "rusukr", "lgbtq", "ai"]
        bundles = [
            ("dei", "isrpal", "lgbtq", "musk", "trump"),
            ("dei", "isrpal", "musk", "rusukr", "trump"),
            ("canada", "dei", "fires", "isrpal", "musk", "rusukr"),
            ("canada", "dei", "fires", "tiktok"),
        ]
        pairs = {}
        for bundle in bundles:
            for i in range(len(bundle)):
                for j in range(i + 1, len(bundle)):
                    pairs[(bundle[i], bundle[j])] = 0.35
        for pair in [("trump", "musk"), ("trump", "rusukr"), ("musk", "rusukr")]:
            pairs[pair] = 0.32
        pairs[("tiktok", "fires")] = 0.23
        m = overlap_from_pairs(topics, pairs)
        hg = topic_hypergraph(m, threshold=0.2)
        assert sorted(hg.hyperedges) == sorted(bundles)
        # cross-check against the brute-force clique enumerator
        edge = {frozenset(p) for p, v in pairs.items() if v > 0.2}
        ref = maximal_cliques_direct(topics, lambda u, v: frozenset((u, v)) in edge)
        assert sorted(hg.hyperedges) == ref

    @given(st.integers(0, 2**30), st.integers(4, 9))
    @settings(max_examples=40, deadline=None)
    def test_hyperedges_are_maximal_qualifying_cliques(self, seed, n):
        rng = random.Random(seed)
        topics = [f"t{i}" for i in range(n)]
        pairs = {}
        for i in range(n):
            for j in range(i + 1, n):
                pairs[(topics[i], topics[j])] = rng.random() * 0.5
        m = overlap_from_pairs(topics, pairs, default=0.0)
        hg = topic_hypergraph(m, threshold=0.2)
        for edge in hg.hyperedges:
            for i in range(len(edge)):
                for j in range(i + 1, len(edge)):
                    assert m.get(edge[i], edge[j]) > 0.2
        edge_set = {frozenset(p) for p, v in pairs.items() if v > 0.2}
        ref = maximal_cliques_direct(topics, lambda u, v: frozenset((u, v)) in edge_set)
        assert sorted(hg.hyperedges) == ref

    def test_near_unit_threshold_keeps_only_identical_pairs(self):
        # just below 1.0 only J = 1 pairs qualify, so hyperedges reduce to
        # the components of the "identical node set" relation
        m = overlap_from_pairs(
            ["a", "b", "c", "d", "e"],
            {("a", "b"): 1.0, ("c", "d"): 1.0, ("a", "c"): 0.9, ("d", "e"): 0.99},
        )
        hg = topic_hypergraph(m, threshold=1.0 - 1e-9)
        assert hg.hyperedges == [("a", "b"), ("c", "d")]

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_raising_threshold_never_adds_edges(self, seed):
        rng = random.Random(seed)
        topics = [f"t{i}" for i in range(6)]
        pairs = {
            (topics[i], topics[j]): rng.random()
            for i in range(6)
            for j in range(i + 1, 6)
        }
        m = overlap_from_pairs(topics, pairs, default=0.0)
        low = topic_hypergraph(m, threshold=0.25)
        high = topic_hypergraph(m, threshold=0.6)
        low_pairs = {p for e in low.hyperedges for p in zip(e, e[1:])}
        for edge in high.hyperedges:
            for i in range(len(edge)):
                for j in range(i + 1, len(edge)):
                    assert m.get(edge[i], edge[j]) > 0.25


class TestNmiAlignment:
    def test_identical_partitions(self):
        gx = {f"u{i}": i % 3 for i in range(60)}
        assert nmi_alignment(gx, dict(gx)) == pytest.approx(1.0)

    def test_relabeled_partitions_still_one(self):
        gx = {f"u{i}": i % 3 for i in range(60)}
        gy = {u: (v + 1) % 3 for u, v in gx.items()}
        assert nmi_alignment(gx, gy) == pytest.approx(1.0)

    def test_constant_grouping_zero_by_convention(self):
        gx = {f"u{i}": "same" for i in range(50)}
        gy = {f"u{i}": i % 2 for i in range(50)}
        assert nmi_alignment(gx, gy) == 0.0

    def test_tiny_intersection_undefined(self):
        assert nmi_alignment({"a": 1}, {"a": 1, "b": 2}) is None
        assert nmi_alignment({"a": 1}, {"b": 1}) is None

    def test_independent_partitions_score_near_zero(self):
        totals = []
        for seed in range(20):
            rng = random.Random(seed)
            gx = {f"u{i}": rng.randrange(3) for i in range(10_000)}
            gy = {f"u{i}": rng.randrange(3) for i in range(10_000)}
            totals.append(nmi_alignment(gx, gy))
        assert sum(totals) / len(totals) < 0.01

    def test_symmetry(self):
        rng = random.Random(5)
        gx = {f"u{i}": rng.randrange(3) for i in range(200)}
        gy = {f"u{i}": rng.randrange(4) for i in range(150)}
        assert nmi_alignment(gx, gy) == pytest.approx(nmi_alignment(gy, gx), abs=1e-12)

    def test_matches_oracle(self):
        for seed in range(10):
            rng = random.Random(seed)
            gx = {f"u{i}": rng.randrange(3) for i in range(300)}
            gy = {f"u{i}": rng.randrange(3) for i in range(280)}
            assert nmi_alignment(gx, gy) == pytest.approx(
                nmi_direct(gx, gy), abs=1e-12
            )

    def test_normalization_variants_ordered(self):
        rng = random.Random(9)
        gx = {f"u{i}": rng.randrange(2) for i in range(500)}
        gy = {f"u{i}": rng.randrange(5) for i in range(500)}
        by_max = nmi_alignment(gx, gy, normalization="max")
        by_mean = nmi_alignment(gx, gy, normalization="mean")
        by_min = nmi_alignment(gx, gy, normalization="min")
        assert by_max <= by_mean <= by_min

    def test_alignment_matrix_shape(self):
        groupings = {
            "a": {f"u{i}": i % 2 for i in range(50)},
            "b": {f"u{i}": i % 2 for i in range(50)},
            "c": {f"u{i}": (i // 25) for i in range(50)},
        }
        m = alignment_matrix(groupings)
        assert m.topics == ["a", "b", "c"]
        assert m.get("a", "b") == pytest.approx(1.0)
        assert m.get("a", "c") == pytest.approx(m.get("c", "a"), abs=1e-12)


class TestJointStanceTable:
    def test_single_cell(self):
        sx = {f"u{i}": "for" for i in range(10)}
        sy = {f"u{i}": "for" for i in range(10)}
        table = joint_stance_table(sx, sy)
        assert cell(table, "for", "for") == 1.0
        assert sum(sum(row) for row in table.values) == pytest.approx(1.0)

    def test_empty_intersection(self):
        assert joint_stance_table({"a": "for"}, {"b": "for"}) is None

    def test_marginals_match_per_topic_fractions(self):
        rng = random.Random(2)
        users = [f"u{i}" for i in range(400)]
        sx = {u: rng.choice(["for", "neutral", "against"]) for u in users}
        sy = {u: rng.choice(["for", "neutral", "against"]) for u in users}
        table = joint_stance_table(sx, sy)
        counts_x = Counter(sx.values())
        counts_y = Counter(sy.values())
        for i, stance in enumerate(table.order):
            assert marginal_x(table)[i] == pytest.approx(counts_x[stance] / 400, abs=1e-9)
            assert marginal_y(table)[i] == pytest.approx(counts_y[stance] / 400, abs=1e-9)

    def test_matches_oracle(self):
        rng = random.Random(7)
        sx = {f"u{i}": rng.choice(["for", "neutral", "against"]) for i in range(150)}
        sy = {f"u{i}": rng.choice(["for", "neutral", "against"]) for i in range(120)}
        table = joint_stance_table(sx, sy)
        ref = joint_table_direct(sx, sy, table.order)
        for i in range(3):
            for j in range(3):
                assert table.values[i][j] == pytest.approx(ref[i][j], abs=1e-12)

    def test_neutrality_asymmetry_fixture(self):
        # mirrors the conflict-pair pattern: pro-X users staying neutral on
        # Y are far more common than neutral-on-X users who are pro-Y
        sx = {}
        sy = {}
        for i in range(60):  # pro ukraine, neutral on isr-pal
            sx[f"u{i}"] = "for"
            sy[f"u{i}"] = "neutral"
        for i in range(60, 140):  # pro both
            sx[f"u{i}"] = "for"
            sy[f"u{i}"] = "for"
        for i in range(140, 165):  # neutral on rus-ukr, pro palestine
            sx[f"u{i}"] = "neutral"
            sy[f"u{i}"] = "for"
        table = joint_stance_table(sx, sy)
        assert cell(table, "for", "neutral") > 2 * cell(table, "neutral", "for")
