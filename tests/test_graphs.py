import struct
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarnet.graphs import (
    EdgeRecord,
    TopicNetwork,
    build_bipartite,
    export_csv,
    load_graph,
    network_stats,
    project_reposts,
    read_nodes_tsv,
    save_graph,
    window_dirname,
    write_nodes_tsv,
)
from polarnet.ingest import PostRecord, RepostEvent

UTC = timezone.utc
T0 = datetime(2025, 1, 10, tzinfo=UTC)


def post(uri, author, text="hello there"):
    return PostRecord(uri, author, text, ("en",), T0, 1)


def make_bipartite(posts, reposts, labels, topic="russia_ukraine", window=None):
    return build_bipartite({p.uri: p for p in posts}, reposts, labels, topic, window)


class TestBuildBipartite:
    def test_author_and_reposter(self):
        b = make_bipartite(
            [post("p1", "A")],
            [RepostEvent("B", "p1", T0)],
            {"p1": "russia_ukraine"},
        )
        kinds = sorted((e.user, e.kind) for e in b.edges)
        assert kinds == [("A", "authorship"), ("B", "repost")]

    def test_unlabeled_repost_dropped_with_tally(self):
        b = make_bipartite(
            [post("p1", "A")],
            [RepostEvent("B", "p-unlabeled", T0)],
            {"p1": "russia_ukraine"},
        )
        assert b.dangling_references == 1
        assert all(e.kind != "repost" for e in b.edges)

    def test_empty_topic(self):
        b = make_bipartite([post("p1", "A")], [], {"p1": "other_topic"})
        assert b.edges == []

    def test_window_excludes_out_of_range_events(self):
        window = (T0, T0 + timedelta(days=1))
        b = make_bipartite(
            [post("p1", "A")],
            [
                RepostEvent("B", "p1", T0 + timedelta(hours=2)),
                RepostEvent("C", "p1", T0 + timedelta(days=3)),
            ],
            {"p1": "russia_ukraine"},
            window=window,
        )
        reposters = {e.user for e in b.edges if e.kind == "repost"}
        assert reposters == {"B"}


class TestProjectReposts:
    def test_parallel_edges_preserved(self):
        b = make_bipartite(
            [post("p1", "A"), post("p2", "A")],
            [RepostEvent("B", "p1", T0), RepostEvent("B", "p2", T0)],
            {"p1": "russia_ukraine", "p2": "russia_ukraine"},
        )
        g = project_reposts(b)
        assert g.multiplicity[("B", "A")] == 2
        assert g.edge_count == 2

    def test_self_repost_suppressed(self):
        b = make_bipartite(
            [post("p1", "A")], [RepostEvent("A", "p1", T0)], {"p1": "russia_ukraine"}
        )
        g = project_reposts(b)
        assert g.edge_count == 0
        assert g.suppressed_self_edges == 1

    def test_attribution_to_original_author(self):
        b = make_bipartite(
            [post("p1", "A")],
            [RepostEvent("B", "p1", T0), RepostEvent("C", "p1", T0 + timedelta(hours=1))],
            {"p1": "russia_ukraine"},
        )
        g = project_reposts(b)
        assert g.multiplicity == Counter({("B", "A"): 1, ("C", "A"): 1})

    def test_isolated_participants_excluded_by_default(self):
        b = make_bipartite(
            [post("p1", "A"), post("p2", "Z")],
            [RepostEvent("B", "p1", T0)],
            {"p1": "russia_ukraine", "p2": "russia_ukraine"},
        )
        assert project_reposts(b).nodes == {"A", "B"}

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 5)), min_size=0, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_projection_conserves_repost_count(self, pairs):
        # reposter index, post index; post i is authored by user f"a{i}"
        posts = [post(f"p{i}", f"a{i}") for i in range(6)]
        labels = {p.uri: "russia_ukraine" for p in posts}
        reposts = [RepostEvent(f"u{r}", f"p{s}", T0) for r, s in pairs]
        b = make_bipartite(posts, reposts, labels)
        g = project_reposts(b)
        self_reposts = sum(1 for r, s in pairs if f"u{r}" == f"a{s}")
        assert g.edge_count == len(pairs) - self_reposts
        assert g.suppressed_self_edges == self_reposts
        reposters = {f"u{r}" for r, s in pairs if f"u{r}" != f"a{s}"}
        authors = {f"a{s}" for r, s in pairs if f"u{r}" != f"a{s}"}
        assert g.nodes == reposters | authors


class TestNetworkStats:
    # published (nodes, edges, average degree) rows for the ten topics
    PUBLISHED_ROWS = [
        (990_893, 30_705_827, 61.98),
        (485_135, 4_654_921, 19.19),
        (208_884, 1_078_015, 10.32),
        (165_078, 593_857, 7.19),
        (284_571, 1_039_771, 7.31),
        (134_614, 255_452, 3.80),
        (276_322, 1_660_527, 12.02),
        (390_198, 4_611_576, 23.64),
        (375_677, 1_709_459, 9.10),
        (169_919, 407_215, 4.79),
    ]

    def test_single_edge_degree_one(self):
        g = TopicNetwork.from_events("t", "reposts", None, [EdgeRecord("A", "B", T0)])
        stats = network_stats(g)
        assert stats.average_degree == 1.0

    def test_empty_graph_zeroed(self):
        g = TopicNetwork("t", "reposts", None, set(), Counter())
        stats = network_stats(g)
        assert stats == type(stats)(0, 0, 0.0)

    @pytest.mark.parametrize("n,m,expected", PUBLISHED_ROWS)
    def test_published_average_degrees(self, n, m, expected):
        g = TopicNetwork("t", "reposts", None, set(range(n)), Counter({(0, 1): m}))
        stats = network_stats(g)
        assert stats.nodes == n and stats.edges == m
        assert stats.average_degree == pytest.approx(expected, abs=0.01)


class TestPersistence:
    def test_event_graph_round_trip(self, tmp_path):
        events = [
            EdgeRecord("B", "A", T0),
            EdgeRecord("B", "A", T0 + timedelta(seconds=1)),
            EdgeRecord("C", "A", T0 + timedelta(minutes=5)),
        ]
        g = TopicNetwork.from_events("t", "reposts", None, events)
        ordered = write_nodes_tsv(g.nodes, tmp_path / "nodes.tsv")
        index = {n: i for i, n in enumerate(ordered)}
        save_graph(g, tmp_path / "reposts.graph", index)
        loaded = load_graph(
            tmp_path / "reposts.graph", read_nodes_tsv(tmp_path / "nodes.tsv"), "t", "reposts"
        )
        assert list(loaded.multiplicity.items()) == list(g.multiplicity.items())
        assert loaded.nodes == g.nodes
        assert network_stats(loaded) == network_stats(g)
        # the file keeps every event and its timestamp; loading reads only
        # the multiplicities
        assert loaded.events is None
        records = (tmp_path / "reposts.graph").read_bytes()[12:]
        assert [(ordered[s], ordered[t], datetime.fromtimestamp(us / 1e6, tz=UTC))
                for s, t, us in struct.iter_unpack("<IIq", records)] == [
            (e.source, e.target, e.timestamp) for e in events]

    @pytest.mark.parametrize("head", [b"", b"not a graph", b"PNETG1\x00M\x00\x00\x00\x00"],
                             ids=["empty", "foreign", "multiplicity-mode"])
    def test_other_files_rejected(self, tmp_path, head):
        # a multiplicity-only file ("M") is no longer a graph file either
        (tmp_path / "g.graph").write_bytes(head)
        with pytest.raises(ValueError):
            load_graph(tmp_path / "g.graph", [], "t", "reposts")

    @pytest.mark.parametrize("body", [b"", b"\x05\x00", b"\x05\x00\x00\x00",
                                      b"\x01\x00\x00\x00" + bytes(17)],
                             ids=["no-count", "short-count", "count-5-no-edges", "trailing"])
    def test_length_must_match_edge_count(self, tmp_path, body):
        path = tmp_path / "g.graph"
        path.write_bytes(b"PNETG1\x00E" + body)
        with pytest.raises(ValueError, match="g.graph"):
            load_graph(path, ["A", "B"], "t", "reposts")

    @pytest.mark.parametrize("text", ["0\tA\n5\tB\n", "1\tA\n", "0\tA\nB\n"],
                             ids=["gap", "not-from-zero", "no-tab"])
    def test_misnumbered_nodes_rejected(self, tmp_path, text):
        # a ValueError, not an assert that python -O skips
        (tmp_path / "nodes.tsv").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="nodes.tsv"):
            read_nodes_tsv(tmp_path / "nodes.tsv")

    def test_edge_past_the_last_node_rejected(self, tmp_path):
        g = TopicNetwork.from_events("t", "reposts", None, [EdgeRecord("B", "A", T0)])
        save_graph(g, tmp_path / "g.graph", {"A": 0, "B": 1})
        with pytest.raises(ValueError, match="g.graph"):
            load_graph(tmp_path / "g.graph", ["A"], "t", "reposts")

    def test_csv_export(self, tmp_path):
        g = TopicNetwork.from_events("t", "reposts", None, [EdgeRecord("B", "A", T0)])
        export_csv(g, tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "source,target,timestamp"
        assert lines[1].startswith("B,A,2025-01-10")


class TestWindow:
    def test_dirname_round_trip(self):
        window = (datetime(2024, 12, 1, tzinfo=UTC), datetime(2025, 6, 1, tzinfo=UTC))
        assert window_dirname(window) == "2024-12_2025-05"
        assert window_dirname(None) == "all"

    def test_year_end_window(self):
        window = (datetime(2024, 11, 1, tzinfo=UTC), datetime(2025, 1, 1, tzinfo=UTC))
        assert window_dirname(window) == "2024-11_2024-12"
