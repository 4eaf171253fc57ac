"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them all). Derived values
are checked against the independent oracles in oracles.py, never against
the code paths under test.
"""

import random
import time
from collections import Counter
from datetime import date

from conftest import fixture_config
from polarnet.graphs import TopicNetwork, network_stats
from polarnet.groups import description_length, detect_structural_groups_with_diagnostics
from polarnet.ingest import (
    DEFAULT_DOWNTIME,
    StatsAccumulator,
    parse_event,
    parse_stream,
)
from polarnet.crosstopic import TopicMatrix, nmi_alignment, topic_hypergraph
from polarnet.metrics import (
    GroupedGraphView,
    aei,
    assortativity,
    coleman,
    simpson,
)
from polarnet.pipeline import run_dir_for, run_pipeline
from polarnet.synthetic import (
    erdos_renyi_graph,
    make_event_stream,
    planted_partition_graph,
)

from oracles import (
    aei_direct,
    assortativity_direct,
    coleman_direct,
    maximal_cliques_direct,
    nmi_direct,
    random_multigraph,
    set_partitions,
    simpson_direct,
)


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_c1_simpson_reproduction():
    rows = [
        ("Trump", 0.82, 0.17, 0.01, 0.02),
        ("US-Canada", 0.47, 0.46, 0.07, 0.23),
        ("LA wildfires", 0.19, 0.77, 0.04, 0.29),
        ("DEI", 0.53, 0.27, 0.20, 0.40),
        ("TikTok", 0.24, 0.67, 0.08, 0.38),
    ]
    start = time.perf_counter()
    errors = []
    for name, a, neutral, b, expected in rows:
        got = simpson({"for": a, "neutral": neutral, "against": b})
        if abs(got - expected) > 0.01:
            errors.append(f"{name}: {got:.4f} vs {expected}")
    ms = (time.perf_counter() - start) * 1000
    criterion(1, not errors, f"5 published stance rows within 0.01 in {ms:.1f}ms"
              + (f"; errors: {errors}" if errors else ""))


def test_c2_average_degree_reproduction():
    table = [
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
    errors = []
    for n, m, expected in table:
        g = TopicNetwork("t", "reposts", None, set(range(n)), Counter({(0, 1): m}))
        got = network_stats(g).average_degree
        if abs(got - expected) > 0.01:
            errors.append(f"(|V|={n}, |E|={m}): {got:.4f} vs {expected}")
        del g
    criterion(2, not errors, "10 published average degrees within 0.01"
              + (f"; errors: {errors}" if errors else ""))


def test_c3_activity_stats_consistency():
    # published (total, daily average) pairs per action type
    published = {
        "likes actions": (6_032_519_995, 36_783_658),
        "likes authors": (306_199_225, 1_867_068),
        "posts actions": (1_021_268_020, 6_227_244),
        "posts authors": (164_939_388, 1_005_727),
        "reposts actions": (866_676_384, 5_284_612),
        "reposts authors": (106_568_078, 649_805),
        "blocks authors": (25_408_088, 154_927),
        "follows authors": (155_281_833, 946_840),
        "sign-ups authors": (13_500_391, 82_319),
    }
    errors = []
    for name, (total, daily) in published.items():
        days = total / daily
        if not 160.0 <= days <= 168.0:
            errors.append(f"{name}: {days:.2f} days")

    # the accumulator reproduces the same identity with the recorded
    # downtime calendar: total / daily_average == observed days
    window = (date(2024, 12, 17), date(2025, 5, 31))
    acc = StatsAccumulator(downtime=DEFAULT_DOWNTIME, window=window)
    lines = [
        '{"action":"create","collection":"app.bsky.feed.like","did":"did:plc:a",'
        f'"time":"2025-0{m}-05T12:00:00Z","subject":"at://p/1"}}'
        for m in range(1, 6)
    ]
    for event in parse_stream(lines):
        acc.add(event)
    stats = acc.finalize()
    observed = stats.observed_days
    if not 160.0 <= observed <= 168.0:
        errors.append(f"observed window: {observed}")
    implied = stats.per_type["like"].total_actions / stats.per_type["like"].daily_average_actions
    if abs(implied - observed) > 1e-9:
        errors.append(f"identity broken: {implied} vs {observed}")
    criterion(3, not errors,
              f"all published total/daily ratios and the {observed:.3f}-day "
              "downtime-adjusted window sit in [160, 168]"
              + (f"; errors: {errors}" if errors else ""))


def test_c4_metric_extremes():
    xs = [f"x{i}" for i in range(8)]
    ys = [f"y{i}" for i in range(8)]
    groups = {**{u: "X" for u in xs}, **{u: "Y" for u in ys}}
    clique_edges = Counter()
    for side in (xs, ys):
        for u in side:
            for v in side:
                if u != v:
                    clique_edges[(u, v)] += 1
    cliques = TopicNetwork("t", "reposts", None, set(xs + ys), clique_edges)
    bipartite_edges = Counter({(u, v): 1 for u in xs for v in ys})
    bipartite_edges.update({(v, u): 1 for u in xs for v in ys})
    bipartite = TopicNetwork("t", "reposts", None, set(xs + ys), bipartite_edges)

    checks = {
        "aei cliques=1": abs(aei(GroupedGraphView(cliques, groups)) - 1.0) <= 1e-9,
        "aei bipartite=-1": abs(aei(GroupedGraphView(bipartite, groups)) + 1.0) <= 1e-9,
        "assortativity within=1": abs(
            assortativity(GroupedGraphView(cliques, groups)) - 1.0
        ) <= 1e-9,
        "coleman internal=1": abs(
            coleman(GroupedGraphView(cliques, groups), "X") - 1.0
        ) <= 1e-9,
        "nmi identical=1": abs(
            nmi_alignment({f"u{i}": i % 3 for i in range(30)},
                          {f"u{i}": i % 3 for i in range(30)}) - 1.0
        ) <= 1e-9,
    }
    # w exactly at the random-mixing baseline: group of 2 in 3 nodes, one
    # internal and one external out-edge
    wp = TopicNetwork("t", "reposts", None, {"a", "b", "c"},
                      Counter({("a", "b"): 1, ("a", "c"): 1}))
    checks["coleman w=p -> 0"] = abs(
        coleman(GroupedGraphView(wp, {"a": "G", "b": "G", "c": "H"}), "G")
    ) <= 1e-9
    failed = [k for k, ok in checks.items() if not ok]
    criterion(4, not failed, "metric extremes exact to 1e-9"
              + (f"; failed: {failed}" if failed else ""))


def test_c5_oracle_equivalence():
    start = time.perf_counter()
    mism = []
    for seed in range(100):
        rng = random.Random(seed)
        n_nodes = rng.randrange(15, 50)
        n_edges = rng.randrange(50, 500)  # doubling inside keeps it <= 1000
        n_groups = rng.randrange(2, 6)
        g, groups = random_multigraph(n_nodes, n_edges, n_groups, seed=seed)
        view = GroupedGraphView(g, groups)
        edges = [(u, v, c) for (u, v), c in g.multiplicity.items()]
        present = sorted(view.sizes)
        x, y = present[0], present[1]
        mine = aei(view, x, y)
        ref = aei_direct(edges, {n: b for n, b in groups.items() if b in (x, y)}, x, y)
        if (mine is None) != (ref is None) or (
            mine is not None and abs(mine - ref) > 1e-12
        ):
            mism.append(f"aei seed {seed}")
        mine = assortativity(view)
        ref = assortativity_direct(edges, groups)
        if abs(mine - ref) > 1e-12:
            mism.append(f"assortativity seed {seed}")
        for grp in present:
            mine = coleman(view, grp)
            ref = coleman_direct(edges, groups, grp)
            if (mine is None) != (ref is None) or (
                mine is not None and abs(mine - ref) > 1e-12
            ):
                mism.append(f"coleman seed {seed} group {grp}")
        frac_a, frac_b = rng.random(), rng.random()
        scale = frac_a + frac_b + rng.random()
        mine = simpson({"for": frac_a / scale, "neutral": 0.0, "against": frac_b / scale})
        ref = simpson_direct(frac_a / scale, frac_b / scale)
        if abs(mine - ref) > 1e-12:
            mism.append(f"simpson seed {seed}")
        gx = {node: rng.randrange(3) for node in g.nodes}
        gy = {node: rng.randrange(3) for node in g.nodes}
        mine = nmi_alignment(gx, gy)
        ref = nmi_direct(gx, gy)
        if abs(mine - ref) > 1e-12:
            mism.append(f"nmi seed {seed}")

    dl_misses = []
    for seed in range(20):
        rng = random.Random(1000 + seed)
        nodes = [f"n{i}" for i in range(8)]
        mult = Counter()
        for _ in range(rng.randrange(6, 16)):
            u, v = rng.sample(nodes, 2)
            mult[(u, v)] += 1
        g = TopicNetwork("t", "reposts", None, set(nodes), mult)
        exhaustive = min(description_length(g, p) for p in set_partitions(nodes, 3))
        found = detect_structural_groups_with_diagnostics(g, max_groups=3, seed=seed)[0].dl
        if abs(found - exhaustive) > 1e-9:
            dl_misses.append(f"seed {seed}: {found:.6f} vs {exhaustive:.6f}")
    elapsed = time.perf_counter() - start
    ok = not mism and not dl_misses and elapsed < 300
    criterion(5, ok,
              f"100 random graphs match direct-summation oracles at 1e-12 and "
              f"20 exhaustive-search minimizers reproduced in {elapsed:.1f}s"
              + (f"; mismatches: {mism + dl_misses}" if (mism or dl_misses) else ""))


def test_c6_planted_partition_recovery():
    start = time.perf_counter()
    recovered = 0
    for seed in range(20):
        g, labels = planted_partition_graph(200, 2, 0.1, 0.01, seed=seed)
        part = detect_structural_groups_with_diagnostics(g, seed=9000 + seed)[0]
        if nmi_direct(part.assignment, labels) >= 0.95:
            recovered += 1
    # same expected density as the planted graphs
    single_block = 0
    for seed in range(20):
        g = erdos_renyi_graph(200, 0.0548, seed=seed)
        part = detect_structural_groups_with_diagnostics(g, seed=9100 + seed)[0]
        if part.b == 1:
            single_block += 1
    elapsed = time.perf_counter() - start
    ok = recovered >= 18 and single_block >= 18 and elapsed < 600
    criterion(6, ok,
              f"planted labels recovered (NMI>=0.95) in {recovered}/20, "
              f"structureless collapsed to one block in {single_block}/20, "
              f"{elapsed:.1f}s")


def test_c7_hypergraph_correctness():
    failures = []
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randrange(4, 11)
        topics = [f"t{i}" for i in range(n)]
        values = [[0.0] * n for _ in range(n)]
        for i in range(n):
            values[i][i] = 1.0
            for j in range(i + 1, n):
                values[i][j] = values[j][i] = rng.random() * 0.5
        m = TopicMatrix(topics=topics, values=values)
        hg = topic_hypergraph(m, threshold=0.2)
        for edge in hg.hyperedges:
            for a in range(len(edge)):
                for b in range(a + 1, len(edge)):
                    if not m.get(edge[a], edge[b]) > 0.2:
                        failures.append(f"seed {seed}: non-qualifying pair in {edge}")
        qualifying = {
            frozenset((topics[i], topics[j]))
            for i in range(n)
            for j in range(i + 1, n)
            if values[i][j] > 0.2
        }
        ref = maximal_cliques_direct(topics, lambda u, v: frozenset((u, v)) in qualifying)
        if sorted(hg.hyperedges) != ref:
            failures.append(f"seed {seed}: cliques disagree with enumerator")

    # matrix consistent with the published bundles yields exactly 4
    bundles = [
        ("dei", "isrpal", "lgbtq", "musk", "trump"),
        ("dei", "isrpal", "musk", "rusukr", "trump"),
        ("canada", "dei", "fires", "isrpal", "musk", "rusukr"),
        ("canada", "dei", "fires", "tiktok"),
    ]
    topics = ["trump", "musk", "canada", "fires", "dei", "tiktok", "isrpal",
              "rusukr", "lgbtq", "ai"]
    idx = {t: i for i, t in enumerate(topics)}
    values = [[0.05] * 10 for _ in range(10)]
    for i in range(10):
        values[i][i] = 1.0
    for bundle in bundles:
        for a in range(len(bundle)):
            for b in range(a + 1, len(bundle)):
                i, j = idx[bundle[a]], idx[bundle[b]]
                values[i][j] = values[j][i] = 0.35
    fixture = topic_hypergraph(TopicMatrix(topics=topics, values=values), 0.2)
    if sorted(fixture.hyperedges) != sorted(bundles):
        failures.append(f"fixture bundles: {fixture.hyperedges}")
    criterion(7, not failures,
              "50 random matrices pass all-pairs and maximality checks; "
              "bundle fixture yields exactly 4 hyperedges"
              + (f"; failures: {failures[:3]}" if failures else ""))


def test_c8_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    lines, _ = make_event_stream(seed=7)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = fixture_config(events, tmp_path / "root")
    run_pipeline(config, run_root=tmp_path / "a")
    run_pipeline(config, run_root=tmp_path / "b")
    dir_a = run_dir_for(config, tmp_path / "a") / "report"
    dir_b = run_dir_for(config, tmp_path / "b") / "report"
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    diffs = []
    if files_a != files_b:
        diffs.append("file lists differ")
    else:
        diffs = [
            str(rel)
            for rel in files_a
            if (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes()
        ]
    elapsed = time.perf_counter() - start
    ok = len(lines) == 10_000 and not diffs and elapsed < 120
    criterion(8, ok,
              f"two full runs of the {len(lines)}-event fixture produced "
              f"byte-identical report bundles in {elapsed:.1f}s total"
              + (f"; diffs: {diffs}" if diffs else ""))


def test_c9_parse_throughput():
    lines, _ = make_event_stream(seed=3, n_events=50_000)
    start = time.perf_counter()
    for offset, line in enumerate(lines):
        parse_event(line, offset)
    elapsed = time.perf_counter() - start
    rate = len(lines) / elapsed
    criterion(9, rate >= 50_000,
              f"parse_event sustained {rate:,.0f} events/second/core "
              f"({len(lines)} events in {elapsed:.2f}s; floor 50,000)")
