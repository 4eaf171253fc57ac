"""Pipeline orchestration.

Runs the stage sequence ingest -> annotate -> graph -> groups -> metrics
-> crosstopic -> report inside a run directory keyed by the config hash.
Each stage records a manifest of input and output hashes; stages are
skipped when their manifest already matches, and refuse to run when an
upstream artifact changed behind its manifest's back.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass
from datetime import timedelta
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .annotate import (
    annotate_stances,
    annotate_themes,
    annotate_topics,
    stance_store,
    theme_store,
    topic_store,
)
from .config import STAGES, PipelineConfig, config_hash, config_to_dict, stage_seed
from .crosstopic import alignment_matrix, jaccard_matrix, joint_stance_table, topic_hypergraph
from .errors import ConfigError, HashMismatchError, PolarnetError, StageError
from .graphs import (
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
from .groups import content_groups, detect_structural_groups_with_diagnostics
from .ingest import (
    StatsAccumulator,
    build_post_records,
    filter_corpus,
    parse_stream,
    post_from_json,
    post_to_json,
    repost_from_json,
    repost_to_json,
    sample_corpus,
)
from .metrics import stance_metric_report, structural_metric_report
from .providers import provider_from_spec
from . import report as report_mod

log = logging.getLogger("polarnet")


@dataclass
class StageManifest:
    stage: str
    config_hash: str
    tool_version: str
    inputs: dict[str, str]
    outputs: dict[str, str]
    wall_time_s: float
    cached: bool = False


def file_hash(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _rel(path: Path, run_dir: Path) -> str:
    try:
        return str(path.relative_to(run_dir))
    except ValueError:
        return str(path)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run_dir_for(config: PipelineConfig, run_root: Optional[Path] = None) -> Path:
    root = Path(run_root) if run_root else Path(config.out_dir)
    return root / config_hash(config)


# --- stage implementations -------------------------------------------------
# Each returns (input paths, output paths); the runner handles hashing,
# manifests, and caching.


def _input_files(config: PipelineConfig) -> list[Path]:
    files: list[Path] = []
    for pattern in config.inputs:
        matches = sorted(glob.glob(pattern))
        if matches:
            files.extend(Path(m) for m in matches)
        elif Path(pattern).exists():
            files.append(Path(pattern))
    return files


def stage_ingest(config: PipelineConfig, run_dir: Path):
    inputs = _input_files(config)
    if not inputs:
        raise StageError("ingest", f"no input files match {config.inputs}")
    window_days = None
    if config.window:
        # config windows are [start, end); the stats window is inclusive days
        window_days = (
            config.window[0].date(),
            config.window[1].date() - timedelta(days=1),
        )
    acc = StatsAccumulator(downtime=config.downtime, window=window_days)
    events = []
    parse_errors = 0
    for path in inputs:
        errors: list = []
        with path.open(encoding="utf-8") as fh:
            for event in parse_stream(fh, errors):
                acc.add(event)
                events.append(event)
        parse_errors += len(errors)
    stats = acc.finalize()
    posts, reposts = build_post_records(events)
    del events

    stats_dir = run_dir / "stats"
    corpus_dir = run_dir / "corpus"
    stats_dir.mkdir(parents=True, exist_ok=True)
    corpus_dir.mkdir(parents=True, exist_ok=True)

    chash = config_hash(config)
    _write_json(
        stats_dir / "activity_stats.json",
        {
            "config_hash": chash,
            "observed_days": stats.observed_days,
            "window": [d.isoformat() for d in stats.window] if stats.window else None,
            "non_create_events": stats.non_create_events,
            "other_collection_events": stats.other_collection_events,
            "parse_errors": parse_errors,
            "per_type": {k: asdict(v) for k, v in stats.per_type.items()},
        },
    )
    _write_csv(
        stats_dir / "activity_daily.csv",
        ["date", "action_type", "actions", "distinct_authors"],
        [
            [day.isoformat(), kind, actions, authors]
            for (day, kind), (actions, authors) in sorted(stats.daily.items())
        ],
    )

    filtered = filter_corpus(
        sorted(posts.values(), key=lambda p: p.uri),
        min_reposts=config.filters.min_reposts,
        min_chars=config.filters.min_chars,
        lang=config.filters.lang,
    )
    with (corpus_dir / "filtered.jsonl").open("w", encoding="utf-8") as fh:
        for p in filtered:
            fh.write(post_to_json(p) + "\n")
    with (corpus_dir / "reposts.jsonl").open("w", encoding="utf-8") as fh:
        for r in sorted(reposts, key=lambda r: (r.timestamp, r.reposter, r.subject_uri)):
            fh.write(repost_to_json(r) + "\n")

    outputs = [
        stats_dir / "activity_stats.json",
        stats_dir / "activity_daily.csv",
        corpus_dir / "filtered.jsonl",
        corpus_dir / "reposts.jsonl",
    ]
    if config.sample.fraction < 1.0:
        sampled = sample_corpus(
            filtered,
            fraction=config.sample.fraction,
            seed=stage_seed(config.seed, "ingest.sample"),
            stratify_by_day=config.sample.stratify_by_day,
        )
        with (corpus_dir / "sampled.jsonl").open("w", encoding="utf-8") as fh:
            for p in sampled:
                fh.write(post_to_json(p) + "\n")
        outputs.append(corpus_dir / "sampled.jsonl")
    return inputs, outputs


def _load_posts(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [post_from_json(line) for line in fh if line.strip()]


def _load_reposts(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [repost_from_json(line) for line in fh if line.strip()]


def stage_annotate(config: PipelineConfig, run_dir: Path):
    corpus_name = "sampled.jsonl" if config.annotate_on == "sampled" else "filtered.jsonl"
    corpus_path = run_dir / "corpus" / corpus_name
    reposts_path = run_dir / "corpus" / "reposts.jsonl"
    posts = _load_posts(corpus_path)
    reposts = _load_reposts(reposts_path)
    provider = provider_from_spec(config.provider.spec_string(), config.provider.token())

    labels_dir = run_dir / "labels"
    labels_dir.mkdir(parents=True, exist_ok=True)
    themes_path = labels_dir / "themes.jsonl"
    topics_path = labels_dir / "topics.jsonl"
    for stale in (themes_path, topics_path):
        stale.unlink(missing_ok=True)

    themes = theme_store(themes_path)
    annotate_themes(posts, provider, themes)
    theme_map = themes.mapping()

    topics = topic_store(topics_path, config.topics)
    annotate_topics(posts, theme_map, provider, topics, config.topics)
    topic_map = topics.mapping()

    by_uri = {p.uri: p for p in posts}
    outputs = [themes_path, topics_path]
    for spec in config.topics:
        # participants: authored or reposted a post labeled with this topic
        corpora: dict[str, list] = {}
        for uri, label in topic_map.items():
            if label != spec.id:
                continue
            post = by_uri.get(uri)
            if post is None:
                continue
            corpora.setdefault(post.author, []).append(post)
        for r in reposts:
            label = topic_map.get(r.subject_uri)
            if label != spec.id:
                continue
            post = by_uri.get(r.subject_uri)
            if post is None:
                continue
            corpora.setdefault(r.reposter, []).append(post)
        stance_path = labels_dir / f"stances_{spec.id}.jsonl"
        stance_path.unlink(missing_ok=True)
        stance_path.touch()  # topics with no participants still get a store file
        store = stance_store(stance_path)
        annotate_stances(
            corpora,
            spec,
            provider,
            store,
            k=config.stance_sample_k,
            seed=stage_seed(config.seed, f"annotate.stances.{spec.id}"),
        )
        outputs.append(stance_path)
    return [corpus_path, reposts_path], outputs


def stage_graph(config: PipelineConfig, run_dir: Path):
    corpus_path = run_dir / "corpus" / "filtered.jsonl"
    reposts_path = run_dir / "corpus" / "reposts.jsonl"
    topics_path = run_dir / "labels" / "topics.jsonl"
    posts = {p.uri: p for p in _load_posts(corpus_path)}
    reposts = _load_reposts(reposts_path)
    topic_map = topic_store(topics_path, config.topics).mapping()

    graphs_dir = run_dir / "graphs"
    graphs_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    stats_payload = {}
    wdir = window_dirname(config.window)
    for spec in config.topics:
        b = build_bipartite(posts, reposts, topic_map, spec.id, config.window)
        g = project_reposts(b)
        stats = network_stats(g)
        stats_payload[spec.id] = {
            "nodes": stats.nodes,
            "edges": stats.edges,
            "average_degree": stats.average_degree,
            "dangling_references": b.dangling_references,
            "suppressed_self_reposts": g.suppressed_self_edges,
        }
        if stats.edges == 0:
            continue
        topic_dir = graphs_dir / spec.id / wdir
        topic_dir.mkdir(parents=True, exist_ok=True)
        ordered = write_nodes_tsv(g.nodes, topic_dir / "nodes.tsv")
        index = {n: i for i, n in enumerate(ordered)}
        save_graph(g, topic_dir / "reposts.graph", index)
        export_csv(g, topic_dir / "reposts.csv")
        outputs += [topic_dir / "nodes.tsv", topic_dir / "reposts.graph",
                    topic_dir / "reposts.csv"]
    stats_path = graphs_dir / "stats.json"
    _write_json(stats_path, {"config_hash": config_hash(config), "topics": stats_payload})
    outputs.append(stats_path)
    return [corpus_path, reposts_path, topics_path], outputs


def _graph_topics(config: PipelineConfig, run_dir: Path) -> list[str]:
    """Topics that produced a non-empty repost network."""
    stats_path = run_dir / "graphs" / "stats.json"
    payload = json.loads(stats_path.read_text(encoding="utf-8"))
    return [t for t, s in payload["topics"].items() if s["edges"] > 0]


def _load_topic_graph(config: PipelineConfig, run_dir: Path, topic_id: str):
    topic_dir = run_dir / "graphs" / topic_id / window_dirname(config.window)
    nodes = read_nodes_tsv(topic_dir / "nodes.tsv")
    return load_graph(topic_dir / "reposts.graph", nodes, topic_id, "reposts", config.window)


def stage_groups(config: PipelineConfig, run_dir: Path):
    inputs = [run_dir / "graphs" / "stats.json"]
    outputs = []
    groups_dir = run_dir / "groups"
    for topic_id in _graph_topics(config, run_dir):
        g = _load_topic_graph(config, run_dir, topic_id)
        topic_dir = run_dir / "graphs" / topic_id / window_dirname(config.window)
        inputs += [topic_dir / "reposts.graph", topic_dir / "nodes.tsv"]
        seed = stage_seed(config.seed, f"groups.{topic_id}")
        partition, runs = detect_structural_groups_with_diagnostics(
            g,
            max_groups=config.detection.max_groups,
            runs=config.detection.runs,
            iters=config.detection.iters,
            seed=seed,
            collapse_multigraph=config.detection.collapse_multigraph,
        )
        out_dir = groups_dir / topic_id
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "partition.tsv").open("w", encoding="utf-8") as fh:
            for node in sorted(partition.assignment):
                fh.write(f"{node}\t{partition.assignment[node]}\n")
        _write_json(
            out_dir / "partition.json",
            {
                "config_hash": config_hash(config),
                "topic": topic_id,
                "dl": partition.dl,
                "b": partition.b,
                "seed": seed,
                "params": vars(config.detection),
                "runs": [
                    {"seed": r.seed, "sweeps": r.sweeps, "dl": r.dl,
                     "trajectory": r.trajectory}
                    for r in runs
                ],
            },
        )
        stance_path = run_dir / "labels" / f"stances_{topic_id}.jsonl"
        inputs.append(stance_path)
        stances = {
            user: label
            for (user, _topic), label in stance_store(stance_path).mapping().items()
        }
        grouping = content_groups(stances, g)
        with (out_dir / "content.tsv").open("w", encoding="utf-8") as fh:
            for node in sorted(grouping.assignment):
                fh.write(f"{node}\t{grouping.assignment[node]}\n")
        _write_json(
            out_dir / "content.json",
            {
                "config_hash": config_hash(config),
                "topic": topic_id,
                "coverage": grouping.coverage,
                "unlabeled": len(grouping.unlabeled),
            },
        )
        outputs += [
            out_dir / "partition.tsv", out_dir / "partition.json",
            out_dir / "content.tsv", out_dir / "content.json",
        ]
    return inputs, outputs


def _load_partition(run_dir: Path, topic_id: str):
    from .groups import Partition

    meta = json.loads((run_dir / "groups" / topic_id / "partition.json").read_text())
    assignment = {}
    with (run_dir / "groups" / topic_id / "partition.tsv").open(encoding="utf-8") as fh:
        for line in fh:
            node, block = line.rstrip("\n").split("\t")
            assignment[node] = int(block)
    return Partition(assignment=assignment, b=meta["b"], dl=meta["dl"])


def _load_stances(run_dir: Path, topic_id: str) -> dict:
    path = run_dir / "labels" / f"stances_{topic_id}.jsonl"
    return {
        user: label
        for (user, _t), label in stance_store(path).mapping().items()
    }


def stage_metrics(config: PipelineConfig, run_dir: Path):
    inputs = [run_dir / "graphs" / "stats.json"]
    metrics_dir = run_dir / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    stance_rows = []
    structural_rows = []
    outputs = []
    for topic_id in _graph_topics(config, run_dir):
        spec = config.topic_by_id(topic_id)
        g = _load_topic_graph(config, run_dir, topic_id)
        partition = _load_partition(run_dir, topic_id)
        stances = _load_stances(run_dir, topic_id)
        grouping = content_groups(stances, g)
        inputs += [
            run_dir / "groups" / topic_id / "partition.tsv",
            run_dir / "labels" / f"stances_{topic_id}.jsonl",
        ]
        s_report = stance_metric_report(
            g, grouping, spec,
            include_neutral=config.metrics.include_neutral,
            simpson_include_neutral=config.metrics.simpson_include_neutral,
        )
        stance_rows.append(s_report)
        t_report = structural_metric_report(g, partition, grouping)
        structural_rows.append(t_report)
        pw_path = metrics_dir / f"pairwise_aei_{topic_id}.csv"
        labels = t_report.pairwise.labels
        _write_csv(
            pw_path,
            ["group"] + [report_mod.block_letter(b) for b in labels],
            [
                [report_mod.block_letter(r)]
                + [report_mod.fmt_index(t_report.pairwise.get(r, s)) for s in labels]
                for r in labels
            ],
        )
        outputs.append(pw_path)

    _write_json(
        metrics_dir / "stance_report.json",
        {
            "config_hash": config_hash(config),
            "rows": [asdict(r) for r in stance_rows],
        },
    )
    _write_csv(
        metrics_dir / "stance_report.csv",
        report_mod.TABLE4_HEADER,
        [report_mod.table4_row(r) for r in stance_rows],
    )
    _write_json(
        metrics_dir / "structural_report.json",
        {
            "config_hash": config_hash(config),
            "rows": [
                {
                    "topic": r.topic,
                    "mean_aei": r.mean_aei,
                    "max_aei": r.max_aei,
                    "min_aei": r.min_aei,
                    "n_groups": r.n_groups,
                    "max_ds": r.max_ds,
                    "min_ds": r.min_ds,
                }
                for r in structural_rows
            ],
        },
    )
    _write_csv(
        metrics_dir / "structural_report.csv",
        report_mod.TABLE5_HEADER,
        [report_mod.table5_row(r) for r in structural_rows],
    )
    outputs += [
        metrics_dir / "stance_report.json", metrics_dir / "stance_report.csv",
        metrics_dir / "structural_report.json", metrics_dir / "structural_report.csv",
    ]
    return inputs, outputs


def stage_crosstopic(config: PipelineConfig, run_dir: Path):
    topics = _graph_topics(config, run_dir)
    cross_dir = run_dir / "crosstopic"
    cross_dir.mkdir(parents=True, exist_ok=True)
    inputs = [run_dir / "graphs" / "stats.json"]
    outputs = []
    if len(topics) < 2:
        _write_json(cross_dir / "skipped.json",
                    {"reason": f"need at least 2 topic networks, have {len(topics)}"})
        return inputs, [cross_dir / "skipped.json"]

    networks = []
    stance_groupings = {}
    structural_groupings = {}
    for topic_id in topics:
        g = _load_topic_graph(config, run_dir, topic_id)
        networks.append(g)
        stances = _load_stances(run_dir, topic_id)
        stance_groupings[topic_id] = {u: s for u, s in stances.items() if u in g.nodes}
        structural_groupings[topic_id] = _load_partition(run_dir, topic_id).assignment
        inputs += [
            run_dir / "groups" / topic_id / "partition.tsv",
            run_dir / "labels" / f"stances_{topic_id}.jsonl",
        ]

    overlap = jaccard_matrix(networks)
    _write_csv(
        cross_dir / "overlap.csv",
        ["topic"] + overlap.topics,
        [
            [overlap.topics[i]] + [report_mod.fmt_matrix(v) for v in overlap.values[i]]
            for i in range(len(overlap.topics))
        ],
    )
    hg = topic_hypergraph(
        overlap,
        threshold=config.metrics.hypergraph_threshold,
        inclusive=config.metrics.hypergraph_inclusive,
    )
    _write_json(
        cross_dir / "hyperedges.json",
        {
            "config_hash": config_hash(config),
            "threshold": hg.threshold,
            "inclusive": hg.inclusive,
            "hyperedges": [list(e) for e in hg.hyperedges],
        },
    )
    outputs += [cross_dir / "overlap.csv", cross_dir / "hyperedges.json"]

    for source, groupings in (
        ("content", stance_groupings), ("structural", structural_groupings)
    ):
        m = alignment_matrix(groupings, source, config.metrics.nmi_normalization)
        path = cross_dir / f"alignment_{source}.csv"
        _write_csv(
            path,
            ["topic"] + m.topics,
            [
                [m.topics[i]] + [report_mod.fmt_matrix(v) for v in m.values[i]]
                for i in range(len(m.topics))
            ],
        )
        outputs.append(path)

    for i in range(len(topics)):
        for j in range(i + 1, len(topics)):
            x, y = topics[i], topics[j]
            table = joint_stance_table(stance_groupings[x], stance_groupings[y], x, y)
            path = cross_dir / f"joint_{x}__{y}.csv"
            if table is None:
                _write_csv(path, ["note"], [["no shared classified users"]])
            else:
                _write_csv(
                    path,
                    [f"{x} \\ {y}"] + list(table.order),
                    [
                        [table.order[r]] + [f"{v:.6f}" for v in table.values[r]]
                        for r in range(3)
                    ],
                )
            outputs.append(path)
    return inputs, outputs


def stage_report(config: PipelineConfig, run_dir: Path):
    return report_mod.render_report(config, run_dir)


_STAGE_FNS: dict[str, Callable] = {
    "ingest": stage_ingest,
    "annotate": stage_annotate,
    "graph": stage_graph,
    "groups": stage_groups,
    "metrics": stage_metrics,
    "crosstopic": stage_crosstopic,
    "report": stage_report,
}

# artifact that must exist before a stage can run -> stage that makes it
_STAGE_PREREQS: dict[str, list[tuple[str, str]]] = {
    "annotate": [("corpus/filtered.jsonl", "ingest"), ("corpus/reposts.jsonl", "ingest")],
    "graph": [
        ("corpus/filtered.jsonl", "ingest"),
        ("corpus/reposts.jsonl", "ingest"),
        ("labels/topics.jsonl", "annotate"),
    ],
    "groups": [("graphs/stats.json", "graph"), ("labels/topics.jsonl", "annotate")],
    "metrics": [("graphs/stats.json", "graph"), ("groups", "groups")],
    "crosstopic": [("graphs/stats.json", "graph"), ("groups", "groups")],
    "report": [("stats/activity_stats.json", "ingest")],
}


def _manifest_path(run_dir: Path, stage: str) -> Path:
    return run_dir / "manifests" / f"{stage}.json"


def _load_manifest(run_dir: Path, stage: str) -> Optional[StageManifest]:
    path = _manifest_path(run_dir, stage)
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return StageManifest(**data)


def _check_prereqs(stage: str, run_dir: Path) -> None:
    for artifact, producer in _STAGE_PREREQS.get(stage, []):
        if not (run_dir / artifact).exists():
            raise StageError(
                stage,
                f"missing upstream artifact {artifact!r}; run stage '{producer}' first",
            )


def _check_upstream_hashes(stage: str, run_dir: Path) -> None:
    """Artifacts recorded by earlier stages must still match their manifests."""
    mismatches = []
    for earlier in STAGES:
        if earlier == stage:
            break
        manifest = _load_manifest(run_dir, earlier)
        if manifest is None:
            continue
        for rel, recorded in manifest.outputs.items():
            path = Path(rel) if Path(rel).is_absolute() else run_dir / rel
            if path.exists():
                current = file_hash(path)
                if current != recorded:
                    mismatches.append(
                        f"{rel}: manifest {recorded[:12]} != on-disk {current[:12]}"
                    )
    if mismatches:
        raise HashMismatchError(stage, mismatches)


def _is_cached(stage: str, run_dir: Path, chash: str) -> bool:
    manifest = _load_manifest(run_dir, stage)
    if manifest is None or manifest.config_hash != chash:
        return False
    for rel, recorded in {**manifest.inputs, **manifest.outputs}.items():
        path = run_dir / rel if not Path(rel).is_absolute() else Path(rel)
        if not path.exists() or file_hash(path) != recorded:
            return False
    return True


def run_pipeline(
    config: PipelineConfig,
    stages: Optional[list[str]] = None,
    run_root: Optional[Path] = None,
) -> list[StageManifest]:
    """Execute the requested stages in pipeline order.

    Stages whose manifests still match their inputs and outputs are
    skipped as cached. A requested stage whose upstream artifacts are
    missing fails fast, naming the stage that must run first.
    """
    selected = list(STAGES) if stages is None else [s for s in STAGES if s in stages]
    if stages is not None:
        unknown = set(stages) - set(STAGES)
        if unknown:
            raise StageError(sorted(unknown)[0], "unknown stage")
    run_dir = run_dir_for(config, run_root)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifests").mkdir(exist_ok=True)
    chash = config_hash(config)
    _write_json(run_dir / "config.json", config_to_dict(config))

    manifests = []
    for stage in selected:
        _check_prereqs(stage, run_dir)
        if _is_cached(stage, run_dir, chash):
            manifest = _load_manifest(run_dir, stage)
            manifest.cached = True
            log.info("stage %s: cached", stage)
            manifests.append(manifest)
            continue
        _check_upstream_hashes(stage, run_dir)
        started = time.perf_counter()
        try:
            inputs, outputs = _STAGE_FNS[stage](config, run_dir)
        except (StageError, ConfigError):
            # a configuration error keeps its own type (and CLI exit code)
            raise
        except (OSError, KeyError, ValueError, PolarnetError) as exc:
            raise StageError(stage, f"{type(exc).__name__}: {exc}") from exc
        manifest = StageManifest(
            stage=stage,
            config_hash=chash,
            tool_version=__version__,
            inputs={_rel(p, run_dir): file_hash(p) for p in inputs if p.exists()},
            outputs={_rel(p, run_dir): file_hash(p) for p in outputs},
            wall_time_s=round(time.perf_counter() - started, 6),
        )
        _write_json(_manifest_path(run_dir, stage), asdict(manifest))
        log.info("stage %s: done in %.2fs", stage, manifest.wall_time_s)
        manifests.append(manifest)
    return manifests
