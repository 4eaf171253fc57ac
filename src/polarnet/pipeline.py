"""Pipeline orchestration.

Runs the stage sequence ingest -> annotate -> graph -> groups -> metrics
-> crosstopic -> report inside a run directory named by the config hash.
Only the runner knows what a stage reads (``_STAGE_READS``): ingest
reads the files that the config's input globs match now, and every later
stage reads only the config fields and the output paths of earlier
stages that it declares. A stage's manifest records the hashes of those
inputs and of its own outputs, and the stage's key: the hash of the
config fields it reads, the tool version and its input hashes. A stage
is current when its manifest has the current key and its outputs verify;
its outputs are hashed only when the key matches. One rule decides every
stage a call touches, the requested ones and those upstream of them, in
pipeline order, each manifest loaded once. A current stage is cached. On
a miss a requested stage takes the outputs of the first sibling run
directory under the same root whose manifest for the stage has that key
and whose linked outputs verify, as hard links (a constructive trace, in
the terms of Mokhov, Mitchell & Peyton Jones, "Build systems a la carte",
ICFP 2018); only without one does the stage run. Linked outputs are
shared, never written through: every writer removes its path and creates
a new file (``files.open_new``). A stage that was not requested is never
run, linked or cleaned: when it is not current, the requested stage that
reads it refuses to run. ``run_pipeline`` is the only way a stage runs:
every ``polarnet`` command that produces a stage output goes through it.

A dump is hashed again only when its stat signature differs from the one
ingest's manifest recorded with its hash (``_dump_hashes``), so a cached
rerun reads the dumps' metadata, not their bytes. A new run directory takes
a dump's hash from a sibling's ingest manifest that recorded exactly its
current signature, so a metrics-only reanalysis does not hash the dumps
either. As in git's racy-clean rule, a dump modified too close to the
moment it was hashed gets no signature and is hashed on every run.
"""

from __future__ import annotations

import fnmatch
import glob
import hashlib
import json
import logging
import os
import stat
import time
from contextlib import closing
from dataclasses import asdict, dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from . import __version__
from .annotate import (
    annotate_stances,
    annotate_themes,
    annotate_topics,
    stance_store,
    theme_store,
    topic_store,
)
from .config import (
    STAGES,
    DetectionConfig,
    PipelineConfig,
    config_hash,
    config_to_dict,
    semantic_fields,
    stage_seed,
)
from .crosstopic import alignment_matrix, jaccard_matrix, joint_stance_table, topic_hypergraph
from .errors import INPUT_ERRORS, ConfigError, HashMismatchError, PolarnetError, StageError
from .files import open_new
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
from .groups import (
    Partition,
    content_groups,
    description_length,
    detect_structural_groups_with_diagnostics,
)
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
from .report import write_csv, write_json

log = logging.getLogger("polarnet")


@dataclass
class StageManifest:
    stage: str
    key: Optional[str]
    tool_version: str
    inputs: dict[str, str]
    outputs: dict[str, str]
    wall_time_s: float
    cached: bool = False
    # ingest's only: each dump's stat signature from just before its hash
    # was taken (``_dump_hashes``); no key or comparison reads it
    signatures: dict[str, list[int]] = field(default_factory=dict)


def file_hash(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_dir_for(config: PipelineConfig, run_root: Optional[Path] = None) -> Path:
    root = Path(run_root) if run_root else Path(config.out_dir)
    return root / config_hash(config)


# --- stage building blocks -------------------------------------------------
# Path-level helpers the stages below call, so each artifact has one reader
# and one writer.


def input_files(patterns: list[str]) -> list[Path]:
    files: list[Path] = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        if matches:
            files.extend(Path(m) for m in matches)
        elif Path(pattern).exists():
            files.append(Path(pattern))
    if not files:
        raise StageError("ingest", f"no input files match {patterns}")
    return files


# A dump whose mtime or ctime is this close to the clock when it is stat'ed
# may still change within the same timestamp tick (1 s on ext3 and HFS+, 2 s
# on FAT) and keep its signature, so its signature is not recorded.
RACY_NS = 2_000_000_000
_now_ns = time.time_ns  # the clock the racy rule reads


def _signature(st: os.stat_result) -> list[int]:
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _signed_hash(manifests: list[StageManifest], signature: list[int]) -> Optional[str]:
    """The hash that one of the ingest ``manifests`` records with exactly
    ``signature``, or None."""
    for manifest in manifests:
        for name, recorded in manifest.signatures.items():
            if recorded == signature and name in manifest.inputs:
                return manifest.inputs[name]
    return None


def _dump_hashes(
    paths: list[Path], recorded: Optional[StageManifest], run_dir: Path
) -> tuple[dict[str, str], dict[str, list[int]]]:
    """Each dump's content hash, and the stat signatures to record with them.

    ``recorded`` is ingest's manifest in ``run_dir``, or None. A dump keeps
    the hash it records while one ``os.stat`` still gives exactly the
    signature recorded with that hash. A dump it does not vouch for takes
    the hash a sibling run directory's ingest manifest records with exactly
    that signature; the signature holds the device and inode, so both name
    one file. The siblings' manifests are read only for such a dump. Any
    other dump is hashed. A signature is recorded only for a dump whose
    later of mtime and ctime is more than ``RACY_NS`` before the clock read
    ahead of the stat, so any later edit moves its ctime, which no user can
    set back.
    """
    racy_after = _now_ns() - RACY_NS
    hashes: dict[str, str] = {}
    signatures: dict[str, list[int]] = {}
    siblings: Optional[list[StageManifest]] = None
    for path in paths:
        try:
            st = path.stat()
        except OSError as exc:
            raise StageError("ingest", f"input {path} cannot be read: {exc.strerror}") from exc
        if not stat.S_ISREG(st.st_mode):
            raise StageError("ingest", f"input {path} is not a regular file")
        name, signature = str(path), _signature(st)
        if (recorded is not None and name in recorded.inputs
                and recorded.signatures.get(name) == signature):
            digest = recorded.inputs[name]
        else:
            if siblings is None:
                siblings = [m for _, m in _sibling_manifests(run_dir, "ingest")]
            digest = _signed_hash(siblings, signature)
        hashes[name] = digest or file_hash(path)
        if max(st.st_mtime_ns, st.st_ctime_ns) < racy_after:
            signatures[name] = signature
    return hashes, signatures


def read_events(paths: list[Path], window=None, downtime=None):
    """Parse event dumps into (activity stats, parse-error count, posts, reposts).

    One streaming pass: each dump is opened in turn, and every event it
    yields feeds the activity stats and then ``build_post_records`` as it is
    parsed. No event list is kept, so memory grows with the posts and
    reposts, not with the likes, follows and other filler lines. Every
    dump is closed, also when a later line raises.

    ``window`` is a config window, [start, end); the stats window is the
    inclusive days it covers.
    """
    window_days = None
    if window:
        window_days = (window[0].date(), window[1].date() - timedelta(days=1))
    acc = StatsAccumulator(downtime=downtime, window=window_days)
    parse_errors = 0

    def events():
        nonlocal parse_errors
        for path in paths:
            errors: list = []  # offsets restart in each dump
            with path.open(encoding="utf-8") as fh:
                for event in parse_stream(fh, errors):
                    acc.add(event)
                    yield event
            parse_errors += len(errors)

    with closing(events()) as stream:
        posts, reposts = build_post_records(stream)
    return acc.finalize(), parse_errors, posts, reposts


def write_activity_stats(path: Path, stats, parse_errors: int) -> None:
    write_json(
        path,
        {
            "observed_days": stats.observed_days,
            "window": [d.isoformat() for d in stats.window] if stats.window else None,
            "non_create_events": stats.non_create_events,
            "other_collection_events": stats.other_collection_events,
            "parse_errors": parse_errors,
            "per_type": {k: asdict(v) for k, v in stats.per_type.items()},
        },
    )


def write_posts(path: Path, posts) -> None:
    with open_new(path, encoding="utf-8") as fh:
        for p in posts:
            fh.write(post_to_json(p) + "\n")


def load_posts(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [post_from_json(line) for line in fh if line.strip()]


def write_reposts(path: Path, reposts) -> None:
    with open_new(path, encoding="utf-8") as fh:
        for r in sorted(reposts, key=lambda r: (r.timestamp, r.reposter, r.subject_uri)):
            fh.write(repost_to_json(r) + "\n")


def load_reposts(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [repost_from_json(line) for line in fh if line.strip()]


def annotate_topic_stances(spec, by_uri: dict, reposts: list, topic_map: dict, provider,
                           labels_dir: Path, k: int, master_seed: int):
    """Label one topic's participants into a fresh ``stances_<id>.jsonl``.

    Participants authored or reposted a post labeled with the topic.
    Returns the store path and the ``AnnotationOutcome``.
    """
    corpora: dict[str, list] = {}
    for uri, label in topic_map.items():
        if label == spec.id and uri in by_uri:
            corpora.setdefault(by_uri[uri].author, []).append(by_uri[uri])
    for r in reposts:
        if topic_map.get(r.subject_uri) == spec.id and r.subject_uri in by_uri:
            corpora.setdefault(r.reposter, []).append(by_uri[r.subject_uri])
    path = labels_dir / f"stances_{spec.id}.jsonl"
    outcome = annotate_stances(
        corpora, spec, provider, stance_store(path),
        k=k, seed=stage_seed(master_seed, f"annotate.stances.{spec.id}"),
    )
    return path, outcome


def load_stances(path: Path) -> dict:
    return {user: label for (user, _t), label in stance_store(path).mapping().items()}


def write_topic_graph(posts: dict, reposts: list, topic_map: dict, topic_id: str, window,
                      graphs_dir: Path):
    """Build one topic's repost network and write it if it has edges.

    Returns its ``graphs/stats.json`` row and the files written.
    """
    b = build_bipartite(posts, reposts, topic_map, topic_id, window)
    g = project_reposts(b)
    stats = network_stats(g)
    row = {
        "nodes": stats.nodes,
        "edges": stats.edges,
        "average_degree": stats.average_degree,
        "dangling_references": b.dangling_references,
        "suppressed_self_reposts": g.suppressed_self_edges,
    }
    if stats.edges == 0:
        return row, []
    topic_dir = graphs_dir / topic_id / window_dirname(window)
    ordered = write_nodes_tsv(g.nodes, topic_dir / "nodes.tsv")
    save_graph(g, topic_dir / "reposts.graph", {n: i for i, n in enumerate(ordered)})
    export_csv(g, topic_dir / "reposts.csv")
    return row, [topic_dir / "nodes.tsv", topic_dir / "reposts.graph", topic_dir / "reposts.csv"]


def load_topic_graph(topic_dir: Path, topic_id: str, window=None):
    nodes = read_nodes_tsv(topic_dir / "nodes.tsv")
    return load_graph(topic_dir / "reposts.graph", nodes, topic_id, "reposts", window)


def _write_assignment(path: Path, assignment: dict) -> None:
    with open_new(path, encoding="utf-8") as fh:
        for node in sorted(assignment):
            fh.write(f"{node}\t{assignment[node]}\n")


def read_assignment(path: Path, value=str) -> dict:
    """Read a ``partition.tsv`` (``value=int``) or ``content.tsv`` file."""
    assignment = {}
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            node, label = line.rstrip("\n").split("\t")
            assignment[node] = value(label)
    return assignment


def write_structural_groups(g, detection: DetectionConfig, master_seed: int,
                            out_dir: Path) -> list[Path]:
    """Detect one topic's structural groups; write and return ``partition.tsv``/``.json``.

    The detection seed is derived from ``master_seed`` and the topic id.
    ``dl_one_block`` is the DL of putting every node in one block;
    ``dl_one_block - dl`` is the evidence for structure, in nats.
    """
    seed = stage_seed(master_seed, f"groups.{g.topic}")
    partition, runs = detect_structural_groups_with_diagnostics(
        g,
        max_groups=detection.max_groups,
        runs=detection.runs,
        iters=detection.iters,
        seed=seed,
        collapse_multigraph=detection.collapse_multigraph,
    )
    # detection keeps its (partition, runs) return, which the benchmark's
    # kernel and tracing wrappers unpack, so the one-block DL is computed here
    one_block = description_length(g, dict.fromkeys(g.nodes, 0), detection.collapse_multigraph)
    _write_assignment(out_dir / "partition.tsv", partition.assignment)
    write_json(
        out_dir / "partition.json",
        {
            "topic": g.topic,
            "dl": partition.dl,
            "dl_one_block": one_block,
            "b": partition.b,
            "seed": seed,
            "params": vars(detection),
            "runs": [
                {"seed": r.seed, "sweeps": r.sweeps, "dl": r.dl,
                 "trajectory": r.trajectory}
                for r in runs
            ],
        },
    )
    return [out_dir / "partition.tsv", out_dir / "partition.json"]


def load_partition(group_dir: Path) -> Partition:
    meta = json.loads((group_dir / "partition.json").read_text(encoding="utf-8"))
    assignment = read_assignment(group_dir / "partition.tsv", int)
    return Partition(assignment=assignment, b=meta["b"], dl=meta["dl"])


def write_content_groups(g, stances: dict, out_dir: Path) -> list[Path]:
    _write_assignment(out_dir / "content.tsv", content_groups(stances, g))
    return [out_dir / "content.tsv"]


# --- stage implementations -------------------------------------------------
# Each takes the config, the run directory and its verified inputs (ingest
# reads the dump paths, report the hashes) and returns the paths it wrote;
# the runner does the rest.


def stage_ingest(config: PipelineConfig, run_dir: Path, inputs: dict):
    dumps = [Path(p) for p in inputs]  # the dumps the key hashed, in glob order
    stats, parse_errors, posts, reposts = read_events(dumps, config.window, config.downtime)
    corpus_dir = run_dir / "corpus"
    stats_path = run_dir / "stats" / "activity_stats.json"
    write_activity_stats(stats_path, stats, parse_errors)
    filters, sample = config.filters, config.sample
    filtered = filter_corpus(sorted(posts.values(), key=lambda p: p.uri),
                             min_reposts=filters.min_reposts, min_chars=filters.min_chars,
                             lang=filters.lang)
    write_posts(corpus_dir / "filtered.jsonl", filtered)
    write_reposts(corpus_dir / "reposts.jsonl", reposts)
    outputs = [stats_path, corpus_dir / "filtered.jsonl", corpus_dir / "reposts.jsonl"]
    if sample.fraction < 1.0:
        sampled = sample_corpus(filtered, fraction=sample.fraction,
                                seed=stage_seed(config.seed, "ingest.sample"),
                                stratify_by_day=sample.stratify_by_day)
        write_posts(corpus_dir / "sampled.jsonl", sampled)
        outputs.append(corpus_dir / "sampled.jsonl")
    return outputs


def annotated_corpus(config: PipelineConfig) -> str:
    """The corpus that annotation labels, relative to the run directory."""
    return f"corpus/{config.annotate_on}.jsonl"


def stage_annotate(config: PipelineConfig, run_dir: Path, inputs: dict):
    posts = load_posts(run_dir / annotated_corpus(config))
    reposts = load_reposts(run_dir / "corpus" / "reposts.jsonl")
    provider = provider_from_spec(config.provider.spec_string())

    labels_dir = run_dir / "labels"
    themes = theme_store(labels_dir / "themes.jsonl")
    topics = topic_store(labels_dir / "topics.jsonl", config.topics)
    skipped = {"theme": annotate_themes(posts, provider, themes).skipped}
    skipped["topic"] = annotate_topics(posts, themes.mapping(), provider, topics,
                                       config.topics).skipped
    topic_map = topics.mapping()

    by_uri = {p.uri: p for p in posts}
    outputs = [themes.path, topics.path]
    skipped["stance"] = []
    for spec in config.topics:
        path, outcome = annotate_topic_stances(spec, by_uri, reposts, topic_map, provider,
                                               labels_dir, config.stance_sample_k, config.seed)
        outputs.append(path)
        skipped["stance"] += outcome.skipped
    for kind, items in skipped.items():
        if items:
            log.warning("stage annotate: skipped %d %s item(s); first %s: %s",
                        len(items), kind, *items[0])
    return outputs


def stage_graph(config: PipelineConfig, run_dir: Path, inputs: dict):
    posts = {p.uri: p for p in load_posts(run_dir / "corpus" / "filtered.jsonl")}
    reposts = load_reposts(run_dir / "corpus" / "reposts.jsonl")
    topic_map = topic_store(run_dir / "labels" / "topics.jsonl", config.topics).mapping()

    graphs_dir = run_dir / "graphs"
    outputs = []
    stats_payload = {}
    for spec in config.topics:
        stats_payload[spec.id], written = write_topic_graph(
            posts, reposts, topic_map, spec.id, config.window, graphs_dir
        )
        outputs += written
    stats_path = graphs_dir / "stats.json"
    write_json(stats_path, {"topics": stats_payload})
    outputs.append(stats_path)
    return outputs


def _graph_topics(run_dir: Path) -> list[str]:
    """Topics that produced a non-empty repost network."""
    stats_path = run_dir / "graphs" / "stats.json"
    payload = json.loads(stats_path.read_text(encoding="utf-8"))
    return [t for t, s in payload["topics"].items() if s["edges"] > 0]


def _topic_paths(config: PipelineConfig, run_dir: Path, topic_id: str):
    """A topic's graph directory, groups directory and stance store."""
    return (
        run_dir / "graphs" / topic_id / window_dirname(config.window),
        run_dir / "groups" / topic_id,
        run_dir / "labels" / f"stances_{topic_id}.jsonl",
    )


def _load_topic_results(config: PipelineConfig, run_dir: Path, topic_id: str):
    """A topic's network, partition and content groups (its nodes' stances)."""
    graph_dir, group_dir, _ = _topic_paths(config, run_dir, topic_id)
    g = load_topic_graph(graph_dir, topic_id, config.window)
    return g, load_partition(group_dir), read_assignment(group_dir / "content.tsv")


def _write_matrix(path: Path, m) -> None:
    write_csv(
        path,
        ["topic"] + m.topics,
        [[t] + [report_mod.fmt_matrix(v) for v in row] for t, row in zip(m.topics, m.values)],
    )


def stage_groups(config: PipelineConfig, run_dir: Path, inputs: dict):
    outputs = []
    for topic_id in _graph_topics(run_dir):
        graph_dir, group_dir, stance_path = _topic_paths(config, run_dir, topic_id)
        g = load_topic_graph(graph_dir, topic_id, config.window)
        outputs += write_structural_groups(g, config.detection, config.seed, group_dir)
        outputs += write_content_groups(g, load_stances(stance_path), group_dir)
    return outputs


def stage_metrics(config: PipelineConfig, run_dir: Path, inputs: dict):
    """Write each grouping's scoreboard rows at full precision; report
    formats them into tables 4 and 5."""
    stance_rows = []
    structural_rows = []
    for topic_id in _graph_topics(run_dir):
        spec = config.topic_by_id(topic_id)
        g, partition, content = _load_topic_results(config, run_dir, topic_id)
        s_report = stance_metric_report(
            g, content, spec,
            include_neutral=config.metrics.include_neutral,
            simpson_include_neutral=config.metrics.simpson_include_neutral,
        )
        stance_rows.append(asdict(s_report))
        t_report = structural_metric_report(g, partition, content)
        structural_rows.append(asdict(t_report))

    metrics_dir = run_dir / "metrics"
    outputs = [metrics_dir / "stance_report.json", metrics_dir / "structural_report.json"]
    for path, rows in zip(outputs, (stance_rows, structural_rows)):
        write_json(path, {"rows": rows})
    return outputs


def stage_crosstopic(config: PipelineConfig, run_dir: Path, inputs: dict):
    topics = _graph_topics(run_dir)
    if len(topics) < 2:
        log.info("stage crosstopic: nothing to compare; need at least 2 topic networks, "
                 "have %d", len(topics))
        return []

    cross_dir = run_dir / "crosstopic"
    outputs = []

    networks = []
    stance_groupings = {}
    structural_groupings = {}
    for topic_id in topics:
        g, partition, content = _load_topic_results(config, run_dir, topic_id)
        networks.append(g)
        stance_groupings[topic_id] = content
        structural_groupings[topic_id] = partition.assignment

    overlap = jaccard_matrix(networks)
    _write_matrix(cross_dir / "overlap.csv", overlap)
    hg = topic_hypergraph(
        overlap,
        threshold=config.metrics.hypergraph_threshold,
        inclusive=config.metrics.hypergraph_inclusive,
    )
    write_json(
        cross_dir / "hyperedges.json",
        {
            "threshold": hg.threshold,
            "inclusive": hg.inclusive,
            "hyperedges": [list(e) for e in hg.hyperedges],
        },
    )
    outputs += [cross_dir / "overlap.csv", cross_dir / "hyperedges.json"]

    for source, groupings in (
        ("content", stance_groupings), ("structural", structural_groupings)
    ):
        m = alignment_matrix(groupings, config.metrics.nmi_normalization)
        path = cross_dir / f"alignment_{source}.csv"
        _write_matrix(path, m)
        outputs.append(path)

    for i in range(len(topics)):
        for j in range(i + 1, len(topics)):
            x, y = topics[i], topics[j]
            table = joint_stance_table(stance_groupings[x], stance_groupings[y])
            path = cross_dir / f"joint_{x}__{y}.csv"
            if table is None:
                write_csv(path, ["note"], [["no shared classified users"]])
            else:
                write_csv(
                    path,
                    [f"{x} \\ {y}"] + list(table.order),
                    [
                        [table.order[r]] + [f"{v:.6f}" for v in table.values[r]]
                        for r in range(3)
                    ],
                )
            outputs.append(path)
    return outputs


def stage_report(config: PipelineConfig, run_dir: Path, inputs: dict):
    # looked up at call time, so a wrapper set on the report module applies
    return report_mod.render_report(config, run_dir, inputs)


_STAGE_FNS: dict[str, Callable] = {
    "ingest": stage_ingest,
    "annotate": stage_annotate,
    "graph": stage_graph,
    "groups": stage_groups,
    "metrics": stage_metrics,
    "crosstopic": stage_crosstopic,
    "report": stage_report,
}

# What each stage reads: the config fields (top-level fields of
# ``semantic_fields``, or one flag of a section as ``section.flag``; None is
# the whole config) and, by the earlier stage that writes them, the
# run-directory paths it opens, as ``fnmatch`` patterns (whose ``*`` matches
# ``/`` too) or as a function of the config. A field read but not listed
# would reuse a stale stage. Every stage in ``paths`` must have a manifest,
# except those in ``optional``. Ingest reads the dumps (``_declared_inputs``).
class _StageReads(NamedTuple):
    fields: Optional[tuple[str, ...]]
    paths: dict[str, tuple]
    optional: tuple[str, ...] = ()


# the outputs of graph and of groups that later stages open
_GRAPH_FILES = ("graphs/stats.json", "graphs/*/*/nodes.tsv", "graphs/*/*/reposts.graph")
_GROUP_FILES = ("groups/*/partition.tsv", "groups/*/partition.json", "groups/*/content.tsv")

_STAGE_READS: dict[str, _StageReads] = {
    "ingest": _StageReads(("inputs", "window", "downtime", "filters", "sample", "seed"), {}),
    "annotate": _StageReads(("annotate_on", "provider", "topics", "stance_sample_k", "seed"),
                            {"ingest": (annotated_corpus, "corpus/reposts.jsonl")}),
    "graph": _StageReads(("topics", "window"),
                         {"ingest": ("corpus/filtered.jsonl", "corpus/reposts.jsonl"),
                          "annotate": ("labels/topics.jsonl",)}),
    "groups": _StageReads(("detection", "seed", "window"),
                          {"annotate": ("labels/stances_*.jsonl",), "graph": _GRAPH_FILES}),
    "metrics": _StageReads(("metrics.include_neutral", "metrics.simpson_include_neutral",
                            "topics", "window"),
                           {"graph": _GRAPH_FILES, "groups": _GROUP_FILES}),
    "crosstopic": _StageReads(("metrics.hypergraph_threshold", "metrics.hypergraph_inclusive",
                               "metrics.nmi_normalization", "topics", "window"),
                              {"graph": _GRAPH_FILES, "groups": _GROUP_FILES}),
    # summary.json stamps the whole config's hash; report renders a partial
    # bundle, so only ingest must have run
    "report": _StageReads(None, {"ingest": ("stats/activity_stats.json",),
                                 "annotate": ("labels/themes.jsonl",),
                                 "graph": ("graphs/stats.json",),
                                 "metrics": ("metrics/stance_report.json",
                                             "metrics/structural_report.json"),
                                 "crosstopic": ("crosstopic/**",)},
                          optional=("annotate", "graph", "metrics", "crosstopic")),
}

# the section flags that a stage reads on its own
_FLAGS = sorted({f for r in _STAGE_READS.values() for f in r.fields or () if "." in f})


def _manifest_path(run_dir: Path, stage: str) -> Path:
    return run_dir / "manifests" / f"{stage}.json"


def _load_manifest(run_dir: Path, stage: str) -> Optional[StageManifest]:
    path = _manifest_path(run_dir, stage)
    if not path.exists():
        return None
    try:
        data = {"key": None, **json.loads(path.read_text(encoding="utf-8"))}
        data.pop("config_hash", None)  # written before stage keys: a key of None never hits
        return StageManifest(**data)
    except (ValueError, TypeError) as exc:
        raise StageError(stage, f"manifest {path} cannot be read ({type(exc).__name__}: "
                                f"{exc}); remove it to run stage '{stage}' again") from exc


def _write_manifest(run_dir: Path, manifest: StageManifest) -> None:
    """Write under a temporary name, then rename into place, so that a run
    stopped part-way leaves the old manifest or the new one, never a part."""
    path = _manifest_path(run_dir, manifest.stage)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    write_json(partial, asdict(manifest))
    os.replace(partial, path)


def _stale_outputs(manifest: StageManifest, run_dir: Path) -> tuple[list[str], list[str]]:
    """A manifest's recorded outputs that are gone, and diff lines for those
    whose bytes changed."""
    missing, changed = [], []
    for rel, recorded in manifest.outputs.items():
        path = run_dir / rel
        if not path.exists():
            missing.append(rel)
            continue
        current = file_hash(path)
        if current != recorded:
            changed.append(f"{rel}: manifest {recorded[:12]} != on-disk {current[:12]}")
    return missing, changed


# each stage's upstream: the stages whose outputs it reads, directly or through another
_UPSTREAM: dict[str, frozenset[str]] = {}
for _stage in STAGES:
    _UPSTREAM[_stage] = frozenset(
        s for p in _STAGE_READS[_stage].paths for s in (p, *_UPSTREAM[p]))


def _declared_inputs(
    stage: str, config: PipelineConfig, run_dir: Path, outputs: dict,
    manifest: Optional[StageManifest],
) -> tuple[dict[str, str], dict[str, list[int]]]:
    """A stage's inputs and the dump signatures to record with them.

    Ingest's inputs are every file the config's input globs match now,
    hashed unless ``manifest``, the stage's manifest in ``run_dir``, or a
    sibling's vouches for them (``_dump_hashes``); any other stage's are the
    outputs of its producers that it declares, from ``outputs``, which maps
    each producer to the output hashes of its current manifest (None
    without one), and it records no signatures.
    """
    if stage == "ingest":
        return _dump_hashes(input_files(config.inputs), manifest, run_dir)
    inputs = {}
    for producer, patterns in _STAGE_READS[stage].paths.items():
        produced = outputs[producer] or {}
        for pattern in patterns:
            pattern = pattern(config) if callable(pattern) else pattern
            inputs.update((rel, produced[rel]) for rel in fnmatch.filter(produced, pattern))
    return inputs, {}


def config_json(config: PipelineConfig) -> dict[str, str]:
    """Each semantic config field, and each flag a stage reads on its own
    (``section.flag``), as canonical JSON, for ``stage_key``."""
    values = semantic_fields(config)
    fields = {f: json.dumps(v, sort_keys=True) for f, v in values.items()}
    for flag in _FLAGS:
        section, name = flag.split(".")
        fields[flag] = json.dumps(values[section][name], sort_keys=True)
    return fields


def stage_key(stage: str, fields: dict[str, str], inputs: dict[str, str]) -> str:
    """What a stage's outputs are a function of: the config fields it reads
    (from ``config_json``; the whole config is its top-level fields), the
    tool version and the hashes of its inputs."""
    read = _STAGE_READS[stage].fields or sorted(f for f in fields if "." not in f)
    parts = [stage, __version__] + [f"{f}={fields[f]}" for f in read]
    for rel, digest in sorted(inputs.items()):
        parts += (rel, digest)
    # joined by NUL, which no path, JSON text or digest contains; a cached
    # rerun computes seven keys, so this avoids a JSON encoding per stage
    return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()


def _inside(root: Path) -> Callable[[str], bool]:
    """A test of whether ``root / rel`` resolves inside ``root``.

    Each distinct directory is resolved once, on its first test; a path is
    resolved whole only when it is a symbolic link or ends in ``..``.
    """
    resolved_root = root.resolve()
    dirs: dict[Path, bool] = {}

    def inside(rel: str) -> bool:
        path = root / rel
        if path.name == ".." or path.is_symlink():
            return path.resolve().is_relative_to(resolved_root)
        if path.parent not in dirs:
            dirs[path.parent] = path.parent.resolve().is_relative_to(resolved_root)
        return dirs[path.parent]

    return inside


def _sibling_manifests(run_dir: Path, stage: str) -> Iterator[tuple[Path, StageManifest]]:
    """Each other run directory under ``run_dir``'s root, in sorted order,
    with its manifest for ``stage``, where it has one this version can read."""
    for sibling in sorted(run_dir.parent.iterdir()):
        if sibling == run_dir or not sibling.is_dir():
            continue
        try:
            manifest = _load_manifest(sibling, stage)
        except (OSError, StageError):
            continue  # not a run directory this version can read
        if manifest is not None:
            yield sibling, manifest


def _reuse(stage: str, key: str, run_dir: Path, signatures: dict) -> Optional[StageManifest]:
    """Hard-link a stage's outputs from a sibling run directory instead of
    running it.

    Siblings are tried in sorted order; the first whose manifest has ``key``
    and whose outputs, once linked into ``run_dir``, all match that
    manifest's hashes is taken, and the manifest is written. Verifying the
    linked entries rather than the sibling's paths means no later rewrite of
    the sibling can slip unchecked bytes in. A manifest naming a path
    outside either directory is never linked from. A link that cannot be
    made (another file system, say) or does not verify is removed and the
    next sibling is tried; there is no copy fallback. Links are safe because
    every writer replaces its file (``files.open_new``) instead of
    truncating it, so a later run in one directory never rewrites another's
    bytes. An edit made in place outside polarnet shows in every directory
    that shares the file; each directory's next run finds it by hash. The
    manifest written records ``signatures``, this run's, not the sibling's.
    """
    in_run_dir = _inside(run_dir)
    for sibling, manifest in _sibling_manifests(run_dir, stage):
        if manifest.key != key:
            continue
        in_sibling = _inside(sibling)
        if not all(in_sibling(rel) and in_run_dir(rel) for rel in manifest.outputs):
            continue
        linked = []
        made: set[Path] = set()
        try:
            for rel in manifest.outputs:
                path = run_dir / rel
                if path.parent not in made:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    made.add(path.parent)
                path.unlink(missing_ok=True)
                os.link(sibling / rel, path)
                linked.append(path)
        except OSError:
            pass  # a sibling output is gone or cannot be linked; refused below
        if len(linked) < len(manifest.outputs) or any(_stale_outputs(manifest, run_dir)):
            for path in linked:
                path.unlink()
            continue
        manifest.signatures = signatures
        _write_manifest(run_dir, manifest)
        log.info("stage %s: reused from %s", stage, sibling.name)
        manifest.cached = True
        return manifest
    return None


def _remove_outputs(manifest: StageManifest, run_dir: Path) -> None:
    """Remove the outputs a stage's last manifest recorded before the stage
    runs again, so that a file the new run does not write is not left for a
    later stage to find. A path outside the run directory is left alone."""
    in_run_dir = _inside(run_dir)
    for rel in manifest.outputs:
        if in_run_dir(rel):
            (run_dir / rel).unlink(missing_ok=True)


def _run_stage(stage: str, config: PipelineConfig, run_dir: Path, key: str,
               inputs: dict[str, str], signatures: dict) -> StageManifest:
    started = time.perf_counter()
    try:
        outputs = _STAGE_FNS[stage](config, run_dir, inputs)
        hashes = {str(p.relative_to(run_dir)): file_hash(p) for p in outputs}
    except (StageError, ConfigError):
        # a configuration error keeps its own type (and CLI exit code)
        raise
    except (*INPUT_ERRORS, PolarnetError) as exc:
        raise StageError(stage, f"{type(exc).__name__}: {exc}") from exc
    manifest = StageManifest(
        stage=stage,
        key=key,
        tool_version=__version__,
        inputs=inputs,
        outputs=hashes,
        wall_time_s=round(time.perf_counter() - started, 6),
        signatures=signatures,
    )
    _write_manifest(run_dir, manifest)
    log.info("stage %s: done in %.2fs", stage, manifest.wall_time_s)
    return manifest


def _stamp_config(path: Path, stamp: dict) -> None:
    """Write ``config.json`` unless it already holds ``stamp``.

    Compared by content, not by the run hash: ``out_dir`` and the order of
    ``inputs`` can differ between configs that share a run directory.
    """
    try:
        if json.loads(path.read_text(encoding="utf-8")) == stamp:
            return
    except (OSError, ValueError):
        pass  # missing or unreadable: write it
    write_json(path, stamp)


def run_pipeline(
    config: PipelineConfig,
    stages: Optional[list[str]] = None,
    run_root: Optional[Path] = None,
) -> list[StageManifest]:
    """Execute the requested stages in pipeline order; return their manifests.

    One rule decides each requested stage and each stage upstream of one,
    in pipeline order: a stage is current when its manifest has the stage's
    key, computed from the outputs of the stages decided before it, and its
    outputs verify. Outputs are hashed only when the key matches. A current
    stage is cached. A requested stage that is not current has the outputs
    its manifest recorded removed, and its outputs are linked from a
    sibling run directory with that key, or it runs. A stage that was not
    requested is never run, linked or cleaned: when it has a manifest and
    is not current, the call fails on the first requested stage that reads
    it, naming the missing output, the hash diff or the key mismatch. A
    requested stage fails fast when a stage it must read has no manifest,
    naming the stage to run first.
    """
    selected = list(STAGES) if stages is None else [s for s in STAGES if s in stages]
    if stages is not None:
        unknown = set(stages) - set(STAGES)
        if unknown:
            raise StageError(sorted(unknown)[0], "unknown stage")
    run_dir = run_dir_for(config, run_root)
    _stamp_config(run_dir / "config.json", config_to_dict(config))
    fields = config_json(config)

    touched = set(selected).union(*(_UPSTREAM[s] for s in selected))
    outputs: dict[str, Optional[dict[str, str]]] = {}  # per decided stage; None: no manifest
    manifests = []
    for stage in (s for s in STAGES if s in touched):
        manifest = _load_manifest(run_dir, stage)
        requested = stage in selected
        if requested:
            reads = _STAGE_READS[stage]
            for need in reads.paths:
                if need not in reads.optional and outputs[need] is None:
                    raise StageError(stage, f"stage '{need}' has no manifest; "
                                            f"run stage '{need}' first")
        elif manifest is None:
            outputs[stage] = None
            continue
        inputs, signatures = _declared_inputs(stage, config, run_dir, outputs, manifest)
        key = stage_key(stage, fields, inputs)
        current = manifest is not None and manifest.key == key
        if current:
            missing, changed = _stale_outputs(manifest, run_dir)
            current = not missing and not changed
        if current:
            if manifest.signatures != signatures:  # ingest's dumps, stat'ed again
                manifest.signatures = signatures
                _write_manifest(run_dir, manifest)
            manifest.cached = True
            log.info("stage %s: cached", stage)
        elif requested:
            if manifest is not None:
                _remove_outputs(manifest, run_dir)
            manifest = (_reuse(stage, key, run_dir, signatures)
                        or _run_stage(stage, config, run_dir, key, inputs, signatures))
        else:
            reader = next(s for s in selected if stage in _UPSTREAM[s])
            if manifest.key != key:
                raise StageError(reader, f"stage '{stage}' is out of date: its inputs, the "
                                         f"config fields it reads or the tool version changed "
                                         f"since it ran; run stage '{stage}' again")
            if missing:
                raise StageError(reader, f"{missing[0]!r} of stage '{stage}' is missing; "
                                         f"run stage '{stage}' again")
            raise HashMismatchError(reader, changed)
        outputs[stage] = manifest.outputs
        if requested:
            manifests.append(manifest)
    return manifests
