"""Command-line interface.

``polarnet run`` drives the whole pipeline from one config file; the
other subcommands expose individual stages for ad-hoc use. Exit codes:
0 success, 2 configuration error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .annotate import (
    DEFAULT_TOPICS,
    OTHER_TOPIC,
    annotate_themes,
    annotate_topics,
    theme_store,
    topic_store,
)
from .config import (STAGES, DetectionConfig, FilterConfig, SampleConfig, config_from_dict,
                     config_hash, config_to_dict, load_config)
from .errors import INPUT_ERRORS, ConfigError, PolarnetError
from .graphs import network_stats, parse_window
from .groups import Partition, StanceGrouping, group_composition
from .pipeline import (
    annotate_topic_stances,
    filter_posts,
    input_files,
    load_posts,
    load_reposts,
    load_stances,
    load_topic_graph,
    read_assignment,
    read_events,
    run_dir_for,
    run_pipeline,
    sample_posts,
    write_activity_stats,
    write_content_groups,
    write_posts,
    write_reposts,
    write_structural_groups,
    write_topic_graph,
)
from .providers import provider_from_spec
from .report import write_json

# Stage subcommands run without a config: every --seed is a master seed,
# derived per stage as in run.


# --- ingest ----------------------------------------------------------------


def cmd_ingest_stats(args):
    window = parse_window(args.window) if args.window else None
    stats, parse_errors, _, _ = read_events(input_files(args.input), window)
    out = Path(args.out)
    write_activity_stats(out, stats, parse_errors)
    print(f"wrote activity stats for {stats.observed_days:.2f} observed days to {out}")
    return 0


def cmd_ingest_filter(args):
    _, _, posts, reposts = read_events(input_files(args.input))
    filters = FilterConfig(min_reposts=args.min_reposts, min_chars=args.min_chars,
                           lang=args.lang)
    kept = filter_posts(posts, filters)
    write_posts(Path(args.out), kept)
    if args.reposts_out:
        write_reposts(Path(args.reposts_out), reposts)
    print(f"kept {len(kept)} of {len(posts)} posts")
    return 0


def cmd_ingest_sample(args):
    posts = load_posts(Path(args.input))
    sample = SampleConfig(fraction=args.fraction, stratify_by_day=args.stratify_by_day)
    sampled = sample_posts(posts, sample, args.seed)
    write_posts(Path(args.out), sampled)
    print(f"sampled {len(sampled)} of {len(posts)} posts")
    return 0


# --- annotate ----------------------------------------------------------------


def cmd_annotate(args):
    provider = provider_from_spec(args.provider)
    out = Path(args.out)
    posts = load_posts(Path(args.input))
    if args.what == "themes":
        outcome = annotate_themes(posts, provider, theme_store(out / "themes.jsonl"))
    elif args.what == "topics":
        themes = theme_store(args.themes).mapping()
        outcome = annotate_topics(posts, themes, provider, topic_store(out / "topics.jsonl"))
    else:
        return _annotate_stances(args, posts, provider, out)
    print(f"labeled {outcome.labeled}, skipped {len(outcome.skipped)}")
    return 0


def _annotate_stances(args, posts, provider, out):
    topic_map = topic_store(args.topic_labels).mapping()
    ids = [args.topic] if args.topic else sorted(set(topic_map.values()) - {OTHER_TOPIC})
    specs = {t.id: t for t in DEFAULT_TOPICS}
    unknown = [t for t in ids if t not in specs]
    if unknown:
        raise ConfigError(
            f"no default topic spec for {', '.join(unknown)}; label such topics "
            "from a config with 'polarnet run --stages annotate'"
        )
    reposts = load_reposts(Path(args.reposts)) if args.reposts else []
    by_uri = {p.uri: p for p in posts}
    for topic_id in ids:
        _, outcome = annotate_topic_stances(specs[topic_id], by_uri, reposts, topic_map,
                                            provider, out, args.k, args.seed)
        print(f"{topic_id}: {outcome.labeled} users classified, "
              f"{len(outcome.skipped)} skipped")
    return 0


# --- graph -------------------------------------------------------------------


def cmd_graph_build(args):
    posts = {p.uri: p for p in load_posts(Path(args.corpus))}
    reposts = load_reposts(Path(args.reposts))
    topic_map = topic_store(args.topic_labels).mapping()
    window = parse_window(args.window) if args.window else None
    if args.topics == "all":
        topic_ids = sorted(set(topic_map.values()) - {OTHER_TOPIC})
    else:
        topic_ids = args.topics.split(",")
    for topic_id in topic_ids:
        row, written = write_topic_graph(posts, reposts, topic_map, topic_id, window,
                                         Path(args.out), args.include_isolated)
        if not written:
            print(f"{topic_id}: empty network, skipped")
            continue
        print(f"{topic_id}: |V|={row['nodes']} |E|={row['edges']} "
              f"avg_degree={row['average_degree']:.2f}")
    return 0


def cmd_graph_stats(args):
    print("topic,window,nodes,edges,average_degree")
    for graph_file in sorted(Path(args.graphs).glob("*/*/reposts.graph")):
        topic_dir = graph_file.parent
        s = network_stats(load_topic_graph(topic_dir, topic_dir.parent.name))
        print(f"{topic_dir.parent.name},{topic_dir.name},{s.nodes},{s.edges},"
              f"{s.average_degree:.2f}")
    return 0


# --- groups ------------------------------------------------------------------


def _topic_graph(graphs_dir, topic):
    matches = sorted(Path(graphs_dir).glob(f"{topic}/*/reposts.graph"))
    if not matches:
        raise ConfigError(f"no reposts graph for topic {topic!r} under {graphs_dir}")
    return load_topic_graph(matches[0].parent, topic)


def cmd_groups_structural(args):
    g = _topic_graph(args.graphs, args.topic)
    detection = DetectionConfig(max_groups=args.max_groups, runs=args.runs, iters=args.iters,
                                collapse_multigraph=args.collapse_multigraph)
    partition, _ = write_structural_groups(g, detection, args.seed, Path(args.out))
    print(f"{args.topic}: B={partition.b} dl={partition.dl:.3f}")
    return 0


def cmd_groups_content(args):
    g = _topic_graph(args.graphs, args.topic)
    grouping, _ = write_content_groups(g, load_stances(Path(args.stances)), Path(args.out))
    print(f"{args.topic}: coverage {grouping.coverage:.3f} "
          f"({len(grouping.unlabeled)} unlabeled)")
    return 0


def cmd_groups_composition(args):
    assignment = read_assignment(args.partition, int)
    stances = read_assignment(args.content)
    partition = Partition(assignment, len(set(assignment.values())), 0.0)
    grouping = StanceGrouping(
        "", stances, len(stances) / len(assignment) if assignment else 0.0,
        set(assignment) - set(stances),
    )
    payload = asdict(group_composition(partition, grouping))
    if args.out:
        write_json(Path(args.out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# --- run-dir based commands ---------------------------------------------------


def _run_through(stage, config, args) -> Path:
    """Run every stage up to and including ``stage`` (finished ones are
    cached) and return the run directory."""
    run_root = Path(args.run_dir).parent if args.run_dir else None
    run_pipeline(config, stages=list(STAGES[: STAGES.index(stage) + 1]), run_root=run_root)
    return run_dir_for(config, run_root)


def cmd_metrics_report(args):
    run_dir = _run_through("metrics", load_config(args.config), args)
    src = run_dir / "metrics" / (
        "stance_report.csv" if args.grouping == "stance" else "structural_report.csv"
    )
    lines = src.read_text(encoding="utf-8").splitlines()
    if args.topic != "all":
        lines = [lines[0]] + [l for l in lines[1:] if l.startswith(f"{args.topic},")]
    print("\n".join(lines))
    return 0


def cmd_crosstopic(args):
    config = load_config(args.config)
    if args.threshold is not None:
        # checked as in a config file; the changed config gets its own run
        # directory, and the stages that do not read it are copied
        raw = config_to_dict(config)
        raw["metrics"] = dict(raw["metrics"], hypergraph_threshold=args.threshold)
        config = config_from_dict(raw)
    cross = _run_through("crosstopic", config, args) / "crosstopic"
    name = {
        "overlap": "overlap.csv",
        "hypergraph": "hyperedges.json",
        "alignment": f"alignment_{args.grouping}.csv",
        "joint": None,
    }[args.what]
    if name:
        print((cross / name).read_text(encoding="utf-8"))
    else:
        for path in sorted(cross.glob("joint_*.csv")):
            print(path.name)
            print(path.read_text(encoding="utf-8"))
    return 0


def cmd_run(args):
    config = load_config(args.config)
    stages = args.stages.split(",") if args.stages else None
    run_root = Path(args.out) if args.out else None
    _print_stages(run_pipeline(config, stages=stages, run_root=run_root))
    print(f"run directory: {run_dir_for(config, run_root)}")
    return 0


def _print_stages(manifests) -> None:
    for m in manifests:
        status = "cached" if m.cached else f"{m.wall_time_s:.2f}s"
        print(f"{m.stage}: {status}")


def cmd_report(args):
    run_dir = Path(args.out)
    config = load_config(run_dir / "config.json")
    stamped = config_hash(config)
    if stamped != run_dir.name:
        # checked before run_pipeline creates the run directory it names
        raise ConfigError(f"{run_dir / 'config.json'} hashes to {stamped}, "
                          f"not to the run directory's name {run_dir.name!r}")
    _print_stages(run_pipeline(config, stages=["report"], run_root=run_dir.parent))
    print(f"report bundle written to {run_dir / 'report'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarnet",
        description="Polarization measurement over archived interaction-event streams",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="event parsing, stats, corpus rules")
    ingest_sub = p_ingest.add_subparsers(dest="what", required=True)
    p = ingest_sub.add_parser("stats")
    p.add_argument("--input", nargs="+", required=True, help="event dump glob(s)")
    p.add_argument("--out", required=True)
    p.add_argument("--window", help="e.g. 2024-12:2025-05")
    p.set_defaults(fn=cmd_ingest_stats)
    p = ingest_sub.add_parser("filter")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--out", required=True, help="filtered posts jsonl")
    p.add_argument("--reposts-out", help="also write repost events jsonl")
    p.add_argument("--min-reposts", type=int, default=1)
    p.add_argument("--min-chars", type=int, default=5)
    p.add_argument("--lang", default="en")
    p.set_defaults(fn=cmd_ingest_filter)
    p = ingest_sub.add_parser("sample")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, default=0.03)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stratify-by-day", action="store_true")
    p.set_defaults(fn=cmd_ingest_sample)

    p_annotate = sub.add_parser("annotate", help="theme/topic/stance labeling")
    annotate_sub = p_annotate.add_subparsers(dest="what", required=True)
    for what in ("themes", "topics", "stances"):
        p = annotate_sub.add_parser(what)
        p.add_argument("--input", required=True, help="posts jsonl")
        p.add_argument("--provider", default="mock", help="'mock' or endpoint URL")
        p.add_argument("--out", required=True)
        if what == "topics":
            p.add_argument("--themes", required=True, help="themes.jsonl")
        if what == "stances":
            p.add_argument("--topic-labels", required=True, help="topics.jsonl")
            p.add_argument("--reposts", help="repost events jsonl")
            p.add_argument("--topic", help="restrict to one topic id")
            p.add_argument("--k", type=int, default=10)
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=cmd_annotate)

    p_graph = sub.add_parser("graph", help="network construction and stats")
    graph_sub = p_graph.add_subparsers(dest="what", required=True)
    p = graph_sub.add_parser("build")
    p.add_argument("--corpus", required=True, help="filtered posts jsonl")
    p.add_argument("--reposts", required=True, help="repost events jsonl")
    p.add_argument("--topic-labels", required=True, help="topics.jsonl")
    p.add_argument("--out", required=True)
    p.add_argument("--topics", default="all", help="'all' or comma-separated ids")
    p.add_argument("--window", help="e.g. 2024-12:2025-05")
    p.add_argument("--include-isolated", action="store_true")
    p.set_defaults(fn=cmd_graph_build)
    p = graph_sub.add_parser("stats")
    p.add_argument("--graphs", required=True)
    p.set_defaults(fn=cmd_graph_stats)

    p_groups = sub.add_parser("groups", help="structural and content group detection")
    groups_sub = p_groups.add_subparsers(dest="what", required=True)
    p = groups_sub.add_parser("structural")
    p.add_argument("--graphs", required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-groups", type=int, default=5)
    p.add_argument("--runs", type=int, default=15)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--collapse-multigraph", action="store_true")
    p.set_defaults(fn=cmd_groups_structural)
    p = groups_sub.add_parser("content")
    p.add_argument("--graphs", required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--stances", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_groups_content)
    p = groups_sub.add_parser("composition")
    p.add_argument("--partition", required=True, help="partition.tsv")
    p.add_argument("--content", required=True, help="content.tsv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_groups_composition)

    p_metrics = sub.add_parser("metrics", help="per-network polarization scores")
    metrics_sub = p_metrics.add_subparsers(dest="what", required=True)
    p = metrics_sub.add_parser("report")
    p.add_argument("--config", required=True)
    p.add_argument("--run-dir")
    p.add_argument("--topic", default="all")
    p.add_argument("--grouping", choices=["stance", "structural"], default="stance")
    p.set_defaults(fn=cmd_metrics_report)

    p_cross = sub.add_parser("crosstopic", help="overlap, alignment, joint stances")
    cross_sub = p_cross.add_subparsers(dest="what", required=True)
    for what in ("overlap", "hypergraph", "alignment", "joint"):
        p = cross_sub.add_parser(what)
        p.add_argument("--config", required=True)
        p.add_argument("--run-dir")
        p.add_argument("--grouping", choices=["content", "structural"], default="content")
        p.add_argument("--threshold", type=float)
        p.set_defaults(fn=cmd_crosstopic)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", help="comma-separated subset, e.g. metrics,crosstopic")
    p.add_argument("--out", help="override the output root from the config")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="run the report stage in a run directory, "
                                      "under its config.json")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PolarnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
