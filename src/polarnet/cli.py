"""Command-line interface.

Every command that produces a stage output does it through ``run_pipeline``:
``polarnet run`` runs the stages a config selects, ``polarnet report`` its
report stage, and ``metrics report`` and ``crosstopic`` every stage up to
their own before printing its table.
``graph stats`` and ``groups composition`` only read files. Exit codes:
0 success, 2 configuration error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .config import STAGES, config_from_dict, config_to_dict, load_config
from .errors import INPUT_ERRORS, ConfigError, PolarnetError
from .graphs import network_stats
from .groups import Partition, group_composition
from .pipeline import load_topic_graph, read_assignment, run_dir_for, run_pipeline
from .report import scoreboard, write_csv_to, write_json


# --- views of files ----------------------------------------------------------


def cmd_graph_stats(args):
    print("topic,window,nodes,edges,average_degree")
    for graph_file in sorted(Path(args.graphs).glob("*/*/reposts.graph")):
        topic_dir = graph_file.parent
        s = network_stats(load_topic_graph(topic_dir, topic_dir.parent.name))
        print(f"{topic_dir.parent.name},{topic_dir.name},{s.nodes},{s.edges},"
              f"{s.average_degree:.2f}")
    return 0


def cmd_groups_composition(args):
    assignment = read_assignment(args.partition, int)
    stances = read_assignment(args.content)
    partition = Partition(assignment, len(set(assignment.values())), 0.0)
    payload = asdict(group_composition(partition, stances))
    if args.out:
        write_json(Path(args.out), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# --- commands that run stages ------------------------------------------------


def _run(config, stages, args):
    """Run ``stages`` (all when None; finished ones are cached) under the run
    root ``--out``, or the config's ``out_dir`` without it. Returns the
    manifests and the run directory."""
    run_root = Path(args.out) if args.out else None
    return run_pipeline(config, stages=stages, run_root=run_root), run_dir_for(config, run_root)


def _through(stage):
    return list(STAGES[: STAGES.index(stage) + 1])


def cmd_metrics_report(args):
    config = load_config(args.config)
    if args.topic != "all":
        config.topic_by_id(args.topic)  # an unknown id is a config error
    _, run_dir = _run(config, _through("metrics"), args)
    header, rows = scoreboard(args.grouping,
                              run_dir / "metrics" / f"{args.grouping}_report.json")
    if args.topic != "all":
        rows = [r for r in rows if r[0] == args.topic]
    write_csv_to(sys.stdout, header, rows)
    return 0


def cmd_crosstopic(args):
    config = load_config(args.config)
    if args.threshold is not None:
        # checked as in a config file; the changed config gets its own run
        # directory, and the stages that do not read it are copied
        raw = config_to_dict(config)
        raw["metrics"] = dict(raw["metrics"], hypergraph_threshold=args.threshold)
        config = config_from_dict(raw)
    _, run_dir = _run(config, _through("crosstopic"), args)
    cross = run_dir / "crosstopic"
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
    stages = args.stages.split(",") if args.stages else None
    manifests, run_dir = _run(load_config(args.config), stages, args)
    _print_stages(manifests)
    print(f"run directory: {run_dir}")
    return 0


def _print_stages(manifests) -> None:
    for m in manifests:
        status = "cached" if m.cached else f"{m.wall_time_s:.2f}s"
        print(f"{m.stage}: {status}")


def cmd_report(args):
    manifests, run_dir = _run(load_config(args.config), ["report"], args)
    _print_stages(manifests)
    print(f"report bundle written to {run_dir / 'report'}")
    return 0


RUN_ROOT_HELP = "override the output root from the config"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarnet",
        description="Polarization measurement over archived interaction-event streams",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="network stats of a graphs directory")
    graph_sub = p_graph.add_subparsers(dest="what", required=True)
    p = graph_sub.add_parser("stats")
    p.add_argument("--graphs", required=True)
    p.set_defaults(fn=cmd_graph_stats)

    p_groups = sub.add_parser("groups", help="stance composition of structural groups")
    groups_sub = p_groups.add_subparsers(dest="what", required=True)
    p = groups_sub.add_parser("composition")
    p.add_argument("--partition", required=True, help="partition.tsv")
    p.add_argument("--content", required=True, help="content.tsv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_groups_composition)

    p_metrics = sub.add_parser("metrics", help="per-network polarization scores")
    metrics_sub = p_metrics.add_subparsers(dest="what", required=True)
    p = metrics_sub.add_parser("report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help=RUN_ROOT_HELP)
    p.add_argument("--topic", default="all")
    p.add_argument("--grouping", choices=["stance", "structural"], default="stance")
    p.set_defaults(fn=cmd_metrics_report)

    p_cross = sub.add_parser("crosstopic", help="overlap, alignment, joint stances")
    cross_sub = p_cross.add_subparsers(dest="what", required=True)
    for what in ("overlap", "hypergraph", "alignment", "joint"):
        p = cross_sub.add_parser(what)
        p.add_argument("--config", required=True)
        p.add_argument("--out", help=RUN_ROOT_HELP)
        p.add_argument("--grouping", choices=["content", "structural"], default="content")
        p.add_argument("--threshold", type=float)
        p.set_defaults(fn=cmd_crosstopic)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", help="comma-separated subset, e.g. metrics,crosstopic")
    p.add_argument("--out", help=RUN_ROOT_HELP)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="run the report stage (= run --stages report)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help=RUN_ROOT_HELP)
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
