"""One pipeline invocation in a fresh process, so its peak RSS is its own.

Usage: python3 perfbench/child.py '<job as JSON>'

``run.py`` starts this with ``src`` on ``PYTHONPATH``. The job's ``mode``
selects what runs:

- ``cold``: ``run_pipeline`` over all stages into an empty run root.
- ``rerun``: ``reruns`` unchanged reruns, then ``reanalyses`` reruns with
  the second config (only ``metrics.hypergraph_threshold`` differs).
- ``traced``: ``run_pipeline(config, stages=...)`` with the tracing
  wrappers installed.
- ``kernels``: rates of four kernels, called directly on this workload's
  data.

The result is printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from polarnet.config import load_config
from polarnet.pipeline import run_dir_for, run_pipeline

now = time.perf_counter

KERNEL_BUDGET_S = 0.3  # each rate repeats its kernel for at least this long
PARSE_LINES = 50_000
DETECT_RUNS = 2


def _maxrss_mb() -> float:
    """Peak RSS of this process image.

    ``ru_maxrss`` keeps the parent's high-water mark across fork and exec,
    so the kernel's per-image ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _timed_run(config, stages=None) -> dict:
    t0 = now()
    manifests = run_pipeline(config, stages=stages)
    seconds = now() - t0
    return {
        "seconds": seconds,
        "stages": [m.stage for m in manifests],
        "cached": [m.cached for m in manifests],
        "run_dir": str(run_dir_for(config)),
    }


def cold(job: dict) -> dict:
    result = _timed_run(load_config(job["config"]))
    result["maxrss_mb"] = _maxrss_mb()
    return result


def rerun(job: dict) -> dict:
    config, changed = load_config(job["config"]), load_config(job["reanalyze_config"])
    reruns = [_timed_run(config) for _ in range(job["reruns"])]
    reanalyses = []
    for i in range(job["reanalyses"]):
        result = _timed_run(changed)
        # Move the run directory aside, untimed, so that the next reanalysis
        # starts from the same state and this one can still be checked.
        kept = Path(result["run_dir"]).with_name(f"reanalysis-{i}")
        Path(result["run_dir"]).rename(kept)
        result["run_dir"] = str(kept)
        reanalyses.append(result)
    return {"reruns": reruns, "reanalyses": reanalyses}


def traced(job: dict) -> dict:
    import tracing

    config = load_config(job["config"])
    tracer = tracing.Tracer(job["prefix"], job["parent"])
    tracing.install(tracer)
    span = tracer.begin(job["name"])
    try:
        result = _timed_run(config, job["stages"])
    finally:
        tracer.end(span)
    result.update(
        maxrss_mb=_maxrss_mb(),
        spans=tracer.spans,
        counters=dict(tracer.counters),
        samples=tracer.samples,
        file_sizes=tracer.file_sizes,
    )
    return result


def _rate(work, budget_s: float) -> tuple[float, float]:
    """Repeat ``work()`` (which returns units done) for at least budget_s."""
    done = 0.0
    t0 = now()
    while True:
        done += work()
        elapsed = now() - t0
        if elapsed >= budget_s:
            return done, elapsed


def kernels(job: dict) -> dict:
    from polarnet.errors import EventParseError
    from polarnet.groups import (
        Partition,
        content_groups,
        detect_structural_groups_with_diagnostics,
    )
    from polarnet.ingest import parse_event
    from polarnet.metrics import stance_metric_report, structural_metric_report
    from polarnet.pipeline import file_hash
    from polarnet.graphs import load_graph, read_nodes_tsv, window_dirname

    config = load_config(job["config"])
    run_dir = Path(job["run_dir"])
    dump = Path(config.inputs[0])
    with dump.open(encoding="utf-8") as fh:
        lines = fh.readlines()[:PARSE_LINES]

    def parse_all():
        for offset, line in enumerate(lines):
            try:
                parse_event(line, offset)
            except EventParseError:
                pass
        return len(lines)

    events, parse_s = _rate(parse_all, KERNEL_BUDGET_S)

    def hash_dump():
        file_hash(dump)
        return dump.stat().st_size / 1e6

    hashed_mb, hash_s = _rate(hash_dump, KERNEL_BUDGET_S)

    stats = json.loads((run_dir / "graphs" / "stats.json").read_text(encoding="utf-8"))
    inputs = []
    for topic_id, s in sorted(stats["topics"].items()):
        if s["edges"] == 0:
            continue
        topic_dir = run_dir / "graphs" / topic_id / window_dirname(config.window)
        g = load_graph(topic_dir / "reposts.graph", read_nodes_tsv(topic_dir / "nodes.tsv"),
                       topic_id, "reposts", config.window)
        group_dir = run_dir / "groups" / topic_id
        meta = json.loads((group_dir / "partition.json").read_text(encoding="utf-8"))
        with (group_dir / "partition.tsv").open(encoding="utf-8") as fh:
            assignment = dict(
                (node, int(block)) for node, block in (ln.rstrip("\n").split("\t") for ln in fh)
            )
        with (run_dir / "labels" / f"stances_{topic_id}.jsonl").open(encoding="utf-8") as fh:
            stances = {r["user"]: r["label"] for r in map(json.loads, fh)}
        inputs.append((g, Partition(assignment, meta["b"], meta["dl"]), stances,
                       config.topic_by_id(topic_id)))

    def score_all():
        for g, partition, stances, spec in inputs:
            grouping = content_groups(stances, g)
            stance_metric_report(g, grouping, spec)
            structural_metric_report(g, partition, grouping)
        return sum(g.edge_count for g, *_ in inputs)

    edges, metrics_s = _rate(score_all, KERNEL_BUDGET_S)

    largest = max((g for g, *_ in inputs), key=lambda g: len(g.nodes))
    det = config.detection
    t0 = now()
    _, runs = detect_structural_groups_with_diagnostics(
        largest, max_groups=det.max_groups, runs=DETECT_RUNS, iters=det.iters,
        seed=config.seed, collapse_multigraph=det.collapse_multigraph,
    )
    detect_s = now() - t0
    visits = sum(r.sweeps for r in runs) * len(largest.nodes)
    return {
        "parse_event_per_s": events / parse_s,
        "hash_mb_per_s": hashed_mb / hash_s,
        "metric_edges_per_s": edges / metrics_s,
        "node_visits_per_s": visits / detect_s,
    }


MODES = {"cold": cold, "rerun": rerun, "traced": traced, "kernels": kernels}


def main() -> None:
    job = json.loads(sys.argv[1])
    print(json.dumps(MODES[job["mode"]](job)))


if __name__ == "__main__":
    main()
