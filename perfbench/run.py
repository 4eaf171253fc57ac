"""polarnet benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's event dump from ``--seed``, runs the pipeline on
it through ``polarnet.config`` and ``polarnet.pipeline.run_pipeline`` in
fresh child processes, checks every output, and prints each metric with
its unit. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, taken from a separate run in
which every stage runs in its own child process with timing wrappers
installed (see ``tracing.py``). Everything is read and written under the
repository root; scratch files live in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

STAGES = ("ingest", "annotate", "graph", "groups", "metrics", "crosstopic", "report")
LAYER = {"graph": "graphs"}  # metric prefix = module name
SETUP_REPS = 5
MIN_SAMPLES = 5
RERUNS_PER_SAMPLE = 5  # a cached rerun is short, so each sample repeats it
REANALYSES_PER_SAMPLE = 2
CHILD_TIMEOUT_S = 150
REANALYZE_THRESHOLD = 0.3

now = time.perf_counter


def median(values):
    return statistics.median(values) if values else float("nan")


def ratio(num, den) -> float:
    return num / den if den else 0.0


def nmi(a: dict, b: dict) -> float:
    """Normalized mutual information (arithmetic-mean normalization) over
    the shared keys, summed in sorted order so it repeats bit for bit."""
    keys = sorted(a.keys() & b.keys())
    n = len(keys)
    if n == 0:
        return 0.0
    joint = Counter((a[k], b[k]) for k in keys)
    pa = Counter(a[k] for k in keys)
    pb = Counter(b[k] for k in keys)

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for _, c in sorted(counts.items()))

    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 or hb == 0.0:
        return 1.0 if ha == hb else 0.0
    mi = sum(
        c / n * math.log(c * n / (pa[x] * pb[y])) for (x, y), c in sorted(joint.items())
    )
    return mi / ((ha + hb) / 2.0)


def read_bundle(run_dir: Path) -> dict:
    report = run_dir / "report"
    return {p.name: p.read_bytes() for p in sorted(report.iterdir()) if p.is_file()}


def bundle_digest(bundle: dict) -> str:
    h = hashlib.sha256()
    for name, data in bundle.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Bench:
    """One workload at one seed, inside a private work directory."""

    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.dump = work / "events.jsonl"
        self.runs = work / "runs"
        self.config = work / "config.json"
        self.reanalyze_config = work / "config_reanalyze.json"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("POLARNET_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.stub = None
        self.url = None
        self.stub_counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.truth = None
        self.bundle = None  # report bundle of the first cold run
        self.quality = None  # (camp_nmi, stance_accuracy) of the first cold run
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.rss_mb: list[float] = []
        self.rerun_s: list[float] = []
        self.reanalyze_s: list[float] = []

    # --- bookkeeping -------------------------------------------------------

    def op(self, check, what: str) -> None:
        """Count one pipeline run; it failed if ``check()`` lists a problem
        or cannot read the outputs. Its timing counts either way."""
        self.attempted += 1
        try:
            problems = check()
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def child(self, job: dict):
        """Run child.py on ``job``; returns (result, None) or (None, error)."""
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(job)], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"child timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"child exited {proc.returncode}: {tail[0]}"
        return json.loads(proc.stdout.strip().splitlines()[-1]), None

    # --- set-up --------------------------------------------------------------

    def start_stub(self) -> str:
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            raise RuntimeError("annotation stub did not start")
        return f"http://127.0.0.1:{line[1]}/annotate"

    def stop_stub(self) -> None:
        if self.stub is None:
            return
        try:
            url = self.url.rsplit("/", 1)[0] + "/stats"
            with urllib.request.urlopen(url, timeout=10) as resp:
                self.stub_counts.update(json.loads(resp.read()))
        except OSError as exc:
            self.problems.append(f"annotation stub: no request counts ({exc})")
            self.failed += 1
        finally:
            self.stub.stdin.close()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub = None

    def write_configs(self) -> None:
        provider = {"kind": "mock"}
        if self.w.provider == "http":
            provider = {"kind": "http", "url": self.url}
        base = {"inputs": [str(self.dump)], "out_dir": str(self.runs), "seed": self.seed,
                "provider": provider}
        self.config.write_text(json.dumps(base, indent=2), encoding="utf-8")
        changed = dict(base, metrics={"hypergraph_threshold": REANALYZE_THRESHOLD})
        self.reanalyze_config.write_text(json.dumps(changed, indent=2), encoding="utf-8")

    def setup(self) -> None:
        """Set up SETUP_REPS times; every repetition must give the same dump."""
        from gen import generate

        digests = set()
        for _ in range(SETUP_REPS):
            self.stop_stub()
            t0 = now()
            lines, self.truth = generate(self.w.dump, self.seed)
            data = ("\n".join(lines) + "\n").encode("utf-8")
            self.dump.write_bytes(data)
            digests.add(hashlib.sha256(data).hexdigest())
            if self.w.provider == "http":
                self.url = self.start_stub()
            self.write_configs()
            self.setup_s.append(now() - t0)
        if len(digests) != 1:
            self.problems.append("set-up: the generator gave different dumps for one seed")
            self.failed += 1

    # --- checks ----------------------------------------------------------------

    def check_cold(self, run_dir: Path) -> list[str]:
        t = self.truth
        out = []
        stats = json.loads((run_dir / "stats" / "activity_stats.json").read_text())
        parsed = stats["non_create_events"] + stats["other_collection_events"]
        for kind, want in t.creates.items():
            got = stats["per_type"][kind]["total_actions"]
            parsed += got
            if got != want:
                out.append(f"{kind} total {got} != generated {want}")
        if stats["non_create_events"] != t.non_create:
            out.append(f"non-create events {stats['non_create_events']} != {t.non_create}")
        if stats["other_collection_events"] != t.other_collection:
            out.append(f"other-collection events {stats['other_collection_events']} "
                       f"!= {t.other_collection}")
        if t.lines - parsed != t.malformed:
            out.append(f"parse errors {t.lines - parsed} != injected {t.malformed}")
        bundle = read_bundle(run_dir)
        quality = self.measure_quality(run_dir)
        if self.bundle is None:
            self.bundle, self.quality = bundle, quality
        else:
            if bundle_digest(bundle) != bundle_digest(self.bundle):
                out.append("report bundle differs from the first run's")
            if quality != self.quality:
                out.append(f"quality {quality} != first run's {self.quality}")
        return out

    def measure_quality(self, run_dir: Path) -> tuple[float, float]:
        t = self.truth
        scores = []
        for topic in t.polarized:
            path = run_dir / "groups" / topic / "partition.tsv"
            found = {}
            if path.exists():
                for line in path.read_text(encoding="utf-8").splitlines():
                    node, block = line.split("\t")
                    found[node] = block
            scores.append(nmi(found, t.camps[topic]))
        right = total = 0
        for topic, stances in sorted(t.stances.items()):
            path = run_dir / "labels" / f"stances_{topic}.jsonl"
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                total += 1
                right += rec["label"] == stances.get(rec["user"])
        return ratio(sum(scores), len(scores)), ratio(right, total)

    def check_rerun(self, res: dict) -> list[str]:
        out = []
        if res["stages"] != list(STAGES) or not all(res["cached"]):
            out.append(f"stages {res['stages']} cached {res['cached']}: not all cached")
        if bundle_digest(read_bundle(Path(res["run_dir"]))) != bundle_digest(self.bundle):
            out.append("report bundle changed on a cached rerun")
        return out

    def check_reanalyze(self, res: dict) -> list[str]:
        out = []
        run_dir = Path(res["run_dir"])
        if res["stages"] != list(STAGES):
            out.append(f"stages {res['stages']} != {list(STAGES)}")
        for path in (run_dir / "crosstopic" / "hyperedges.json",
                     run_dir / "report" / "hyperedges.json"):
            got = json.loads(path.read_text())["threshold"]
            if got != REANALYZE_THRESHOLD:
                out.append(f"{path.name} threshold {got} != {REANALYZE_THRESHOLD}")
        csvs = {n: d for n, d in read_bundle(run_dir).items() if n.endswith(".csv")}
        before = {n: d for n, d in self.bundle.items() if n.endswith(".csv")}
        if csvs != before:
            changed = sorted(set(csvs) ^ set(before)
                             | {n for n in csvs.keys() & before.keys() if csvs[n] != before[n]})
            out.append(f"threshold-independent tables changed: {changed}")
        return out

    # --- samples ---------------------------------------------------------------

    def cold_sample(self) -> None:
        shutil.rmtree(self.runs, ignore_errors=True)
        res, err = self.child({"mode": "cold", "config": str(self.config)})
        if res is None:
            self.op(lambda: [err], "cold run")
            return

        def check():
            problems = ["a stage was cached on a cold run"] if any(res["cached"]) else []
            return problems + self.check_cold(Path(res["run_dir"]))

        self.op(check, "cold run")
        self.run_s.append(res["seconds"])
        self.rss_mb.append(res["maxrss_mb"])

    def rerun_sample(self) -> None:
        res, err = self.child({"mode": "rerun", "config": str(self.config),
                               "reanalyze_config": str(self.reanalyze_config),
                               "reruns": RERUNS_PER_SAMPLE,
                               "reanalyses": REANALYSES_PER_SAMPLE})
        if res is None:
            whats = ["rerun"] * RERUNS_PER_SAMPLE + ["reanalyze"] * REANALYSES_PER_SAMPLE
            for what in whats:
                self.op(lambda: [err], what)
            return
        for rerun in res["reruns"]:
            self.op(lambda: self.check_rerun(rerun), "rerun")
            self.rerun_s.append(rerun["seconds"])
        for reanalysis in res["reanalyses"]:
            self.op(lambda: self.check_reanalyze(reanalysis), "reanalyze")
            self.reanalyze_s.append(reanalysis["seconds"])

    def measure(self, seconds: float) -> int:
        deadline = now() + seconds
        n = 0
        while n < MIN_SAMPLES or now() < deadline:
            self.cold_sample()
            self.rerun_sample()
            n += 1
        return n

    def end_to_end(self) -> dict:
        run_s = median(self.run_s)
        quality = self.quality or (float("nan"), float("nan"))
        return {
            "run_s": run_s,
            "events_per_s": self.truth.lines / run_s,
            "peak_rss_mb": median(self.rss_mb),
            "rerun_s": median(self.rerun_s),
            "reanalyze_s": median(self.reanalyze_s),
            "setup_s": median(self.setup_s),
            "camp_nmi": quality[0],
            "stance_accuracy": quality[1],
        }

    # --- traced run -----------------------------------------------------------

    def traced(self, seconds: float, trace_path: Path) -> dict:
        """Per-layer metrics from one traced cold run, rerun and reanalysis.

        Untraced cold runs first give the reference for ``trace.overhead_ratio``.
        Then each stage runs in its own child process on the run root the
        previous stage left, the unchanged rerun runs in one child, and the
        metrics-only change again stage by stage. Spans of all children share
        one trace id and are written to ``trace_path`` at the end.
        """
        deadline = now() + seconds * 0.3
        tries = 0
        while tries < 2 or now() < deadline:
            self.cold_sample()
            tries += 1
        root = ["run", "run", now(), 0.0, None, 0.0]
        spans = [root]

        def phase(name: str, config: Path, per_stage: bool) -> list[dict]:
            span = [name, name, now(), 0.0, "run", 0.0]
            spans.append(span)
            done = []
            for stages in ([[s] for s in STAGES] if per_stage else [None]):
                label = stages[0] if stages else "all"
                res, err = self.child({
                    "mode": "traced", "config": str(config), "stages": stages,
                    "name": f"stage.{label}" if stages else "rerun",
                    "prefix": f"{name}.{label}.", "parent": name,
                })
                if res is None:
                    raise RuntimeError(f"traced {name} {label}: {err}")
                spans.extend(res["spans"])
                done.append(res)
            span[3] = now()
            span[5] = span[3] - span[2]
            return done

        shutil.rmtree(self.runs, ignore_errors=True)
        try:
            cold = phase("cold", self.config, True)
            rerun = phase("rerun", self.config, False)[0]
            reanalyze = phase("reanalyze", self.reanalyze_config, True)
        except RuntimeError as exc:
            self.op(lambda: [str(exc)], "traced run")
            return {}
        run_dir = Path(cold[0]["run_dir"])
        self.op(lambda: self.check_traced(cold) + self.check_cold(run_dir), "traced cold run")
        self.op(lambda: self.check_rerun(rerun), "traced rerun")
        last = dict(reanalyze[-1], stages=[r["stages"][0] for r in reanalyze])
        self.op(lambda: self.check_reanalyze(last), "traced reanalyze")

        kern, err = self.child({"mode": "kernels", "config": str(self.config),
                                "run_dir": str(run_dir)})
        if kern is None:
            self.op(lambda: [err], "kernels")
            return {}
        root[3] = now()
        root[5] = root[3] - root[2]
        metrics = self.layer_metrics(cold, rerun, reanalyze, kern, run_dir)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "trace_id": f"{self.w.name}-seed{self.seed}-{os.getpid()}",
            "span_fields": ["id", "name", "start", "end", "parent", "busy"],
            "spans": spans,
            "metrics": metrics,
        }), encoding="utf-8")
        return metrics

    def check_traced(self, cold: list[dict]) -> list[str]:
        """Parse errors equal the injected malformed lines; no provider call
        failed and annotate skipped nothing."""
        def counter(name):
            return sum(r["counters"].get(name, 0) for r in cold)

        out = []
        errors = counter("ingest.parse_stream.errors")
        if errors != self.truth.malformed:
            out.append(f"traced parse errors {errors} != injected {self.truth.malformed}")
        for name in ("providers.annotate.failures", "annotate.skipped"):
            if counter(name):
                out.append(f"{name} {counter(name)} != 0")
        return out

    def layer_metrics(self, cold, rerun, reanalyze, kern, run_dir) -> dict:
        """Each traced child's first span is its root: the run_pipeline call."""
        by_stage = dict(zip(STAGES, cold))

        def busy(results, name):
            return sum(s[5] for r in results for s in r["spans"] if s[1] == name)

        def counter(name):
            return sum(r["counters"].get(name, 0) for r in cold)

        m = {}
        stage_s = {}
        for stage, r in by_stage.items():
            root = r["spans"][0]
            children = sum(s[5] for s in r["spans"] if s[4] == root[0])
            layer = LAYER.get(stage, stage)
            stage_s[stage] = root[5]
            m[f"{layer}.stage_s"] = root[5]
            m[f"{layer}.self_s"] = root[5] - children
            m[f"{layer}.peak_rss_mb"] = r["maxrss_mb"]
        total = sum(stage_s.values())
        for stage, s in stage_s.items():
            m[f"{LAYER.get(stage, stage)}.share"] = s / total

        ing = [by_stage["ingest"]]
        m["ingest.parse_s"] = busy(ing, "ingest.parse_stream")
        m["ingest.records_s"] = busy(ing, "ingest.build_post_records")
        m["ingest.filter_s"] = busy(ing, "ingest.filter_corpus")
        m["ingest.parse_event_per_s"] = kern["parse_event_per_s"]
        m["ingest.events"] = counter("ingest.parse_stream.events")
        m["ingest.parse_errors"] = counter("ingest.parse_stream.errors")
        m["ingest.posts_kept_ratio"] = ratio(counter("ingest.posts_kept"),
                                             counter("ingest.posts_in"))

        ann = [by_stage["annotate"]]
        m["annotate.themes_s"] = busy(ann, "annotate.annotate_themes")
        m["annotate.topics_s"] = busy(ann, "annotate.annotate_topics")
        m["annotate.stances_s"] = busy(ann, "annotate.annotate_stances")
        m["annotate.store_append_s"] = busy(ann, "annotate.store_append")
        m["annotate.labels"] = counter("annotate.labels")
        calls = counter("providers.annotate.calls")
        durations = [d for r in cold for d in r["samples"].get("providers.annotate", [])]
        m["providers.calls"] = calls
        m["providers.call_s"] = busy(cold, "providers.annotate")
        m["providers.call_ms_p50"] = median(durations) * 1000.0 if durations else 0.0
        m["providers.labels_per_call"] = ratio(m["annotate.labels"], calls)

        m["graphs.bipartite_s"] = busy(cold, "graphs.build_bipartite")
        m["graphs.project_s"] = busy(cold, "graphs.project_reposts")
        m["graphs.write_s"] = busy(cold, "graphs.write")
        m["graphs.load_s"] = busy(cold, "graphs.load_graph")
        m["graphs.nodes"] = counter("graphs.nodes")
        m["graphs.edges"] = counter("graphs.edges")
        m["graphs.reposts_scanned"] = counter("graphs.reposts_scanned")
        m["graphs.edges_per_scanned"] = ratio(m["graphs.edges"], m["graphs.reposts_scanned"])

        grp = [by_stage["groups"]]
        m["groups.detect_s"] = busy(grp, "groups.detect")
        m["groups.content_s"] = busy(grp, "groups.content_groups")
        m["groups.sweeps"] = counter("groups.sweeps")
        m["groups.node_visits"] = counter("groups.node_visits")
        m["groups.node_visits_per_s"] = kern["node_visits_per_s"]
        m["groups.runs_at_best_ratio"] = ratio(counter("groups.runs_at_best"),
                                               counter("groups.runs"))

        m["metrics.report_s"] = busy([by_stage["metrics"]], "metrics.report")
        m["metrics.edges_per_s"] = kern["metric_edges_per_s"]
        xt = [by_stage["crosstopic"]]
        m["crosstopic.overlap_s"] = busy(xt, "crosstopic.overlap")
        m["crosstopic.alignment_s"] = busy(xt, "crosstopic.alignment")
        m["crosstopic.joint_s"] = busy(xt, "crosstopic.joint")
        m["report.bytes"] = sum(len(d) for d in read_bundle(run_dir).values())

        hashed = counter("pipeline.file_hash.bytes")
        distinct = {}
        for r in cold:
            distinct.update(r["file_sizes"])
        m["pipeline.hash_s"] = busy(cold, "pipeline.file_hash")
        m["pipeline.hash_mb"] = hashed / 1e6
        m["pipeline.hash_mb_per_s"] = kern["hash_mb_per_s"]
        m["pipeline.rehash_ratio"] = ratio(hashed, sum(distinct.values()))
        m["pipeline.stages_run"] = [c for r in reanalyze for c in r["cached"]].count(False)
        m["pipeline.rerun_hash_share"] = ratio(busy([rerun], "pipeline.file_hash"),
                                               rerun["spans"][0][5])
        m["trace.overhead_ratio"] = total / median(self.run_s)
        return m

    def close(self) -> None:
        """Stop the stub and count its requests as operations."""
        try:
            self.stop_stub()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self.attempted += self.stub_counts["requests"]
        self.failed += self.stub_counts["errors"]


def main() -> int:
    parser = argparse.ArgumentParser(description="polarnet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "polarnet" / "pipeline.py").is_file():
        print(f"perfbench: no polarnet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    try:
        bench.setup()
        if args.trace:
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}.json"
            values = bench.traced(args.seconds, trace_path)
            samples = len(bench.run_s)
        else:
            samples = bench.measure(args.seconds)
            values = bench.end_to_end()
    finally:
        bench.close()

    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    missing = [m["name"] for m in listed
               if not (m["name"] in values and math.isfinite(values[m["name"]])
                       and values[m["name"]] > 0)]
    if bench.attempted == 0 or missing:
        print(f"perfbench: no complete measurement; missing or not positive: {missing}",
              file=sys.stderr)
        return 1
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}  seed {args.seed}  lines {bench.truth.lines}  "
          f"samples {samples}  trace {args.trace}")
    print(f"  why: {why.get(args.workload, '')}")
    for m in listed:
        print(f"  {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_ops_ratio':<30} {bench.failed / bench.attempted:>14.6g} "
          f"({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
