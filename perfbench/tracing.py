"""In-memory spans and counters around polarnet's public functions.

A ``Tracer`` replaces a function on the module or class where its caller
looks it up (``polarnet.pipeline.parse_stream``, ``LabelStore.append``,
...) with a wrapper that records a span and updates counters, then calls
the original. Nothing under ``src/`` changes. Spans are kept in memory as
``[id, name, start, end, parent, busy]`` and handed back to the parent
process, which writes the whole trace once at the end of a run.

``busy`` equals ``end - start`` except for generators, where it is the time
spent inside the generator only; a parent's self time is its duration
minus the busy time of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

now = time.perf_counter  # CLOCK_MONOTONIC: one time base for all processes


class Tracer:
    def __init__(self, prefix: str, parent: str):
        self.prefix = prefix
        self.spans: list[list] = []
        self.stack = [parent]
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.file_sizes: dict[str, int] = {}

    def begin(self, name: str) -> list:
        span = [f"{self.prefix}{len(self.spans)}", name, now(), 0.0, self.stack[-1], 0.0]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[3] = now()
        span[5] = span[3] - span[2]
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr``; ``after(args, kwargs, result)`` updates counters."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_calls(self, owner, attr: str, name: str) -> None:
        """Like ``wrap`` for high-rate calls: also counts calls, failures and
        per-call durations (kept under ``samples[name]``)."""
        original = getattr(owner, attr)
        durations = self.samples.setdefault(name, [])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            self.counters[f"{name}.calls"] += 1
            try:
                return original(*args, **kwargs)
            except BaseException:
                self.counters[f"{name}.failures"] += 1
                raise
            finally:
                self.end(span)
                durations.append(span[5])

        setattr(owner, attr, wrapper)

    def wrap_parse_stream(self, owner, attr: str, name: str) -> None:
        """Time a line-parsing generator and count what it yields and drops.

        The caller passes no ``errors`` list, so malformed lines would vanish;
        the wrapper supplies one, which only collects what is skipped anyway.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(lines, errors=None):
            sink = [] if errors is None else errors
            span = [f"{tracer.prefix}{len(tracer.spans)}", name, now(), 0.0,
                    tracer.stack[-1], 0.0]
            tracer.spans.append(span)
            inner = original(lines, sink)
            events = 0
            busy = 0.0
            try:
                while True:
                    t0 = now()
                    try:
                        event = next(inner)
                    except StopIteration:
                        busy += now() - t0
                        break
                    busy += now() - t0
                    events += 1
                    yield event
            finally:
                span[3] = now()
                span[5] = busy
                tracer.counters[f"{name}.events"] += events
                tracer.counters[f"{name}.errors"] += len(sink)

        setattr(owner, attr, wrapper)



def install(tracer: Tracer) -> None:
    """Wrap every public function the traced metrics need."""
    import polarnet.pipeline as pipeline
    import polarnet.report as report
    from polarnet.annotate import LabelStore
    from polarnet.providers import HttpProvider, MockProvider

    c = tracer.counters

    tracer.wrap_parse_stream(pipeline, "parse_stream", "ingest.parse_stream")
    tracer.wrap(pipeline, "build_post_records", "ingest.build_post_records")

    def filter_counts(args, kwargs, result):
        c["ingest.posts_in"] += len(args[0])
        c["ingest.posts_kept"] += len(result)

    tracer.wrap(pipeline, "filter_corpus", "ingest.filter_corpus", filter_counts)

    def outcome(args, kwargs, result):
        c["annotate.labels"] += result.labeled
        c["annotate.skipped"] += len(result.skipped)

    for fn in ("annotate_themes", "annotate_topics", "annotate_stances"):
        tracer.wrap(pipeline, fn, f"annotate.{fn}", outcome)
    tracer.wrap(LabelStore, "append", "annotate.store_append")
    tracer.wrap_calls(MockProvider, "annotate", "providers.annotate")
    tracer.wrap_calls(HttpProvider, "annotate", "providers.annotate")

    def scanned(args, kwargs, result):
        c["graphs.reposts_scanned"] += len(args[1])  # every topic scans all reposts

    tracer.wrap(pipeline, "build_bipartite", "graphs.build_bipartite", scanned)
    tracer.wrap(pipeline, "project_reposts", "graphs.project_reposts")

    def stats_counts(args, kwargs, result):
        c["graphs.nodes"] += result.nodes
        c["graphs.edges"] += result.edges

    tracer.wrap(pipeline, "network_stats", "graphs.network_stats", stats_counts)
    for fn in ("write_nodes_tsv", "save_graph", "export_csv"):
        tracer.wrap(pipeline, fn, "graphs.write")
    tracer.wrap(pipeline, "load_graph", "graphs.load_graph")

    def detect_counts(args, kwargs, result):
        partition, runs = result
        nodes = len(args[0].nodes)
        c["groups.runs"] += len(runs)
        c["groups.sweeps"] += sum(r.sweeps for r in runs)
        c["groups.node_visits"] += sum(r.sweeps for r in runs) * nodes
        c["groups.runs_at_best"] += sum(abs(r.dl - partition.dl) <= 1e-9 for r in runs)

    tracer.wrap(pipeline, "detect_structural_groups_with_diagnostics",
                "groups.detect", detect_counts)
    tracer.wrap(pipeline, "content_groups", "groups.content_groups")
    tracer.wrap(pipeline, "stance_metric_report", "metrics.report")
    tracer.wrap(pipeline, "structural_metric_report", "metrics.report")
    tracer.wrap(pipeline, "jaccard_matrix", "crosstopic.overlap")
    tracer.wrap(pipeline, "topic_hypergraph", "crosstopic.overlap")
    tracer.wrap(pipeline, "alignment_matrix", "crosstopic.alignment")
    tracer.wrap(pipeline, "joint_stance_table", "crosstopic.joint")
    tracer.wrap(report, "render_report", "report.render")

    def hashed(args, kwargs, result):
        path = str(args[0] if args else kwargs["path"])
        size = os.path.getsize(path)
        c["pipeline.file_hash.bytes"] += size
        tracer.file_sizes[path] = size

    tracer.wrap(pipeline, "file_hash", "pipeline.file_hash", hashed)
