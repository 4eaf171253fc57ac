import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import fixture_config
from polarnet.config import config_to_dict
from polarnet.synthetic import make_event_stream

ROOT = Path(__file__).parents[1]

# Installs the benchmark's tracer, recording the span name of every wrapper
# it sets, runs the pipeline of the config given as JSON in argv[1], and
# prints the wrapped names, the names that got no span and the counters.
TRACED_RUN = """
import json, sys
import tracing
from polarnet.config import config_from_dict
from polarnet.pipeline import run_pipeline
tracer = tracing.Tracer("t", "r")
wrapped = set()
for method in ("wrap", "wrap_calls", "wrap_parse_stream"):
    def record(owner, attr, name, *rest, _wrap=getattr(tracer, method)):
        wrapped.add(name)
        _wrap(owner, attr, name, *rest)
    setattr(tracer, method, record)
tracing.install(tracer)
run_pipeline(config_from_dict(json.loads(sys.argv[1])))
print(json.dumps({"wrapped": sorted(wrapped),
                  "missing": sorted(wrapped - {span[1] for span in tracer.spans}),
                  "counters": sorted(tracer.counters)}))
"""


def test_benchmark_tracer_installs(tmp_path):
    # perfbench/tracing.py wraps polarnet functions by name where
    # polarnet.pipeline looks them up, and its counter callbacks unpack their
    # arguments and results: renaming a wrapped function, calling it another
    # way or changing what a callback unpacks breaks every traced benchmark run
    lines, _ = make_event_stream(seed=7, n_events=3000)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    raw = config_to_dict(fixture_config(events, tmp_path / "runs"))
    raw["detection"] = dict(raw["detection"], runs=2, iters=10)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, json.dumps(raw)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert "metrics.report" in result["wrapped"]
    assert result["missing"] == []
    # one counter of each callback, so each of them ran
    for counter in ("ingest.posts_in", "annotate.labels", "graphs.reposts_scanned",
                    "graphs.nodes", "groups.runs", "pipeline.file_hash.bytes"):
        assert counter in result["counters"], counter
