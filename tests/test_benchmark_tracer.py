import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps polarnet functions by name, so renaming or
    # deleting one of them makes every traced benchmark run fail
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer('t', 'r'))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
