"""The runtime imports nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import polarnet

PACKAGE = Path(polarnet.__file__).parent


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in absolute_imports(tree):
            top = name.split(".")[0]
            if top != "polarnet" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{lineno}: {name}")
    assert outside == []


def test_http_client_is_imported_only_when_used():
    # a run with the mock provider never sends a request, so importing the
    # command line and the runner loads no HTTP or TLS modules
    code = ("import sys, polarnet.cli, polarnet.pipeline; "
            "print(sorted({'ssl', 'http.client', 'urllib.request'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
