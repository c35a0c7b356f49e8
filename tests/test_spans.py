"""The benchmark's spans wrap module attributes by name (perfbench/spans.py):
installing them fails when a wrapped function is renamed or removed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_spans_install():
    # in a subprocess, so the wrappers do not leak into other tests
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.install(spans.Tracer('check')); print('ok')")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                          str(ROOT / "src")], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
