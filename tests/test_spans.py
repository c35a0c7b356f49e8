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


def test_permutation_count_reads_the_wrapped_significance_call():
    # rank_stats.permutations sums the `permutations` argument of each
    # traced significance call; the t-approximation makes none
    code = """
import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
from scipy.spatial.distance import pdist, squareform
import spans
from gaborface import PairMatrix, rank_stats
tracer = spans.Tracer("check")
spans.install(tracer)
rng = np.random.default_rng(0)
ids = tuple(f"i{k}" for k in range(6))
model, semantic = (PairMatrix(ids, squareform(pdist(rng.standard_normal((6, 2)))),
                              "dissimilarity") for _ in range(2))
for permutations in (50, None):
    rank_stats.correlate_model_with_ratings([model], semantic,
                                            permutations=permutations)
print([(s["name"], s.get("permutations")) for s in tracer.spans])
"""
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                          str(ROOT / "src")], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([
        ("rank_stats.correlate", None), ("rank_stats.significance", 50),
        ("rank_stats.correlate", None)])
