"""The benchmark's spans wrap module attributes by name (perfbench/spans.py):
installing them fails when a wrapped function is renamed or removed.  Its
runner (perfbench/runner.py) calls into the package outside any stage too."""

import json
import subprocess
import sys
from pathlib import Path

from synthetic_study import make_synthetic_study

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
    # traced significance call, the default included
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
for draws in ({"permutations": 50}, {}):
    rank_stats.correlate_model_with_ratings([model], semantic, **draws)
print([(s["name"], s.get("permutations")) for s in tracer.spans])
"""
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                          str(ROOT / "src")], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([
        ("rank_stats.correlate", None), ("rank_stats.significance", 50),
        ("rank_stats.correlate", None), ("rank_stats.significance", 999)])


def test_benchmark_runner_set_up(tmp_path):
    # with no --pass the runner only loads the study config and reads the
    # bank's filter windows for its kernel sample count
    config_path = make_synthetic_study(tmp_path / "study", n_images=4)
    report = tmp_path / "report.json"
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "runner.py"),
                          "--src", str(ROOT / "src"), "--config", str(config_path),
                          "--out", str(tmp_path / "out"), "--report", str(report)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    doc = json.loads(report.read_text())
    assert doc["stages"] == [] and doc["pass_digests"] == []
    # 6 orientations at window widths 25, 49 and 97 in the default bank
    assert doc["kernel_samples_per_jet"] == 6 * (25**2 + 49**2 + 97**2) == 74610


def test_every_wrapped_layer_records_a_span(tmp_path):
    # every stage of the 6-image study, one CLI call each as the runner
    # makes them: a stage that stops calling a layer through the name the
    # tracer wraps would leave that layer's metrics at 0 in a traced run.
    # The CLI calls compute_jets, not compute_jet, so that one records none.
    config_path = make_synthetic_study(tmp_path / "study", n_images=6)
    code = """
import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from checks import STAGES
from gaborface import cli
wrapped = []
class Tracer(spans.Tracer):
    def wrap(self, module, attr, name, label=None, after=None):
        wrapped.append(name)
        super().wrap(module, attr, name, label, after)
tracer = Tracer("check")
spans.install(tracer)
for stage in STAGES:
    argv = ["--config", sys.argv[3], "--stage", stage, "--out", sys.argv[4]]
    assert cli.main(argv) == 0, stage
recorded = {span["name"] for span in tracer.spans}
print([name for name in wrapped if name not in recorded
       and not any(r.startswith(name + ".") for r in recorded)])
print(sorted(r for r in recorded if r.startswith("similarity.")))
"""
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                          str(ROOT / "src"), str(config_path), str(tmp_path / "out")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "['gabor.compute_jet']",
        "['similarity.pairwise_matrix.gabor', 'similarity.pairwise_matrix.geometry']"]
