"""gaborface benchmark: a seeded, paper-shaped study run through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_study --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each was chosen):

  paper_study        210 images, 10 expresser groups; every stage, 1 thread
  pooled_reanalysis  the 210 images as one group; matrices..plot with a
                     1,000-permutation test, on jets encoded before timing

A timed iteration is one fresh process (runner.py) that calls the CLI once
per stage, for each of the workload's passes over its stages.  Another
iteration starts only if, lasting as long as the last one, it would end
within --seconds of the first one's start; so there is always at least one.  Every
iteration's outputs are checked (checks.py) and digested after each pass;
the digests must agree within the invocation.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one traced
iteration of one pass and prints the per-layer metrics (spans.py);
its untraced baseline for trace.overhead_s is the saved --trace 0 result
for the same workload, seed, fixture and source digest, or a fresh
untraced iteration when there is none.  The last stdout line is the result
object; the line before it is the full record (environment, digest,
per-stage timings, sample counts, tails, failures, warning counts), also
saved under .perfbench/results/.  Inputs are generated once per seed under
.perfbench/ and reused; the jets pooled_reanalysis starts from are
encoded once per seed and source digest.  Exits 1 after printing the
result when an output check failed, and 2, printing no result, when the
checkout has no src/gaborface.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
STAGES = checks.STAGES
ANALYSIS = STAGES[1:]
SETUP_SAMPLES = 3
ITERATION_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))
END_TO_END = (("wall_s", "s"), ("images_per_s", "1/s"), ("peak_rss_mb", "MiB"),
              ("setup_s", "s"))

# config: written by fixture.py.  passes: runs of the stage sequence in one
# untraced iteration; pooled_reanalysis makes two, so that a run measures
# its ~16 s pass for nearly as long as paper_study's single ~40 s pass.  A
# third pass did not narrow the run-to-run spread and made a run too long
# for the benchmark's time limit (README.md).
# jets: the iteration starts from the jets of ensure_jets.
Workload = namedtuple("Workload", "config stages passes jets")
WORKLOADS = {
    "paper_study": Workload("study.json", STAGES, 1, False),
    "pooled_reanalysis": Workload("pooled.json", ANALYSIS, 2, True),
}


def ensure_fixture(cache, seed):
    """The study for `seed`, generated on first use by this fixture.py."""
    version = hashlib.sha256((HERE / "fixture.py").read_bytes()).hexdigest()[:12]
    study = cache / f"study-{seed}-{version}"
    if not (study / "study.json").is_file():
        tmp = study.with_name(study.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        import fixture  # numpy and scipy.ndimage: only needed to generate

        fixture.make_study(tmp, seed)
        shutil.rmtree(study, ignore_errors=True)
        os.replace(tmp, study)
    return study


def spawn(src, config, out, stages, passes, report, trace=False,
          run_id="run"):
    """Run runner.py; return (report dict or None, spawn time)."""
    cmd = [sys.executable, str(HERE / "runner.py"), "--src", str(src),
           "--config", str(config), "--out", str(out),
           "--report", str(report), "--run-id", run_id]
    cmd += ["--pass", ",".join(stages)] * passes
    if trace:
        cmd.append("--trace")
    report.unlink(missing_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"benchmark: iteration exceeded {ITERATION_TIMEOUT_S} s",
              file=sys.stderr)
        return None, started
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not report.is_file():
        return None, started
    return json.loads(report.read_text()), started


def ensure_jets(src, src_digest, study, work):
    """Jets of every study image, encoded once per seed and source digest
    by the code under test (nproc encode processes, one slice of the images
    each), so jets are never reused across versions of the code."""
    jets = study / f"jets-src{src_digest[:12]}"
    if jets.is_dir():
        return jets
    doc = json.loads((study / "study.json").read_text())
    ids = sorted(doc["expressers"])
    tmp = work / "prep"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    procs = []
    for k in range(NPROC):
        part = dict(doc, expressers={i: doc["expressers"][i] for i in ids[k::NPROC]},
                    image_dir=str((study / "images").resolve()),
                    grid_dir=str((study / "grids").resolve()),
                    ratings=str((study / "ratings.csv").resolve()))
        config = tmp / f"part{k}.json"
        config.write_text(json.dumps(part))
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "gaborface.cli", "--config", str(config),
             "--stage", "encode", "--out", str(tmp / "out")],
            env=dict(os.environ, PYTHONPATH=str(src))))
    try:
        codes = [p.wait(timeout=ITERATION_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    groups = {"all": ids}
    if any(codes) or checks.check_stage(tmp / "out", "encode", groups, True)[0]:
        raise SystemExit(f"benchmark: encoding the pooled study failed ({codes})")
    os.replace(tmp / "out" / "jets", jets)
    return jets


def groups_of(config):
    doc = json.loads(Path(config).read_text())
    groups = {}
    for image_id, group in sorted(doc["expressers"].items()):
        groups.setdefault(group, []).append(image_id)
    return groups


class Iteration:
    """One timed process: its stage calls, their checks and the digest."""

    def __init__(self, report, spawned, out, groups, stages, passes, seeded,
                 traced):
        self.report = report
        self.traced = traced
        self.records = report["stages"] if report else []
        self.setup_s = report["ready"] - spawned if report else None
        self.failed = self.attempted = 0
        calls = stages * passes
        for i, stage in enumerate(calls):
            rec = self.records[i] if i < len(self.records) else None
            good = rec is not None and rec["rc"] == 0 and rec["error"] is None
            failed, attempted = checks.check_stage(
                out, stage, groups, good, rec["warnings"] if rec else ())
            self.failed += failed
            self.attempted += attempted
        self.digest = checks.digest(out)
        # every pass must leave the same outputs
        self.digests = {self.digest}.union((report or {}).get("pass_digests", ()))
        self.complete = len(self.records) == len(calls) and self.failed == 0 \
            and len(self.digests) == 1
        self.files_written, self.bytes_written = checks.written(out, seeded)

    def span(self, first, last):
        """Seconds from the start of call `first` to the end of call `last`."""
        return self.records[last]["end"] - self.records[first]["start"]


def percentile_summary(samples):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s) if s else None, "n": n, "tail": None}
    if n >= 11:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": s[n - 11]}
    return out


def environment(src, src_digest, seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):  # optional build metadata
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "commit": git_commit(src.parent),
        "src_sha256": src_digest,
        "seed": seed,
    }


def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, else from the
    environment."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    return None


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src):
    """Identifies the measured code where the checkout is not a git tree."""
    return checks.digest_files(sorted(src.rglob("*.py")), src)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gaborface" / "__init__.py").is_file():
        print(f"benchmark: no gaborface sources under {src}", file=sys.stderr)
        return 2
    cache = root / ".perfbench"
    workload = WORKLOADS[args.workload]
    src_digest = source_digest(src)
    study = ensure_fixture(cache, args.seed)
    config = study / workload.config
    groups = groups_of(config)
    n_images = sum(len(v) for v in groups.values())
    work = cache / "work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    jets = ensure_jets(src, src_digest, study, work) if workload.jets else None
    seeded = {f"jets/{p.name}" for p in jets.iterdir()} if jets else set()
    results = cache / "results"
    results.mkdir(parents=True, exist_ok=True)
    # a saved record is only compared with runs of the same fixture and code
    name = f"{args.workload}-{study.name}-src{src_digest[:12]}"
    untraced_record = results / f"{name}-trace0.json"
    stages = workload.stages

    def iterate(passes, trace=False):
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if jets is not None:
            shutil.copytree(jets, out / "jets")
        report, spawned = spawn(src, config, out, stages, passes,
                                work / "report.json", trace=trace,
                                run_id=f"{name}-{len(runs)}")
        it = Iteration(report, spawned, out, groups, stages, passes, seeded,
                       trace)
        runs.append(it)
        return it

    runs = []
    started = time.monotonic()
    if args.trace:
        traced = iterate(1, trace=True)
        if untraced_record.is_file():
            baseline = json.loads(untraced_record.read_text())
            reference = baseline["out_digest"]
            untraced_wall = baseline["timings"]["wall_s"]["median"]
        else:
            baseline = iterate(1)
            reference = baseline.digest
            untraced_wall = baseline.span(0, len(stages) - 1)
    else:
        lasted = 0.0
        while not runs or (runs[-1].complete and time.monotonic() + lasted
                           - started <= args.seconds):
            begun = time.monotonic()
            iterate(workload.passes)
            lasted = time.monotonic() - begun
        reference = runs[0].digest
    timed = [r for r in runs if not r.traced]
    setups = [r.setup_s for r in timed if r.setup_s is not None]
    while not args.trace and len(setups) < SETUP_SAMPLES and all(r.complete for r in runs):
        report, spawned = spawn(src, config, work / "out", stages, 0,
                                work / "report.json")
        if report is None:
            break
        setups.append(report["ready"] - spawned)

    # an iteration whose outputs differ from the reference (the first
    # iteration's, or the saved untraced run's), or change from one pass to
    # the next, fails every unit
    agree = [r.digests == {reference} for r in runs]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed if ok else r.attempted for r, ok in zip(runs, agree))
    correct = failed == 0 and all(r.complete for r in runs)

    complete = [r for r in timed if r.complete]
    n, k = len(stages), len(ANALYSIS)
    passes = [(r, i) for r in complete for i in range(0, len(r.records), n)]
    walls = [r.span(i, i + n - 1) for r, i in passes]
    stage_s = {stage: [r.span(i + j, i + j) for r, i in passes]
               for j, stage in enumerate(stages)}
    analysis = [r.span(i + n - k, i + n - 1) for r, i in passes]
    encode = stage_s.get("encode", [])
    timings = {
        "wall_s": percentile_summary(walls),
        # images coded per second; a workload that does not encode counts
        # the images it re-analyses per second instead
        "images_per_s": percentile_summary([n_images / t for t in encode or walls]),
        "analysis_s": percentile_summary(analysis),
        "setup_s": percentile_summary(setups),
        "peak_rss_mb": percentile_summary(
            [r.report["maxrss_kb"] / 1024.0 for r in complete]),
        "stage_s": {stage: percentile_summary(v) for stage, v in stage_s.items()},
    }
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = spans.layer_metrics(traced, n_images, untraced_wall)
    else:
        metrics = {metric: {"value": timings[metric]["median"], "unit": unit}
                   for metric, unit in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(src, src_digest, args.seed),
        "fixture": study.name,
        "images": n_images,
        "groups": len(groups),
        "threads": 1,
        "iterations": len(timed),
        "passes_per_iteration": workload.passes,
        "out_digest": reference,
        "digests_agree": all(agree),
        "failed_frac": {"value": failed / attempted,
                        "failed": failed, "attempted": attempted},
        "warnings": checks.warning_counts(
            [rec for r in runs for rec in r.records]),
        "timings": timings,
        "measured_s": time.monotonic() - started,
    }
    if correct:  # a saved untraced record is the baseline of traced runs
        (results / f"{name}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{name}.spans.json").write_text(
            json.dumps(traced.report["spans"] if traced.report else []) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
