"""One benchmark iteration in a fresh process: run gaborface CLI stages.

The process imports gaborface from the checkout's `src/`, loads the study
config, then calls `gaborface.cli.main` once per stage, recording the
monotonic start and end of each call, its exit code and the warnings it
issued.  Each --pass is a stage sequence, run in the order given; after
each complete pass the output directory is digested, outside the timed
calls.  Every stage runs with --threads 1.  With --trace the layer
boundaries are wrapped (see spans.py).  The report, spans included, is
written as JSON when the process ends.  No --pass measures set-up only.

Usage: python3 perfbench/runner.py --src SRC --config CONFIG --out DIR
           [--pass encode,matrices,...]... --report FILE [--trace]
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks


def peak_rss_kb():
    """This process's peak resident set.  VmHWM belongs to the process's own
    address space; ru_maxrss would also count the parent's resident set at
    fork, which exec carries over."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_stage(cli, tracer, stage, args):
    """Call the CLI for one stage; return its record."""
    argv = ["--config", args.config, "--stage", stage, "--out", args.out,
            "--threads", "1"]
    record = {"stage": stage, "rc": None, "error": None}
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.log = log
            root = tracer.begin(f"cli.{stage}")
        record["start"] = time.monotonic()
        try:
            record["rc"] = cli.main(argv)
        except Exception:  # a crash is a failed stage, reported not raised
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        record["end"] = time.monotonic()
        if tracer is not None:
            tracer.end(root)
            tracer.log = None
    record["warnings"] = [str(w.message) for w in log]
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pass", dest="passes", action="append", default=[])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import gaborface
    from gaborface import cli

    if not Path(gaborface.__file__).resolve().is_relative_to(src):
        print(f"runner: imported {gaborface.__file__}, not the package in {src}",
              file=sys.stderr)
        return 3
    config = cli.StudyConfig.from_file(args.config)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)
    ready = time.monotonic()

    records = []
    digests = []
    for stages in args.passes:
        for stage in stages.split(","):
            records.append(run_stage(cli, tracer, stage, args))
            if records[-1]["rc"] != 0:
                break
        if records[-1]["rc"] != 0:
            break
        digests.append(checks.digest(args.out))

    bank = config.bank()
    report = {
        "ready": ready,
        "stages": records,
        "pass_digests": digests,
        "maxrss_kb": peak_rss_kb(),
        "kernel_samples_per_jet": sum(
            (2 * spec.window_half_width() + 1) ** 2 for spec in bank.specs),
        "gaborface": gaborface.__file__,
        "spans": tracer.spans if tracer is not None else [],
    }
    tmp = args.report + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
