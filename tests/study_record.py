"""A record of what the study computes: every out/ file of the 6-image
synthetic study, run once with the options make_synthetic_study writes and
once with a permutation test and a dimension scan as well.

tests/test_study_record.py runs both studies again and compares each file
with the record in tests/study_record.json.  Strings, integers and keys
must match exactly, and floats within REL_TOL relative, so that another
BLAS or LAPACK build passes and a changed result fails.  A JSON file is
compared by its value; a CSV, TXT or SVG file line by line, cell by cell,
where a cell is a comma-separated field of a CSV line, and a number or a
run of other text in a TXT or SVG line.

A change that moves an output by design rewrites the record with

    PYTHONPATH=src python tests/study_record.py

which first prints each difference from the old record, so that the change
can name every file and field it moved, and why.
"""

import json
import math
import re
import tempfile
from pathlib import Path

from gaborface.cli import main
from synthetic_study import make_synthetic_study

RECORD = Path(__file__).with_name("study_record.json")
RUNS = {"default": {}, "options": {"permutations": 99, "scan_dims": 3}}
# jets moved by +-1 ulp move no later output by more than 4.6e-11 relative
REL_TOL = 1e-9
# a decimal number that is not part of a word or path such as "img00",
# "#1f77b4" or "w3.org/2000/svg"
NUMBER = re.compile(r"(?<![\w./])(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(?![\w./])")


def run_studies(root):
    """{"<run>/<path under out/>": content} of every file of each run in RUNS,
    built under the directory `root`."""
    record = {}
    for run, options in RUNS.items():
        config_path = make_synthetic_study(Path(root) / run, n_images=6)
        doc = json.loads(config_path.read_text())
        doc["options"].update(options)
        config_path.write_text(json.dumps(doc))
        if main(["--config", str(config_path)]) != 0:
            raise RuntimeError(f"the {run!r} study failed")
        out = config_path.parent / "out"
        for path in sorted(out.rglob("*")):
            if path.is_file():
                record[f"{run}/{path.relative_to(out).as_posix()}"] = content(path)
    return record


def content(path):
    """A JSON file's value, or a text file's lines as lists of cells."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
    return [[_cell(c) for c in NUMBER.split(line) if c] for line in text.splitlines()]


def _cell(text):
    """An int or float for a number, else the text itself."""
    if NUMBER.fullmatch(text):
        return int(text) if text.lstrip("-").isdigit() else float(text)
    return text


def differences(want, got):
    """'<file>: <field>: ...' for each way the record `got` differs from
    the record `want`."""
    found = [f"{name}: missing" for name in want if name not in got]
    found += [f"{name}: not in the record" for name in got if name not in want]
    for name in sorted(want.keys() & got.keys()):
        text = not name.endswith(".json")
        found += [f"{name}: {field or 'the file'}: {what}"
                  for field, what in _compare(want[name], got[name], (), text)]
    return found


def _compare(want, got, path, text):
    """(field, what differs) for each difference of two content values."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            if key not in got:
                yield _field(path, text), f"key {key!r} is missing"
            elif key not in want:
                yield _field(path, text), f"key {key!r} is not in the record"
            else:
                yield from _compare(want[key], got[key], (*path, key), text)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield _field(path, text), f"{len(got)} items, recorded {len(want)}"
        else:
            for i, (w, g) in enumerate(zip(want, got)):
                yield from _compare(w, g, (*path, i), text)
    elif type(want) is not type(got) or not (
            math.isclose(want, got, rel_tol=REL_TOL) if isinstance(want, float)
            else want == got):
        yield _field(path, text), f"{got!r}, recorded {want!r}"


def _field(path, text):
    """A JSON field as key.key[index], a text file's as line L, cell C."""
    if text:
        return ", ".join(f"{kind} {i + 1}" for kind, i in zip(("line", "cell"), path))
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def write_record(record):
    """The record as JSON, one line per file, so that a diff names the files."""
    lines = (f"{json.dumps(name)}: "
             f"{json.dumps(value, sort_keys=True, separators=(',', ':'))}"
             for name, value in sorted(record.items()))
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    old = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        new = run_studies(root)
    found = differences(old, new)
    print("\n".join(found) if found else "no difference")
    write_record(new)
    print(f"wrote {RECORD} ({len(found)} difference(s))")
