"""Output checks and the output digest for one benchmark iteration.

An operation is one image in `encode`, or one (stage, expresser group)
unit in a later stage.  It fails when its stage crashed or exited
non-zero, or when its outputs fail a check:

  encode     jets/<id>.json: 34 points x 18 amplitudes, finite, >= 0
  matrices   gabor/geometry/semantic .json and .csv, n x n finite values
  correlate  summary.csv row: finite rho in [-1, 1] for both measures,
             n_pairs as expected, not `failed`; correlations/*.json
  embed      embeddings/<group>_{gabor,semantic}.json: stress in [0, 1],
             finite n x 2 coordinates, no classical-init fallback
  align      align/<group>.json: finite residual >= 0
  plot       plots/<group>_{gabor,semantic}.svg
"""

import csv
import hashlib
import json
import math
from pathlib import Path

STAGES = ("encode", "matrices", "correlate", "embed", "align", "plot")
NODES = 34
FILTERS = 18
MEASURES = ("gabor", "semantic")
# texts of the warnings the CLI emits for a classical-init fallback, an
# all-zero jet and an expresser whose correlation failed
FALLBACK_WARNING = "positive eigenvalues"
ZERO_JET_WARNING = "zero jet"
FAILED_WARNING = "failed:"


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _jet_ok(path):
    doc = _load(path)
    if not isinstance(doc, dict) or len(doc.get("points", ())) != NODES:
        return False
    for point in doc["points"]:
        amps = point.get("amplitudes")
        if not isinstance(amps, list) or len(amps) != FILTERS:
            return False
        if not _finite(amps) or min(amps) < 0:
            return False
    return True


def _matrix_ok(stem, n):
    doc = _load(stem.with_suffix(".json"))
    if not isinstance(doc, dict) or not stem.with_suffix(".csv").is_file():
        return False
    rows = doc.get("values")
    return (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n and _finite(r)
                    for r in rows))


def _summary_rows(out):
    try:
        with open(out / "summary.csv", newline="") as fh:
            return {row["expresser"]: row for row in csv.DictReader(fh)}
    except (OSError, KeyError, csv.Error):
        return {}


def _row_ok(row, pairs):
    try:
        rhos = [float(row["gabor_rho"]), float(row["geometry_rho"])]
        n_pairs = int(row["n_pairs"])
    except (TypeError, ValueError, KeyError):
        return False
    return n_pairs == pairs and all(math.isfinite(r) and -1 <= r <= 1
                                    for r in rhos)


def _embedding_ok(path, n):
    doc = _load(path)
    if not isinstance(doc, dict):
        return False
    stress, coords = doc.get("stress"), doc.get("coordinates")
    return (_finite([stress]) and 0 <= stress <= 1
            and isinstance(coords, list) and len(coords) == n
            and all(isinstance(c, list) and len(c) == 2 and _finite(c)
                    for c in coords))


def _align_ok(path):
    doc = _load(path)
    residual = doc.get("residual") if isinstance(doc, dict) else None
    return _finite([residual]) and residual >= 0


def check_stage(out, stage, groups, ok, warnings=()):
    """Failed-unit count and unit count of one stage.

    `groups` maps expresser group -> image ids; `ok` is False when the stage
    crashed, exited non-zero or never ran, which fails every unit.
    """
    if stage == "encode":
        ids = [i for members in groups.values() for i in members]
        if not ok:
            return len(ids), len(ids)
        return sum(not _jet_ok(out / "jets" / f"{i}.json") for i in ids), len(ids)
    if not ok:
        return len(groups), len(groups)
    failed = 0
    summary = _summary_rows(out) if stage == "correlate" else {}
    # a classical-init fallback means the fixture is nearly 1-d; the warning
    # does not name its group, so it fails units without attribution
    fallbacks = sum(FALLBACK_WARNING in w for w in warnings)
    for group, members in groups.items():
        n = len(members)
        if stage == "matrices":
            good = all(_matrix_ok(out / "matrices" / f"{group}_{name}", n)
                       for name in ("gabor", "geometry", "semantic"))
        elif stage == "correlate":
            good = (group in summary and _row_ok(summary[group], n * (n - 1) // 2)
                    and all((out / "correlations" / f"{group}_{m}.json").is_file()
                            for m in ("gabor", "geometry")))
        elif stage == "embed":
            good = all(_embedding_ok(out / "embeddings" / f"{group}_{m}.json", n)
                       for m in MEASURES)
        elif stage == "align":
            good = _align_ok(out / "align" / f"{group}.json")
        elif stage == "plot":
            good = all(_svg_ok(out / "plots" / f"{group}_{m}.svg")
                       for m in MEASURES)
        else:
            raise ValueError(f"unknown stage {stage!r}")
        failed += not good
    return min(len(groups), failed + fallbacks), len(groups)


def warning_counts(records):
    """Counts of the warnings that mark a degenerate input, over stage
    records.  A fallback or a failed expresser also fails units."""
    found = [w for rec in records for w in rec["warnings"]]
    return {name: sum(text in w for w in found) for name, text in (
        ("classical_init_fallbacks", FALLBACK_WARNING),
        ("zero_jets", ZERO_JET_WARNING),
        ("failed_expressers", FAILED_WARNING))}


def _svg_ok(path):
    try:
        return path.read_bytes().startswith(b"<svg")
    except OSError:
        return False


def digest(out):
    """sha256 over every file under `out`: relative path and bytes."""
    return digest_files(sorted(p for p in Path(out).rglob("*") if p.is_file()),
                        out)


def digest_files(paths, base):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.relative_to(base).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def written(out, exclude=()):
    """(files, bytes) under `out`, leaving out the files in `exclude`."""
    files = [p for p in Path(out).rglob("*")
             if p.is_file() and p.relative_to(out).as_posix() not in exclude]
    return len(files), sum(p.stat().st_size for p in files)
