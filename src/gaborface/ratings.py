"""Averaged semantic rating vectors and their Euclidean dissimilarity."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .similarity import distance_matrix

RATING_MIN = 1.0
RATING_MAX = 5.0


@dataclass(frozen=True)
class RatingVector:
    """Per-adjective mean ratings for one image, five-point scale."""

    image_id: str
    adjectives: tuple
    values: np.ndarray

    def __post_init__(self):
        if len(self.adjectives) not in (5, 6):
            raise ParameterError(
                f"expected 5 or 6 adjectives, got {len(self.adjectives)}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.size != len(self.adjectives):
            raise ParameterError("values length must match adjective count")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("rating values must be finite")
        if np.any(vals < RATING_MIN) or np.any(vals > RATING_MAX):
            raise ParameterError(
                f"rating values must lie in [{RATING_MIN}, {RATING_MAX}]"
            )
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "adjectives", tuple(self.adjectives))


def load_ratings(table):
    """Parse a ratings CSV (header: image_id plus 5 or 6 adjective columns)."""
    if hasattr(table, "read"):
        table = table.read()
    try:
        rows = list(csv.reader(io.StringIO(table)))
    except csv.Error as exc:
        raise FormatError(f"malformed ratings table: {exc}") from exc
    if not rows:
        raise FormatError("empty ratings table")
    header = rows[0]
    if not header or header[0] != "image_id":
        raise FormatError("first column must be image_id")
    adjectives = tuple(header[1:])
    if len(adjectives) not in (5, 6):
        raise FormatError(
            f"expected 5 or 6 adjective columns, found {len(adjectives)}"
        )
    vectors = []
    seen = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(
                f"row {row_no}: expected {len(header)} cells, found {len(row)}"
            )
        if row[0] in seen:
            raise FormatError(f"row {row_no}: image_id {row[0]!r} repeats an earlier row")
        seen.add(row[0])
        values = []
        for col_no, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise FormatError(
                    f"row {row_no}, column {col_no}: non-numeric cell {cell!r}"
                ) from None
            if not RATING_MIN <= value <= RATING_MAX:
                raise FormatError(
                    f"row {row_no}, column {col_no}: value {value} outside "
                    f"[{RATING_MIN}, {RATING_MAX}]"
                )
            values.append(value)
        vectors.append(RatingVector(row[0], adjectives, np.array(values)))
    return vectors


def dump_ratings(vectors):
    """Serialize rating vectors back to CSV; floats round-trip exactly."""
    if not vectors:
        raise ParameterError("nothing to serialize")
    adjectives = vectors[0].adjectives
    lines = ["image_id," + ",".join(adjectives)]
    for vec in vectors:
        if vec.adjectives != adjectives:
            raise ParameterError(
                f"adjective mismatch for {vec.image_id!r}: "
                f"{vec.adjectives} vs {adjectives}"
            )
        lines.append(vec.image_id + "," + ",".join(repr(float(v)) for v in vec.values))
    return "\n".join(lines) + "\n"


def semantic_matrix(vectors):
    """Pairwise Euclidean dissimilarity matrix of a list of rating vectors."""
    adjective_lists = {v.adjectives for v in vectors}
    if len(adjective_lists) > 1:
        raise DimensionError(f"adjective lists differ: {sorted(adjective_lists)}")
    return distance_matrix([v.image_id for v in vectors], [v.values for v in vectors])
