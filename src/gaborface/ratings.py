"""The table of averaged semantic ratings and its Euclidean dissimilarity."""

from __future__ import annotations

import csv
import io
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .similarity import distance_matrix

RATING_MIN = 1.0
RATING_MAX = 5.0


class RatingTable(NamedTuple):
    """Per-adjective mean ratings on the five-point scale: row i of the
    (images, adjectives) array `values` rates image `image_ids[i]`."""

    image_ids: tuple
    adjectives: tuple
    values: np.ndarray


def load_ratings(table):
    """Parse the text of a ratings CSV (header: image_id plus 5 or 6
    adjective columns) into a RatingTable."""
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
    image_ids, rated = [], []
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
        image_ids.append(row[0])
        rated.append(values)
    values = np.array(rated, dtype=float).reshape(-1, len(adjectives))
    return RatingTable(tuple(image_ids), adjectives, values)


def dump_ratings(table):
    """Serialize a RatingTable back to CSV; floats round-trip exactly."""
    lines = ["image_id," + ",".join(table.adjectives)]
    lines += [image_id + "," + ",".join(map(repr, row))
              for image_id, row in zip(table.image_ids, table.values.tolist())]
    return "\n".join(lines) + "\n"


def semantic_matrix(table, ids):
    """Pairwise Euclidean dissimilarity matrix of the rating rows of `ids`."""
    rows = {image_id: i for i, image_id in enumerate(table.image_ids)}
    missing = [i for i in ids if i not in rows]
    if missing:
        raise ValidationError(f"no ratings for {missing}")
    return distance_matrix(ids, table.values[[rows[i] for i in ids]])
