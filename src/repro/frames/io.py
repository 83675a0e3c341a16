"""CSV reading and writing for frames.

The format is plain RFC-4180-ish CSV via the stdlib ``csv`` module.  On
read, columns are type-inferred: values parse as int, then float, then
bool literals (``true``/``false``), falling back to strings; empty cells
are missing.  Inference and parsing run column-wise — one bulk numpy
cast per homogeneous column, with a per-cell fallback only for mixed
columns — and writing formats each column as one vectorized cast (a
coded label column formats each category once), so the
``simulate → import`` round-trip scales with columns, not cells.

Rows wider than the header are an error (their extra cells would
otherwise vanish silently); underscore number literals like ``1_000``,
which Python's ``int()`` accepts but no CSV writer emits, stay strings.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import FrameError
from repro.frames.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJECT,
    Column,
)
from repro.frames.frame import Frame


def _parse_cell(text: str | None) -> Any:
    if text is None or text == "":
        return None
    if "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            pass
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    return text


def _parse_column(name: str, raw: list[str | None]) -> Column:
    """Bulk-parse one column of raw CSV cells.

    Missing cells are ``None``/``""``.  Homogeneous numeric and bool
    columns are converted with one numpy cast; anything mixed falls back
    to the per-cell parser (object kind, inferred like the historical
    row-wise reader).
    """
    n = len(raw)
    missing = np.array([c is None or c == "" for c in raw], dtype=bool)
    present = [raw[i] for i in np.flatnonzero(~missing)]
    if not present:
        return Column(name, [None] * n)
    # numpy's string-to-number casts accept underscore literals ("1_000")
    # that no CSV writer emits; any underscore disqualifies the bulk
    # numeric stages (the per-cell parser rejects them too).
    if not any("_" in c for c in present):
        strings = np.asarray(present)
        if not missing.any():
            try:
                return Column(name, strings.astype(np.int64), kind=KIND_INT)
            except ValueError:
                pass
        try:
            parsed = strings.astype(np.float64)
        except ValueError:
            parsed = None
        if parsed is not None:
            values = np.full(n, np.nan)
            values[~missing] = parsed
            return Column(name, values, kind=KIND_FLOAT)
    lowered = [c.lower() for c in present]
    if all(c in ("true", "false") for c in lowered):
        bools = np.array([c == "true" for c in lowered], dtype=bool)
        if not missing.any():
            return Column(name, bools, kind=KIND_BOOL)
        values_obj: list[Any] = [None] * n
        for i, b in zip(np.flatnonzero(~missing), bools):
            values_obj[i] = bool(b)
        return Column(name, values_obj, kind=KIND_OBJECT)
    return Column(name, [_parse_cell(c) for c in raw])


def read_csv(path: str | Path) -> Frame:
    """Read a CSV file with a header row into a frame."""
    with open(path, newline="") as f:
        return read_csv_text(f.read())


def read_csv_text(text: str) -> Frame:
    """Parse CSV content (header row required) into a frame.

    Rows with fewer cells than the header are padded with missing
    values; rows with *more* cells raise :class:`FrameError` (the
    surplus cells have no column to land in).
    """
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return Frame()
    header = rows[0]
    width = len(header)
    raw: list[list[str | None]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) > width:
            raise FrameError(
                f"CSV row {line_no} has {len(row)} cells but the header "
                f"has {width} columns"
            )
        if len(row) < width:
            row = row + [None] * (width - len(row))
        raw.append(row)
    return Frame(
        [_parse_column(name, [r[j] for r in raw]) for j, name in enumerate(header)]
    )


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        if np.isnan(value):
            return ""
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _format_column(col: Column) -> Any:
    """One column of CSV cell strings, cast in bulk where possible.

    ``float64 -> str`` via numpy's unicode cast is digit-for-digit
    identical to ``repr(float(v))`` (shortest round-trip repr), so float
    columns need no Python-level loop.  A dictionary-encoded column
    formats its category table once and gathers the strings by code.
    """
    if col._codes is not None:
        return _format_values(col._categories, col.kind)[col._codes]
    return _format_values(col.values, col.kind)


def _format_values(values: np.ndarray, kind: str) -> np.ndarray:
    """CSV cell strings for one array of a column's *kind*."""
    if kind == KIND_FLOAT:
        out = values.astype("U32")
        nan_mask = np.isnan(values)
        if nan_mask.any():
            out[nan_mask] = ""
        return out
    if kind == KIND_INT:
        return values.astype("U21")
    if kind == KIND_BOOL:
        return np.where(values, "true", "false")
    out = np.empty(len(values), dtype=object)
    out[:] = [_format_cell(v) for v in values]
    return out


def write_csv(frame: Frame, path: str | Path) -> None:
    """Write *frame* to a CSV file with a header row."""
    with open(path, "w", newline="") as f:
        f.write(to_csv_text(frame))


def to_csv_text(frame: Frame) -> str:
    """Render *frame* as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(frame.column_names)
    columns = [_format_column(frame.column(n)) for n in frame.column_names]
    if columns:
        writer.writerows(zip(*columns))
    return buf.getvalue()
