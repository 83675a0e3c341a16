"""A minimal columnar-frame substrate (the library's pandas stand-in).

Public API:

- :class:`Column` — a named, typed 1-D array; an object column may be
  dictionary-encoded (:meth:`Column.from_codes`).
- :class:`Frame` — an ordered collection of equal-length columns with
  relational verbs (filter, sort, select, derive, concat).
- :func:`group_by` / :class:`GroupedFrame` — split-apply-combine.
- :func:`pivot_grid` — long-to-wide reshaping into a dense grid (the
  panel builder, :func:`repro.synthcontrol.build_panel`, reads it).
- :func:`read_csv` / :func:`write_csv` — CSV I/O.
"""

from repro.frames.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJECT,
    Column,
    infer_kind,
)
from repro.frames.frame import Frame
from repro.frames.groupby import GroupedFrame, group_by, pivot_grid
from repro.frames.io import read_csv, read_csv_text, to_csv_text, write_csv

__all__ = [
    "Column",
    "Frame",
    "GroupedFrame",
    "KIND_BOOL",
    "KIND_FLOAT",
    "KIND_INT",
    "KIND_OBJECT",
    "group_by",
    "infer_kind",
    "pivot_grid",
    "read_csv",
    "read_csv_text",
    "to_csv_text",
    "write_csv",
]
