"""Checkpoint/resume for the study pipeline.

The fit stage's :class:`~repro.pipeline.study.UnitLedger` appends every
outcome — a unit's base fit, each placebo refit, a skip — to a JSONL
checkpoint the moment it lands.  A run killed at any point (power loss,
OOM, ``kill -9``) resumes with ``resume=True``: journaled fits and
refits load from the file and only the missing ones run again, and
because every float round-trips exactly (JSON uses shortest round-trip
``repr``) the resumed study's table is **byte-identical** to an
uninterrupted run's.

The file format is one JSON object per line::

    {"kind": "header", "ixp": ..., "method": ..., "outcome": ..., ...}
    {"kind": "skip", "unit": ..., "reason": ...}
    {"kind": "unitfit", "unit": ..., "effect": ..., "donors": [...], ...}
    {"kind": "placebo", "unit": ..., "col": ..., "donor": ..., ...}
    {"kind": "batch", "index": ..., "rows": ...}

==========  ============================================================
record      meaning
==========  ============================================================
``header``  the run every record belongs to: the exchange and each
            parameter that changes a row (``method``, ``outcome``,
            ``energy``, ``ridge``, ``max_placebos``, ``min_pre_periods``,
            ``min_post_periods``, ``max_donor_missing``); a resume must
            match it field for field
``skip``    a unit the plan's screen or its base fit rejected, with the
            reason
``unitfit`` a unit's base fit: effect, RMSE ratio, periods, donors
``placebo`` one placebo refit of a unit's donor column: its RMSE ratio,
            or ``null`` and the reason it was skipped
``batch``   one fully ingested stream batch and its row count
==========  ============================================================

The batch study, the stream's finalize and every campaign scenario
write the same ``skip``/``unitfit``/``placebo`` records, so each resumes
mid-*unit*: a study killed between two of a unit's placebo records
refits only that unit's missing columns, and a campaign replays its
budget rounds around the journaled refits.  A row is not journaled; the
ledger rebuilds it from the unit's fit and refits.  ``batch`` records
are written by the streaming engine (:class:`repro.stream.StreamStudy`)
after each fully ingested measurement batch; on resume the engine
replays journaled batches into its state layer (skipping their live
refits) and validates the row counts, so a stream killed mid-batch
re-ingests exactly the unjournaled suffix.

A ``kill -9`` can land mid-append, leaving a truncated final line.
:func:`read_jsonl_tolerant` therefore drops a partial **last** record
with a warning (corruption anywhere else raises — that is damage, not
interruption), and :class:`StudyCheckpoint` truncates the file back to
the last complete record before appending, so one interrupted write
never snowballs.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError
from repro.pipeline.study import UnitFit
from repro.synthcontrol.placebo import Refit

logger = logging.getLogger(__name__)

#: Paths of journals currently open in this process, for the resource
#: sampler's checkpoint-size gauge.  Registered on open, dropped on
#: close; a path can be re-registered by a resuming run.
_LIVE_JOURNALS: set[Path] = set()


def live_checkpoint_paths() -> tuple[Path, ...]:
    """Paths of checkpoint journals currently open in this process."""
    return tuple(sorted(_LIVE_JOURNALS))


def live_checkpoint_bytes() -> int:
    """Total on-disk bytes of the currently open checkpoint journals.

    Reads sizes from the filesystem (journals are append-and-flush, so
    ``stat`` is accurate to the last flush); a journal deleted out from
    under its writer counts as zero rather than raising.
    """
    total = 0
    for path in list(_LIVE_JOURNALS):
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def read_jsonl_tolerant(path: str | Path) -> tuple[list[dict], int]:
    """Parse a JSONL file, dropping a truncated final record.

    Returns ``(records, good_bytes)`` where *good_bytes* is the byte
    offset just past the last complete record — the truncation point a
    resuming writer should append from.  A final line that is partial
    (no trailing newline, or unparseable) is dropped with a warning; a
    malformed line anywhere *before* the end raises
    :class:`~repro.errors.CheckpointError`, because mid-file corruption
    is not explainable by an interrupted append.
    """
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    records: list[dict] = []
    good_bytes = 0
    offset = 0
    for i, line in enumerate(lines):
        # Every split element except the last had a newline after it; the
        # last one is unterminated (or empty, when data ends in a newline).
        terminated = i < len(lines) - 1
        text = line.decode("utf-8", errors="replace").strip()
        if text:
            try:
                obj = json.loads(text)
                if not isinstance(obj, dict):
                    raise ValueError("record is not a JSON object")
            except ValueError as exc:
                if terminated:
                    raise CheckpointError(
                        f"{path}: malformed record mid-file "
                        f"(byte {offset}): {exc}"
                    ) from exc
                logger.warning(
                    "%s: dropping truncated final record (%d bytes): %.60s",
                    path, len(line), text,
                )
                break
            if not terminated:
                # Parses, but the writer died before the newline landed —
                # and a truncated longer record can parse as a shorter
                # one, so an unterminated record is never trusted.
                logger.warning(
                    "%s: dropping unterminated final record: %.60s", path, text
                )
                break
            records.append(obj)
            good_bytes = offset + len(line) + 1
        offset += len(line) + (1 if terminated else 0)
    return records, good_bytes


class StudyCheckpoint:
    """An append-only JSONL journal of fit-stage outcomes and stream batches.

    The header holds *ixp_name* and every keyword in *params*: the
    run's parameters that change a row, as JSON values.  Open with
    ``resume=True`` to load prior results (refusing a file whose header
    differs from this run's in any field) and continue appending after
    the last complete record; without it, any existing file is
    restarted from scratch.  Use as a context manager or call
    :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path,
        ixp_name: str,
        resume: bool = False,
        **params: Any,
    ) -> None:
        self.path = Path(path)
        self.completed_skips: dict[str, str] = {}
        self.completed_fits: dict[str, UnitFit] = {}
        self.completed_refits: dict[tuple[str, int], Refit] = {}
        self.completed_batches: dict[int, int] = {}  # batch index -> row count
        header = {"kind": "header", "ixp": ixp_name, **params}
        if resume and self.path.exists():
            records, good_bytes = read_jsonl_tolerant(self.path)
            self._load(records, header)
            with open(self.path, "r+b") as f:
                f.truncate(good_bytes)
            self._file = open(self.path, "a")
            if not records:
                self._append(header)
        else:
            self._file = open(self.path, "w")
            self._append(header)
        _LIVE_JOURNALS.add(self.path)
        logger.info(
            "checkpoint %s: %d fits and %d placebo refits loaded",
            self.path, len(self.completed_fits), len(self.completed_refits),
        )

    def _load(self, records: list[dict], header: dict) -> None:
        if records:
            first = records[0]
            if first.get("kind") != "header":
                raise CheckpointError(
                    f"{self.path}: first record is not a header; refusing to "
                    f"resume from an unrecognised file"
                )
            for field in sorted(header.keys() | first.keys()):
                if first.get(field) != header.get(field):
                    raise CheckpointError(
                        f"{self.path}: checkpoint was written for "
                        f"{field}={first.get(field)!r} but this run uses "
                        f"{header.get(field)!r}; pass a fresh checkpoint path"
                    )
        for record in records[1:]:
            self._take(record)

    def _take(self, record: dict) -> None:
        """Fold one record into the ``completed_*`` tables."""
        kind = record.get("kind")
        try:
            if kind == "skip":
                self.completed_skips[str(record["unit"])] = str(record["reason"])
            elif kind == "unitfit":
                fit = UnitFit(
                    unit=str(record["unit"]),
                    effect=float(record["effect"]),
                    rmse_ratio=float(record["rmse_ratio"]),
                    pre_periods=int(record["pre_periods"]),
                    post_periods=int(record["post_periods"]),
                    donors=tuple(str(d) for d in record["donors"]),
                )
                self.completed_fits[fit.unit] = fit
            elif kind == "placebo":
                ratio = record["ratio"]
                self.completed_refits[(str(record["unit"]), int(record["col"]))] = (
                    str(record["donor"]),
                    None if ratio is None else float(ratio),
                    str(record.get("reason", "")),
                )
            elif kind == "batch":
                self.completed_batches[int(record["index"])] = int(record["rows"])
            else:
                raise CheckpointError(f"unknown checkpoint record kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"unusable {kind} record {record!r}: {exc}") from exc

    def _append(self, record: dict) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()

    def _journal(self, record: dict) -> None:
        """Append *record* (flushed immediately) and fold it in."""
        self._append(record)
        self._take(record)

    def append_skip(self, unit: str, reason: str) -> None:
        """Journal one skipped unit."""
        self._journal({"kind": "skip", "unit": unit, "reason": reason})

    def append_fit(self, fit: UnitFit) -> None:
        """Journal one unit's base fit."""
        self._journal(
            {
                "kind": "unitfit",
                "unit": fit.unit,
                "effect": float(fit.effect),
                "rmse_ratio": float(fit.rmse_ratio),
                "pre_periods": int(fit.pre_periods),
                "post_periods": int(fit.post_periods),
                "donors": [str(d) for d in fit.donors],
            }
        )

    def append_placebo(self, unit: str, col: int, refit: Refit) -> None:
        """Journal one placebo refit of *unit*'s donor column *col*.

        *refit* is ``(donor, ratio | None, reason)``; a skipped refit's
        ``None`` ratio and reason round-trip exactly, so a resumed run
        reproduces the original run's placebo accounting.
        """
        donor, ratio, reason = refit
        self._journal(
            {
                "kind": "placebo",
                "unit": unit,
                "col": int(col),
                "donor": donor,
                "ratio": None if ratio is None else float(ratio),
                "reason": reason,
            }
        )

    def append_batch(self, index: int, rows: int) -> None:
        """Journal one fully ingested stream batch.

        A batch record only lands *after* the state layer has absorbed
        the whole batch, so a kill mid-ingest leaves the batch
        unjournaled and the resuming stream re-ingests it.
        """
        self._journal({"kind": "batch", "index": int(index), "rows": int(rows)})

    def close(self) -> None:
        """Flush, fsync, and close the journal file (idempotent).

        ``flush`` alone survives a killed *process* but not a crashed
        *host*: the records would still sit in the page cache.  The
        ``fsync`` makes every journaled unit durable against power loss
        before the descriptor closes.
        """
        _LIVE_JOURNALS.discard(self.path)
        if self._file.closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()

    def __enter__(self) -> "StudyCheckpoint":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
