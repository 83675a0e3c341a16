"""Importing real measurement data into the pipeline.

The analysis pipeline runs unchanged on real M-Lab-style exports: this
module validates and normalises a CSV into the measurement-frame schema
that :func:`repro.pipeline.run_ixp_study` consumes, and can derive the
``ixps`` crossing column from raw hop IPs plus a PeeringDB-style prefix
list — the exact evidence chain of the paper.

Expected input columns (M-Lab NDT + traceroute join, simplified):

    asn, city, time_hour, rtt_ms            (required)
    hop_ips                                 ("|"-separated, optional)
    trigger, server_site                    (optional)

Everything else the pipeline needs (``unit``, ``day``, ``ixps``,
``crosses_ixp``) is derived here, once per distinct key rather than once
per row, and written as codes (:meth:`~repro.frames.Column.from_codes`)
the way the measurement generator writes them.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.chaos.runtime import fault_point
from repro.errors import FrameError
from repro.frames.column import KIND_INT, Column, code_dtype
from repro.frames.frame import Frame
from repro.frames.io import read_csv_text
from repro.netsim.ids import Prefix
from repro.obs import get_metrics, span

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("asn", "city", "time_hour", "rtt_ms")


def load_ixp_prefixes(records: Mapping[str, Sequence[str]]) -> dict[str, list[Prefix]]:
    """Parse a PeeringDB-style mapping of exchange name to LAN prefixes."""
    out: dict[str, list[Prefix]] = {}
    for name, prefixes in records.items():
        out[name] = [Prefix.parse(p) for p in prefixes]
    return out


def detect_crossings_from_hops(
    hop_ips: str, prefixes: dict[str, list[Prefix]]
) -> list[str]:
    """Exchanges whose LAN contains any of the ``|``-separated hop IPs."""
    seen: list[str] = []
    for ip in str(hop_ips).split("|"):
        ip = ip.strip()
        if not ip:
            continue
        for name, lans in prefixes.items():
            if name in seen:
                continue
            try:
                if any(lan.contains(ip) for lan in lans):
                    seen.append(name)
            except Exception:
                continue  # unparseable hop entries ('*') are skipped
    return seen


def normalise_measurements(
    raw: Frame,
    ixp_prefixes: dict[str, list[Prefix]] | None = None,
) -> Frame:
    """Validate a raw import and derive the pipeline's expected columns.

    ``unit`` is labelled once per distinct ⟨asn, city⟩, ``ixps`` once per
    distinct ``hop_ips`` and ``crosses_ixp`` once per distinct ``ixps``;
    ``day`` is one floor-divide of ``time_hour``.  ``unit``, ``day``, a
    derived ``ixps`` and the filled-in label columns are stored as codes.

    Raises :class:`FrameError` with an actionable message when required
    columns are missing or malformed.
    """
    missing = [c for c in REQUIRED_COLUMNS if c not in raw]
    if missing:
        raise FrameError(
            f"measurement import is missing required columns {missing}; "
            f"have {raw.column_names}"
        )
    for col in ("time_hour", "rtt_ms"):
        raw.numeric(col)  # raises when non-numeric

    out = raw.drop_missing(["asn", "city", "time_hour", "rtt_ms"])
    if out.num_rows == 0:
        raise FrameError("no complete measurement rows after dropping missing")

    key_codes, keys = out.encode_keys(["asn", "city"])
    out = out.with_column(
        "unit", _label_column("unit", key_codes, [f"AS{int(a)}/{c}" for a, c in keys])
    )
    hours = out.numeric("time_hour")
    if not np.isfinite(hours).all():
        raise FrameError("measurement import has non-finite time_hour values")
    days, day_codes = np.unique(np.floor_divide(hours, 24.0), return_inverse=True)
    day_codes = day_codes.astype(code_dtype(len(days)))
    out = out.with_column(
        "day", Column.from_codes("day", day_codes, days.astype(np.int64), kind=KIND_INT)
    )

    if "ixps" not in out:
        if ixp_prefixes and "hop_ips" in out:
            hop_codes, hops = out.column("hop_ips").factorize()
            crossed = [
                ",".join(detect_crossings_from_hops(h or "", ixp_prefixes)) for h in hops
            ]
            out = out.with_column("ixps", _label_column("ixps", hop_codes, crossed))
        else:
            out = out.with_column("ixps", _constant_column("ixps", "", out.num_rows))
    ixp_codes, ixps = out.column("ixps").factorize()
    crosses = np.array([bool(v) for v in ixps], dtype=bool)
    out = out.with_column("crosses_ixp", crosses[ixp_codes])

    for name, value in (("trigger", "unknown"), ("server_site", "default"), ("as_path", "")):
        if name not in out:
            out = out.with_column(name, _constant_column(name, value, out.num_rows))
    return out


def _label_column(name: str, codes: np.ndarray, labels: Sequence[Any]) -> Column:
    """Row *i* labelled ``labels[codes[i]]``, stored as codes over distinct labels.

    *codes* number their keys by first appearance (a ``factorize``);
    keys that share a label share its code.
    """
    table: dict[Any, int] = {}
    remap = [table.setdefault(label, len(table)) for label in labels]
    lookup = np.array(remap, dtype=code_dtype(len(table)))
    return Column.from_codes(name, lookup[codes], list(table))


def _constant_column(name: str, value: Any, n: int) -> Column:
    """*n* rows of one label, stored as codes."""
    return Column.from_codes(name, np.zeros(n, dtype=code_dtype(1)), [value])


def read_measurement_csv(path: str | Path) -> Frame:
    """Read a measurement CSV, surviving a truncated final line.

    A crashed or killed writer leaves its last row half-written (no
    trailing newline).  A truncated numeric cell can still parse —
    ``123.4`` cut to ``123`` is a silently wrong measurement — so any
    unterminated final line is dropped with a warning rather than
    trusted.  The raw text also passes through the ``"import.read"``
    fault point, where a chaos plan may truncate or garble it.
    """
    with open(path, newline="") as f:
        text = f.read()
    text = fault_point("import.read", key=str(path), value=text)
    if text and not text.endswith("\n"):
        head, _, tail = text.rpartition("\n")
        logger.warning(
            "%s: dropping truncated final CSV line (%d bytes): %.60s",
            path, len(tail), tail,
        )
        get_metrics().counter(
            "import_rows_dropped_total",
            "truncated trailing CSV lines dropped on import",
        ).inc()
        text = head + "\n" if head else ""
    return read_csv_text(text)


def import_csv(
    path: str | Path,
    ixp_prefixes: dict[str, list[Prefix]] | None = None,
) -> Frame:
    """Read and normalise a measurement CSV in one call."""
    with span("import.csv", path=str(path)) as sp:
        frame = normalise_measurements(read_measurement_csv(path), ixp_prefixes)
        sp.set(rows=frame.num_rows)
    get_metrics().counter(
        "measurements_imported_total", "measurement rows imported from CSV"
    ).inc(frame.num_rows)
    logger.info("imported %d measurement rows from %s", frame.num_rows, path)
    return frame
