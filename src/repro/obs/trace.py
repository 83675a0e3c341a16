"""Hierarchical wall-clock tracing for the study pipeline.

The paper's §4 asks measurement platforms to record *why* every
measurement was taken; this module makes the reproduction hold itself
to the same standard.  Each pipeline stage opens a :func:`span` — a
context manager (or :func:`traced` decorator) that records its name,
wall-clock duration, and free-form attributes — and nesting follows the
call structure through a context variable, so the finished trace is a
tree: a study contains an assignment span, a panel span, one donor
screen per planned unit, and a fits span; the fits span contains one
``fits.unit`` span per treated unit; each unit contains its treated
fit, one ``placebo.ensemble`` span for the stacked placebo kernel, and
one ``placebo`` span per placebo refit.

Spans are recorded *flat* (one :class:`SpanRecord` per finished span,
appended at exit in post-order) and the tree is rebuilt from parent
pointers by :mod:`repro.obs.report` or any JSONL consumer.  Worker
processes record into their own buffer; the executor ships those
buffers back with each result and :func:`merge_worker_records` grafts
them — ids remapped, order preserved — under the parent's current
span, so a parallel run yields the same tree shape as a serial one.

Tracing is on by default and deliberately cheap (no per-row spans
anywhere in the pipeline); :func:`set_tracing` / :func:`tracing_disabled`
turn it off for overhead measurement or paranoid production runs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import logging
import os
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TypeVar

_F = TypeVar("_F", bound=Callable[..., Any])

logger = logging.getLogger(__name__)


@dataclass
class SpanRecord:
    """One finished span, flat: the tree lives in the parent pointers.

    Attributes
    ----------
    name:
        Dotted stage name (``"fits.unit"``, ``"placebo"``, ...).
    span_id, parent_id:
        Process-unique ids; ``parent_id`` is None for a root span.
    start_unix:
        Absolute start time (``time.time()``), comparable across
        processes.
    duration_s:
        Wall-clock seconds from a monotonic clock.
    attrs:
        Free-form attributes (unit label, donor counts, skip reasons).
    pid:
        Process that recorded the span (workers keep theirs on merge).
    """

    name: str
    span_id: int
    parent_id: int | None
    start_unix: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)


class Tracer:
    """An append-only buffer of finished spans plus the id source."""

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self.enabled = True
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        """A fresh span id (unique within this process)."""
        return next(self._ids)

    def reset(self) -> None:
        """Drop every recorded span (tests and long-lived services)."""
        self.records.clear()

_tracer = Tracer()
_current: ContextVar[int | None] = ContextVar("repro_obs_current_span", default=None)


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def set_tracing(enabled: bool) -> bool:
    """Enable/disable span recording; returns the previous setting."""
    previous = _tracer.enabled
    _tracer.enabled = bool(enabled)
    return previous


@contextlib.contextmanager
def tracing_disabled() -> Iterator[None]:
    """Temporarily turn span recording off (overhead measurement)."""
    previous = set_tracing(False)
    try:
        yield
    finally:
        set_tracing(previous)


class _SpanHandle:
    """An open span: times itself, records itself on exit."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start_unix",
        "duration_s",
        "record",
        "_token",
        "_t0",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.record: SpanRecord | None = None
        self.duration_s = 0.0

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes discovered mid-span (donor counts, status)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self.span_id = _tracer.next_id()
        self.parent_id = _current.get()
        self._token = _current.set(self.span_id)
        self.start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        _current.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.record = SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_unix=self.start_unix,
            duration_s=self.duration_s,
            attrs=self.attrs,
        )
        _tracer.records.append(self.record)
        _observe_span_duration(self.name, self.duration_s)
        return False


def _observe_span_duration(name: str, duration_s: float) -> None:
    """The span→histogram bridge: every closed span feeds a latency histogram.

    ``--metrics`` output then carries per-stage latency *distributions*
    (``span_seconds_fits_unit_bucket{le=...}``), not just counters.  The
    bridge rides the tracing kill switch — it only runs from
    ``_SpanHandle.__exit__``, which never executes while tracing is
    disabled — and worker spans feed their *worker's* registry, whose
    histograms merge additively into the parent, so serial and parallel
    runs agree on every bucket's observation count.
    """
    from repro.obs.metrics import get_metrics

    get_metrics().histogram(
        "span_seconds_" + name.replace(".", "_").replace("-", "_"),
        help=f"wall-clock seconds of {name!r} spans",
    ).observe(duration_s)


class _NullSpan:
    """The do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    record = None
    duration_s = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

Span = _SpanHandle | _NullSpan


def span(name: str, **attrs: Any) -> Span:
    """Open a named span: ``with span("fits.unit", unit=label) as sp:``.

    Attributes passed here (or added later via ``sp.set(...)``) land in
    the finished record.  While tracing is disabled this returns a
    shared no-op handle, so instrumented code pays one truthiness check
    and nothing else.
    """
    if not _tracer.enabled:
        return _NULL_SPAN
    return _SpanHandle(name, attrs)


def traced(name: str | None = None, **attrs: Any) -> Callable[[_F], _F]:
    """Decorator form of :func:`span` (name defaults to the qualname).

    The enabled check happens per call, so decorating at import time is
    safe even if tracing is toggled later.
    """

    def decorate(fn: _F) -> _F:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def merge_worker_records(
    records: Sequence[SpanRecord], parent_id: int | None = None
) -> None:
    """Graft a worker's span buffer into this process's trace.

    Worker span ids are remapped onto fresh parent-side ids (two
    passes, since post-order buffers list children before parents) and
    the worker's root spans are re-parented under *parent_id* (default:
    the caller's current span).  Records are appended in buffer order,
    so merging one worker buffer per task, in task order, reproduces
    the serial trace's ordering.
    """
    if not _tracer.enabled or not records:
        return
    if parent_id is None:
        parent_id = _current.get()
    mapping = {r.span_id: _tracer.next_id() for r in records}
    for r in records:
        _tracer.records.append(
            SpanRecord(
                name=r.name,
                span_id=mapping[r.span_id],
                parent_id=(
                    mapping[r.parent_id]
                    if r.parent_id in mapping
                    else parent_id
                ),
                start_unix=r.start_unix,
                duration_s=r.duration_s,
                attrs=dict(r.attrs),
                pid=r.pid,
            )
        )


# -- JSONL import/export ------------------------------------------------------


def to_jsonl_lines(records: Iterable[SpanRecord]) -> Iterator[str]:
    """One compact JSON object per record (non-JSON attrs stringified)."""
    for r in records:
        yield json.dumps(
            {
                "name": r.name,
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "start_unix": r.start_unix,
                "duration_s": r.duration_s,
                "pid": r.pid,
                "attrs": r.attrs,
            },
            default=str,
            separators=(",", ":"),
        )


def export_jsonl(
    path: str | Path, records: Sequence[SpanRecord] | None = None
) -> int:
    """Write a trace (default: everything recorded so far) as JSONL.

    Returns the number of spans written.
    """
    if records is None:
        records = _tracer.records
    with open(path, "w") as f:
        for line in to_jsonl_lines(records):
            f.write(line + "\n")
    return len(records)


def load_jsonl(path: str | Path) -> list[SpanRecord]:
    """Read a JSONL trace back into :class:`SpanRecord` objects.

    A truncated final line — the signature of a writer killed
    mid-append — is dropped with a warning; a malformed line anywhere
    earlier still raises, since that is corruption, not interruption.
    """
    out: list[SpanRecord] = []
    with open(path) as f:
        lines = f.read().split("\n")
    for i, line in enumerate(lines):
        terminated = i < len(lines) - 1
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            if terminated:
                raise
            logger.warning(
                "%s: dropping truncated final trace record: %.60s", path, line
            )
            break
        if not terminated:
            logger.warning(
                "%s: dropping unterminated final trace record: %.60s", path, line
            )
            break
        out.append(
            SpanRecord(
                name=obj["name"],
                span_id=int(obj["span_id"]),
                parent_id=(
                    None if obj["parent_id"] is None else int(obj["parent_id"])
                ),
                start_unix=float(obj["start_unix"]),
                duration_s=float(obj["duration_s"]),
                attrs=dict(obj.get("attrs", {})),
                pid=int(obj.get("pid", 0)),
            )
        )
    return out
