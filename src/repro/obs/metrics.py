"""A small metrics registry: counters, gauge series, fixed-bucket histograms.

The pipeline's quantitative health signals (`placebos_skipped_total`,
`donor_pool_size`, `fit_seconds`, ...) are registered here by the code
that produces them and dumped as Prometheus-style exposition text by
the CLI's ``--metrics`` flag, so two runs can be diffed (or scraped)
without parsing logs.

Instruments are get-or-create by name through the process-wide
registry (:func:`get_metrics`); worker processes record into their own
registry per task, :meth:`MetricsRegistry.snapshot` makes the state
picklable, and :meth:`MetricsRegistry.merge` folds worker snapshots
back into the parent — counters and histograms add — so serial and
parallel runs report identical values.

:class:`GaugeSeries` is a bounded, timestamped sample history — what
the resource sampler (:mod:`repro.obs.resources`) records — rendered
as a plain gauge (its latest value) in the exposition text.  Only the
parent process records them, so snapshots leave them out.

Deliberately not implemented: metric labels (beyond the histogram's
``le``) and exemplars.  Stage identity lives in the trace; metrics
stay cheap aggregates.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from repro.errors import ReproError

#: Default histogram buckets for wall-clock seconds (upper bounds; a
#: +Inf overflow bucket is always appended).
SECONDS_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default buckets for small cardinalities (donor pools, placebo counts).
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 40, 80, 160)


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the total."""
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


@dataclass(frozen=True)
class SeriesPoint:
    """One timestamped observation in a :class:`GaugeSeries`."""

    unix_time: float
    value: float


class GaugeSeries:
    """A gauge that keeps a bounded, timestamped sample history.

    The resource sampler records into these; ``render()`` exposes only
    the latest value (as a plain gauge), while :meth:`points` hands the
    history to the telemetry endpoint and to tests.  The deque bound
    keeps week-long runs from accumulating unbounded sample memory.
    """

    def __init__(self, name: str, help: str = "", capacity: int = 4096) -> None:
        self.name = name
        self.help = help
        self._points: deque[SeriesPoint] = deque(maxlen=capacity)

    def record(self, value: float, unix_time: float | None = None) -> None:
        """Append one sample (stamped now unless *unix_time* is given)."""
        when = time.time() if unix_time is None else float(unix_time)
        self._points.append(SeriesPoint(when, float(value)))

    def points(self) -> tuple[SeriesPoint, ...]:
        """The retained samples, oldest first."""
        return tuple(self._points)

    @property
    def value(self) -> float:
        """The most recent sample (0.0 if none recorded yet)."""
        return self._points[-1].value if self._points else 0.0

    @property
    def touched(self) -> bool:
        return bool(self._points)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    *buckets* are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value (bounds are inclusive, as
    in Prometheus), or in the implicit +Inf overflow bucket.
    """

    def __init__(
        self, name: str, buckets: tuple[float, ...], help: str = ""
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ReproError(
                f"histogram {name} needs strictly ascending buckets, got {buckets}"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Get-or-create home for every instrument in one process/worker.

    A re-entrant lock guards instrument *creation* and whole-registry
    reads (``snapshot``/``render``/``merge``): the telemetry server and
    the resource sampler both touch the registry from their own threads
    while the study writes to it.  Individual ``inc``/``record``/``observe``
    calls stay lock-free — they mutate single floats/ints under the GIL
    and sit on hot paths.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, GaugeSeries] = {}
        self._lock = threading.RLock()

    def _families(self) -> tuple[dict, ...]:
        return (self._counters, self._histograms, self._series)

    def _claim(self, name: str, kind: dict) -> None:
        for family in self._families():
            if family is not kind and name in family:
                raise ReproError(f"metric {name!r} already registered as another type")

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter named *name* (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.get(name)
                if c is None:
                    self._claim(name, self._counters)
                    c = self._counters[name] = Counter(name, help)
        return c

    def series(
        self, name: str, help: str = "", capacity: int = 4096
    ) -> GaugeSeries:
        """The timestamped gauge series named *name* (created on first use)."""
        s = self._series.get(name)
        if s is None:
            with self._lock:
                s = self._series.get(name)
                if s is None:
                    self._claim(name, self._series)
                    s = self._series[name] = GaugeSeries(name, help, capacity)
        return s

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = SECONDS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """The histogram named *name* (buckets fixed by the first call)."""
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.get(name)
                if h is None:
                    self._claim(name, self._histograms)
                    h = self._histograms[name] = Histogram(name, tuple(buckets), help)
                    return h
        if tuple(float(b) for b in buckets) != h.buckets:
            raise ReproError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return h

    def reset(self) -> None:
        """Forget every instrument (tests)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._series.clear()

    # -- cross-process shipping ------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable copy of the registry state (for worker results).

        Gauge series are deliberately absent: they are parent-process
        resource samples, never produced inside workers.
        """
        with self._lock:
            return {
                "counters": {
                    n: (c.help, c.value) for n, c in self._counters.items()
                },
                "histograms": {
                    n: (h.help, h.buckets, tuple(h.counts), h.sum, h.count)
                    for n, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker snapshot in: counters and histograms add."""
        with self._lock:
            for name, (help_, value) in snapshot.get("counters", {}).items():
                self.counter(name, help_).inc(value)
            for name, (help_, buckets, counts, sum_, count) in snapshot.get(
                "histograms", {}
            ).items():
                h = self.histogram(name, buckets, help_)
                for i, c in enumerate(counts):
                    h.counts[i] += c
                h.sum += sum_
                h.count += count

    # -- exposition ------------------------------------------------------------

    def render(self) -> str:
        """Prometheus-style text exposition of every instrument, sorted.

        Gauge series appear as plain gauges carrying their latest
        sample; untouched series (zero samples) are omitted so enabling
        the sampler without it ever firing changes nothing.
        """
        with self._lock:
            return self._render_locked()

    def _render_locked(self) -> str:
        lines: list[str] = []
        for name in sorted(self._counters):
            c = self._counters[name]
            if c.help:
                lines.append(f"# HELP {name} {c.help}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_fmt(c.value)}")
        for name, g in sorted(self._series.items()):
            if not g.touched:
                continue
            if g.help:
                lines.append(f"# HELP {name} {g.help}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(g.value)}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            if h.help:
                lines.append(f"# HELP {name} {h.help}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(h.buckets, h.counts):
                cumulative += count
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            cumulative += h.counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {_fmt(h.sum)}")
            lines.append(f"{name}_count {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Integers without a trailing .0, floats with repr precision."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


_registry = MetricsRegistry()

def get_metrics() -> MetricsRegistry:
    """The current process-wide registry."""
    return _registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    The executor uses this to give each worker task a fresh registry so
    snapshots ship per-task deltas, never double-counted totals.
    """
    global _registry
    previous = _registry
    _registry = registry
    return previous
