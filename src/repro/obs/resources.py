"""Background resource sampling for long-running studies.

The paper's complaint is that repeated measurements arrive without the
runtime context needed to explain drift; a weeks-long streaming study
has the same problem in miniature — when batch 4 000 is suddenly slow,
nobody recorded whether the process was swapping, a worker had died, or
the checkpoint journal had grown into the gigabytes.  The
:class:`ResourceSampler` closes that gap: a daemon thread that
periodically snapshots

- process RSS (``/proc/self/statm``, with a ``getrusage`` fallback),
- checkpoint-journal bytes
  (:func:`~repro.pipeline.checkpoint.live_checkpoint_bytes`),
- executor queue depth and worker liveness
  (:func:`~repro.pipeline.executor.live_executor_stats`; non-zero only
  while a campaign's stage A runs on a process pool), and
- GC pressure (generation counters, cumulative collections)

into timestamped :class:`~repro.obs.metrics.GaugeSeries` in the active
:class:`~repro.obs.metrics.MetricsRegistry`, where the telemetry
endpoint (:mod:`repro.obs.serve`) and ``--metrics`` exposition pick
them up.

The sampler is strictly an *observer*: it never touches study state, a
sampler that records zero samples leaves the registry untouched, and
study rows are bit-identical with it on or off (the P9 benchmark pins
this).  It is opt-in — nothing in the pipeline starts one — so tests
and deterministic runs see a no-op unless they enable it themselves.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, get_metrics

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """This process's resident set size in bytes.

    Reads ``/proc/self/statm`` (resident pages x page size) where procfs
    exists; falls back to ``getrusage`` (``ru_maxrss`` is the peak, in
    KiB on Linux/BSD) elsewhere, preferring a slightly wrong number to a
    missing gauge.
    """
    try:
        with open("/proc/self/statm") as f:
            fields = f.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass(frozen=True)
class ResourceSample:
    """One point-in-time reading of every sampled resource."""

    unix_time: float
    rss_bytes: int
    checkpoint_bytes: int
    queue_depth: int
    workers_alive: int
    gc_objects: int
    gc_collections: int


#: ``(series name, help text, ResourceSample attribute)`` for every gauge
#: series the sampler maintains.
SERIES: tuple[tuple[str, str, str], ...] = (
    ("process_rss_bytes", "resident set size of the study process", "rss_bytes"),
    (
        "checkpoint_journal_bytes",
        "on-disk bytes of open checkpoint journals",
        "checkpoint_bytes",
    ),
    ("executor_queue_depth", "submitted-but-unsettled pool tasks", "queue_depth"),
    ("executor_workers_alive", "live pool worker processes", "workers_alive"),
    (
        "gc_pending_objects",
        "sum of the cyclic GC's generation counters (allocation pressure)",
        "gc_objects",
    ),
    ("gc_collections", "cumulative GC collections, all generations", "gc_collections"),
)


def take_resource_sample(unix_time: float | None = None) -> ResourceSample:
    """Read every sampled resource once, right now.

    Pipeline modules are imported lazily so ``repro.obs`` stays
    importable (and cheap) without the pipeline stack.
    """
    from repro.pipeline.checkpoint import live_checkpoint_bytes
    from repro.pipeline.executor import live_executor_stats

    executor = live_executor_stats()
    return ResourceSample(
        unix_time=time.time() if unix_time is None else float(unix_time),
        rss_bytes=read_rss_bytes(),
        checkpoint_bytes=live_checkpoint_bytes(),
        queue_depth=executor["queue_depth"],
        workers_alive=executor["workers_alive"],
        # get_count() reads three integers; never len(gc.get_objects()),
        # which materializes the whole heap and costs O(objects) per tick.
        gc_objects=sum(gc.get_count()),
        gc_collections=sum(s["collections"] for s in gc.get_stats()),
    )


class ResourceSampler:
    """A daemon thread recording :class:`ResourceSample`\\ s on an interval.

    Use as a context manager (or ``start()``/``stop()``, both
    idempotent).  Each tick lands one :class:`ResourceSample` in
    :attr:`samples` and one point in each of the :data:`SERIES` gauge
    series of *registry* (default: the process registry at sample
    time, so a CLI ``--metrics`` swap is respected).  *on_sample*, when
    given, is called with each sample — the telemetry endpoint's hook.

    ``stop()`` takes one final sample before joining, so even a
    sampler stopped before its first interval elapses documents the
    run's end state.
    """

    def __init__(
        self,
        interval_s: float = 0.5,
        registry: MetricsRegistry | None = None,
        on_sample: Callable[[ResourceSample], None] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"sampler interval must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.registry = registry
        self.on_sample = on_sample
        self.samples: list[ResourceSample] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample_once(self) -> ResourceSample:
        """Take and record one sample immediately (also used per tick)."""
        sample = take_resource_sample()
        registry = self.registry if self.registry is not None else get_metrics()
        for name, help_, attr in SERIES:
            registry.series(name, help_).record(
                getattr(sample, attr), unix_time=sample.unix_time
            )
        self.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)
        return sample

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> "ResourceSampler":
        """Start the sampling thread (no-op if already running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread, then take one final sample (no-op if stopped)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(5.0, 4 * self.interval_s))
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False
