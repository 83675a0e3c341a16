"""Execution backends for the study pipeline.

A campaign's seconds are in generating scenarios: building a world,
drawing its measurements, and pivoting them into a panel.  Unit fits
are a small share of any run.  So the pool works at the scenario grain
— campaign stage A maps one task per scenario
(:func:`~repro.campaign.scheduler.run_campaign`) — and every unit fit
runs in the process that planned it.  This module gives both loops a
single, order-stable primitive:

- :class:`SerialExecutor` — a plain in-process loop (the default, the
  backend every fit stage runs on, and the reference semantics the
  pool must reproduce);
- :class:`ProcessPoolBackend` — a ``concurrent.futures`` process pool
  for CPU-bound scenario generation (campaign stage A is its only
  caller in the pipeline).

Both backends expose ``map(fn, items)`` returning results **in input
order**, so a campaign run with ``n_jobs=8`` is numerically identical
to the serial run — the work is the same pure function applied to the
same arguments; only the scheduling changes.

Fault tolerance
---------------
Both backends accept a :class:`RetryPolicy`.  A task whose failure is
*transient* (:func:`repro.errors.is_transient`: injected faults, blown
deadlines, dead workers) is re-run up to ``max_attempts`` times with
exponential backoff and deterministic jitter; fatal errors — domain
errors like :class:`~repro.errors.PipelineError` and plain bugs — raise
immediately on the first attempt.  The process pool additionally
survives ``BrokenProcessPool`` (a worker OOM-killed or segfaulted): it
rebuilds the pool and requeues only the unfinished tasks, keeping
results order-stable; without retries (or once they are exhausted) the
breakage surfaces as an :class:`~repro.errors.ExecutionError` naming
the backend and the task index.  Per-task deadlines
(``RetryPolicy.timeout``) treat an overrunning task as transiently
failed and resubmit it.

Both backends are also observability-transparent: the serial loop runs
inside the caller's trace context naturally, and the process pool wraps
every task in :func:`repro.obs.capture.run_captured`, shipping each
worker's spans, metrics, and chaos fault events home with its result
and merging them — in task order, failed attempts included — under the
caller's current span.  Worker exceptions re-raise in the parent with
the worker-side traceback chained on as a
:class:`~repro.obs.capture.WorkerTraceback` cause.  The active
:class:`~repro.chaos.plan.FaultPlan`, if any, ships to workers with
each task so fault injection follows the work.

``n_jobs`` follows the scikit-learn convention: ``1`` (or ``None``)
means serial, ``-1`` means one worker per CPU, and any other positive
integer is an explicit worker count.
"""

from __future__ import annotations

import logging
import os
import time
import traceback
import weakref
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from typing import Any, TypeVar

from repro.chaos.plan import hash01
from repro.chaos.runtime import current_attempt, get_active_plan, task_attempt
from repro.errors import ExecutionError, TaskTimeoutError, is_transient
from repro.obs.capture import (
    WorkerOutcome,
    absorb_outcome,
    merge_outcome_observability,
    run_captured,
)
from repro.obs.metrics import get_metrics

logger = logging.getLogger(__name__)

_T = TypeVar("_T")
_R = TypeVar("_R")

OnResult = Callable[[int, Any], None]


def _run_captured_payload(payload: tuple) -> WorkerOutcome:
    """Module-level worker entry point (picklable): unpack and capture."""
    fn, item, plan, attempt = payload
    return run_captured(fn, item, plan=plan, attempt=attempt)


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means ``os.cpu_count()``;
    other positive integers pass through.  Anything else is rejected
    (``0`` is ambiguous and ``-2`` etc. are likely typos).
    """
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ExecutionError(
            f"n_jobs must be a positive integer or -1 (all cores), got {n_jobs}"
        )
    return int(n_jobs)


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend retries transiently failed tasks.

    Attributes
    ----------
    max_attempts:
        Total tries per task (1 = no retries).
    base_delay, max_delay:
        Exponential backoff: attempt *k* waits
        ``min(base_delay * 2**k, max_delay)`` seconds before the retry.
    jitter:
        Fractional jitter on top of the backoff.  The jitter draw is a
        deterministic hash of ``(task_index, attempt)``, so a retried
        run waits the same schedule every time — reproducibility
        extends to the recovery path.
    timeout:
        Per-task deadline in seconds (process pool only).  A task still
        running at its deadline is treated as transiently failed and
        resubmitted; ``None`` disables deadlines.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ExecutionError("retry delays and jitter must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ExecutionError(f"timeout must be positive, got {self.timeout}")

    def delay(self, attempt: int, task_index: int = 0) -> float:
        """Seconds to wait before re-running *task_index*'s retry *attempt*."""
        base = min(self.base_delay * (2**attempt), self.max_delay)
        return base * (1.0 + self.jitter * hash01("retry", task_index, attempt))


def _count_retry() -> None:
    get_metrics().counter(
        "task_retries_total", "transiently failed tasks re-run by a backend"
    ).inc()


#: Live process-pool backends, for the resource sampler's executor gauges.
#: A WeakSet so a backend that is dropped without ``close()`` (tests,
#: exceptions) never pins itself in memory or reports phantom workers.
_LIVE_BACKENDS: "weakref.WeakSet[ProcessPoolBackend]" = weakref.WeakSet()


def live_executor_stats() -> dict[str, int]:
    """Aggregate queue depth and worker liveness across live pool backends.

    ``queue_depth`` counts tasks submitted but not yet settled (retries
    requeue, so a task mid-retry still counts); ``workers_alive`` counts
    spawned worker processes currently alive.  Serial execution reports
    zeros — there is no queue and no workers to watch.
    """
    queue_depth = 0
    workers_alive = 0
    for backend in list(_LIVE_BACKENDS):
        queue_depth += backend.pending_tasks
        workers_alive += backend.alive_workers()
    return {"queue_depth": queue_depth, "workers_alive": workers_alive}


class SerialExecutor:
    """The reference backend: an ordinary loop in the calling process.

    With a :class:`RetryPolicy`, transient failures re-run in place
    (same attempt semantics as the pool, including the chaos attempt
    number); fatal errors propagate immediately.
    """

    n_jobs = 1

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.retry = retry
        self._sleep = sleep

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Iterable[_T],
        on_result: OnResult | None = None,
    ) -> list[_R]:
        """Apply *fn* to every item, in order.

        *on_result* is invoked as ``on_result(index, value)`` the moment
        each task's final value is known (checkpoint appends hook here).
        """
        results: list[_R] = []
        for index, item in enumerate(items):
            value = self._run_one(fn, item, index)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results

    def _run_one(self, fn: Callable[[_T], _R], item: _T, index: int) -> _R:
        max_attempts = self.retry.max_attempts if self.retry else 1
        # Attempt numbers compose across nested fan-outs: a unit task
        # retried at attempt 1 runs its inner placebo loop at attempt
        # 1 too, so a fire_attempts=1 fault anywhere under the task
        # stands down on the retry.
        base_attempt = current_attempt()
        for attempt in range(max_attempts):
            with task_attempt(base_attempt + attempt):
                try:
                    return fn(item)
                except Exception as exc:
                    if not is_transient(exc) or attempt + 1 >= max_attempts:
                        raise
                    _count_retry()
                    assert self.retry is not None
                    pause = self.retry.delay(attempt, index)
                    logger.warning(
                        "task %d failed transiently (%s); retry %d/%d in %.3fs",
                        index, exc, attempt + 1, max_attempts - 1, pause,
                    )
                    self._sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


class ProcessPoolBackend:
    """Fan work out over a process pool, preserving input order.

    Tasks and results cross process boundaries by pickling, so mapped
    functions must be module-level callables and their arguments
    picklable (the pipeline's task dataclasses and numpy arrays are).
    Worker exceptions propagate to the caller on result collection.

    Each task is submitted as its own future, which is what makes the
    recovery paths possible: a transiently failed or timed-out task is
    resubmitted alone, and when a worker death breaks the pool the
    backend rebuilds it and requeues exactly the unfinished tasks —
    finished results are never recomputed and output order never
    changes.
    """

    def __init__(
        self,
        n_jobs: int,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if n_jobs < 2:
            raise ExecutionError(
                f"ProcessPoolBackend needs n_jobs >= 2, got {n_jobs}"
            )
        self.n_jobs = n_jobs
        self.retry = retry
        self._sleep = sleep
        self._pool = self._make_pool()
        #: Tasks submitted to this backend and not yet settled (updated
        #: by the in-flight ``_MapState``; read by the resource sampler).
        self.pending_tasks = 0
        _LIVE_BACKENDS.add(self)

    def alive_workers(self) -> int:
        """How many of this pool's spawned worker processes are alive.

        Workers spawn lazily, so this reads 0 before the first task and
        can dip mid-run when chaos kills a worker — exactly the signal
        the sampler wants.
        """
        processes = getattr(self._pool, "_processes", None) or {}
        return sum(1 for p in list(processes.values()) if p.is_alive())

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.n_jobs)

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Iterable[_T],
        on_result: OnResult | None = None,
    ) -> list[_R]:
        """Apply *fn* to every item across the pool; results in input order.

        Every task runs under worker-side observability capture; spans,
        metrics, and fault events merge back here, in input order (the
        failed attempts of retried tasks included), so the parent's
        trace matches what a serial run would have recorded.  A task
        that exhausts its attempts re-raises its last exception with
        the worker traceback chained as the cause.  *on_result* fires
        as each task's final value lands (completion order).
        """
        work: Sequence[_T] = list(items)
        if not work:
            return []
        logger.debug("fanning %d tasks over %d workers", len(work), self.n_jobs)
        state = _MapState(self, fn, work, on_result)
        state.run()
        return state.collect()

    def _rebuild_pool(self) -> None:
        """Replace a broken pool with a fresh one (workers respawn lazily)."""
        get_metrics().counter(
            "pool_rebuilds_total", "process pools rebuilt after a worker death"
        ).inc()
        logger.warning("process pool broke (worker died); rebuilding")
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()

    def close(self) -> None:
        """Shut the pool down and reclaim the worker processes."""
        self._pool.shutdown(wait=True)
        self.pending_tasks = 0
        _LIVE_BACKENDS.discard(self)

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False


class _MapState:
    """One ``ProcessPoolBackend.map`` call's bookkeeping.

    Tracks, per task index, every attempt's :class:`WorkerOutcome` (for
    order-stable observability merging) and the final outcome; futures
    map back to indices so completions, timeouts, and pool breakage can
    all requeue precisely the tasks that still owe a result.
    """

    _WAKE_S = 0.05  # poll interval while deadlines are armed

    def __init__(
        self,
        backend: ProcessPoolBackend,
        fn: Callable,
        work: Sequence,
        on_result: OnResult | None,
    ) -> None:
        self.backend = backend
        self.fn = fn
        self.work = work
        self.on_result = on_result
        self.policy = backend.retry
        self.max_attempts = self.policy.max_attempts if self.policy else 1
        self.timeout = self.policy.timeout if self.policy else None
        self.plan = get_active_plan()
        self.base_attempt = current_attempt()  # compose under nesting
        self.attempts = [0] * len(work)
        self.buffers: list[list[WorkerOutcome]] = [[] for _ in work]
        self.final: dict[int, WorkerOutcome] = {}
        self.index_of: dict[Future, int] = {}
        self.deadline: dict[Future, float] = {}

    def run(self) -> None:
        for index in range(len(self.work)):
            self._submit(index)
        while self.index_of:
            wait_s = self._WAKE_S if self.timeout is not None else None
            done, _ = wait(
                set(self.index_of), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            broken: list[int] = []
            for future in done:
                index = self.index_of.pop(future)
                self.deadline.pop(future, None)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken.append(index)
                    continue
                except Exception as exc:  # pool-side submission failures
                    self._settle(
                        index,
                        WorkerOutcome(
                            exception=exc, traceback_text=traceback.format_exc()
                        ),
                    )
                    continue
                self._settle(index, outcome)
            if broken:
                self._handle_breakage(broken)
            if self.timeout is not None:
                self._expire_overdue()
            self.backend.pending_tasks = len(self.index_of)
        self.backend.pending_tasks = 0

    def _submit(self, index: int) -> None:
        payload = (
            self.fn,
            self.work[index],
            self.plan,
            self.base_attempt + self.attempts[index],
        )
        future = self.backend._pool.submit(_run_captured_payload, payload)
        self.index_of[future] = index
        self.backend.pending_tasks = len(self.index_of)
        if self.timeout is not None:
            self.deadline[future] = time.monotonic() + self.timeout

    def _settle(self, index: int, outcome: WorkerOutcome) -> None:
        """Record one attempt's outcome: retry it or make it final."""
        self.buffers[index].append(outcome)
        exc = outcome.exception
        if (
            exc is not None
            and is_transient(exc)
            and self.attempts[index] + 1 < self.max_attempts
        ):
            attempt = self.attempts[index]
            self.attempts[index] += 1
            _count_retry()
            if self.policy is not None:
                pause = self.policy.delay(attempt, index)
                logger.warning(
                    "task %d failed transiently (%s); retry %d/%d in %.3fs",
                    index, exc, attempt + 1, self.max_attempts - 1, pause,
                )
                self.backend._sleep(pause)
            self._submit(index)
            return
        self.final[index] = outcome
        if self.on_result is not None and outcome.exception is None:
            self.on_result(index, outcome.value)

    def _broken_outcome(self, index: int, exc: BaseException) -> WorkerOutcome:
        return WorkerOutcome(
            exception=exc,
            traceback_text=(
                f"worker process died while running task {index} "
                f"(BrokenProcessPool: {exc})"
            ),
        )

    def _handle_breakage(self, broken: Sequence[int]) -> None:
        """A worker died: rebuild the pool, requeue every in-flight task.

        Which task actually killed the worker is unknowable from the
        parent, so every in-flight task is charged one transient
        failure — with retries on they all requeue onto the fresh pool
        (which must exist before :meth:`_settle` resubmits anything);
        without, the first unfinished index surfaces the breakage.
        """
        pending = sorted(self.index_of.values())
        self.index_of.clear()
        self.deadline.clear()
        self.backend._rebuild_pool()
        for index in list(broken) + pending:
            self._settle(
                index,
                self._broken_outcome(
                    index, BrokenProcessPool("worker process died mid-task")
                ),
            )

    def _expire_overdue(self) -> None:
        """Treat tasks past their deadline as transiently failed."""
        now = time.monotonic()
        overdue = [f for f, d in self.deadline.items() if d <= now]
        for future in overdue:
            index = self.index_of.pop(future)
            del self.deadline[future]
            future.cancel()  # a no-op if already running; the result is ignored
            get_metrics().counter(
                "tasks_timed_out_total", "tasks that overran their deadline"
            ).inc()
            assert self.timeout is not None
            self._settle(
                index,
                WorkerOutcome(
                    exception=TaskTimeoutError(
                        f"task {index} exceeded its {self.timeout:g}s deadline"
                    )
                ),
            )

    def collect(self) -> list:
        """Merge observability and assemble results in input order.

        This runs after the map returns, so every outcome merges in task
        order whatever order the tasks finished in — each task's failed
        attempts first, then its final one — and a pooled run's trace,
        metrics and fault log match the serial run's.
        """
        results: list = []
        for index in range(len(self.work)):
            attempts = self.buffers[index]
            for earlier in attempts[:-1]:
                merge_outcome_observability(earlier)
            last = attempts[-1]
            exc = last.exception
            if isinstance(exc, BrokenProcessPool):
                merge_outcome_observability(last)
                raise ExecutionError(
                    f"ProcessPoolBackend: worker process died while running "
                    f"task {index} of {len(self.work)} "
                    f"(attempt {self.attempts[index] + 1}/{self.max_attempts})"
                ) from exc
            if exc is not None and not last.traceback_text:
                # Parent-side synthetic failures (timeouts) have no
                # worker traceback to chain.
                merge_outcome_observability(last)
                raise exc
            if exc is not None:
                logger.error(
                    "worker task %d failed: %r\n%s",
                    index, exc, last.traceback_text,
                )
            results.append(absorb_outcome(last))
        return results


Executor = SerialExecutor | ProcessPoolBackend


def get_executor(
    n_jobs: int | None = 1, retry: RetryPolicy | None = None
) -> Executor:
    """The backend for an ``n_jobs`` request (use as a context manager)."""
    resolved = resolve_n_jobs(n_jobs)
    if resolved == 1:
        return SerialExecutor(retry=retry)
    return ProcessPoolBackend(resolved, retry=retry)
