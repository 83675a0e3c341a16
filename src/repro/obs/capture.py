"""Worker-side observability capture for the process-pool backend.

A process-pool worker cannot append to the parent's trace, so the
executor wraps every task in :func:`run_captured`: the task runs
against a fresh span buffer and a fresh metrics registry, and the
result ships home as a :class:`WorkerOutcome` carrying the value (or
the exception *with its formatted worker traceback*), the spans, a
metrics snapshot, and any chaos fault events the task fired.  After
the map returns, the parent calls :func:`absorb_outcome` on each
outcome **in task order**, whatever order the tasks finished in: it
grafts the spans under its current span
(:func:`~repro.obs.trace.merge_worker_records`), folds the metrics and
fault log in, and re-raises failures with the worker stack chained on —
so a parallel run's trace, metrics, fault log, and error reports all
match the serial run's.

When the parent has a :class:`~repro.chaos.plan.FaultPlan` armed, the
executor ships it (plus the task's attempt number) into
:func:`run_captured`, which arms it in the worker for the task's
duration — fault injection follows the work wherever it runs.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.trace import SpanRecord, get_tracer, merge_worker_records


class WorkerTraceback(ExecutionError):
    """Carries a worker's formatted stack; chained onto re-raised errors."""


@dataclass
class WorkerOutcome:
    """One task's result plus everything the worker observed producing it."""

    value: Any = None
    exception: BaseException | None = None
    traceback_text: str = ""
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    faults: list = field(default_factory=list)


def run_captured(
    fn: Any, item: Any, plan: Any = None, attempt: int = 0
) -> WorkerOutcome:
    """Run ``fn(item)`` in a worker, capturing spans, metrics, and errors.

    The worker's tracer buffer, metrics registry, and chaos fault-event
    buffer are swapped out for the duration of the task, so each
    outcome ships a per-task delta — pooled workers running many tasks
    never double-count.  *plan* (a shipped ``FaultPlan``) is armed for
    the task with *attempt* as the chaos attempt number.
    """
    from repro.chaos.runtime import drain_events, worker_context

    tracer = get_tracer()
    saved_records, tracer.records = tracer.records, []
    saved_registry = set_metrics(MetricsRegistry())
    try:
        with worker_context(plan, attempt):
            try:
                value = fn(item)
                return WorkerOutcome(
                    value=value,
                    spans=tracer.records,
                    metrics=get_metrics().snapshot(),
                    faults=drain_events(),
                )
            except Exception as exc:
                return WorkerOutcome(
                    exception=exc,
                    traceback_text=traceback.format_exc(),
                    spans=tracer.records,
                    metrics=get_metrics().snapshot(),
                    faults=drain_events(),
                )
    finally:
        set_metrics(saved_registry)
        tracer.records = saved_records


def merge_outcome_observability(outcome: WorkerOutcome) -> None:
    """Fold one outcome's spans, metrics, and fault events in — no raise.

    The executor uses this for the failed attempts of a retried task:
    their observations belong in the parent's trace (a serial run would
    have recorded them inline) even though their exceptions were
    swallowed by the retry.
    """
    from repro.chaos.runtime import record_events

    merge_worker_records(outcome.spans)
    get_metrics().merge(outcome.metrics)
    if outcome.faults:
        record_events(outcome.faults)


def absorb_outcome(outcome: WorkerOutcome) -> Any:
    """Merge one worker outcome into this process; return its value.

    Spans land under the caller's current span in buffer order; metrics
    and fault events fold into the live registry and fault log.  A
    failed task re-raises the original exception with a
    :class:`WorkerTraceback` chained as its cause, so the worker-side
    stack survives the process boundary.
    """
    merge_outcome_observability(outcome)
    if outcome.exception is not None:
        raise outcome.exception from WorkerTraceback(
            "worker-side traceback:\n" + outcome.traceback_text
        )
    return outcome.value
