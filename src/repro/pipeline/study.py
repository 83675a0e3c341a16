"""The end-to-end Table-1 runner.

``run_ixp_study`` goes from a raw measurement frame to the paper's
table: detect which ⟨ASN, city⟩ units began crossing the exchange,
build the daily median-RTT panel, fit a robust synthetic control per
treated unit against a never-crossing donor pool, and report the
estimated RTT change with RMSE-ratio and placebo-p diagnostics.

The plan (:func:`prepare_unit_plan`) screens every treated unit once —
shape checks, then the donor pool — into tasks.  The fit stage is one
:class:`UnitLedger` per plan and one task function,
:func:`run_unit_task`: a unit's base fit when the ledger holds none,
then one placebo ensemble over the columns asked for.  The ledger
builds each unit's placebo context once, at the unit's first task —
its donor matrix, the matrix's factorization and, for a robust unit,
the leave-one-out panels of its whole refit queue — and every later
task of the unit reads it (:meth:`UnitLedger.context`).  It journals
each outcome to the checkpoint as it lands (``unitfit``, ``placebo``
and ``skip`` records) and builds the rows in plan order.  The batch
study and the stream's finalize run every unit's fit and placebo
columns as one task (:func:`execute_unit_plan`); a campaign runs the
same tasks with a budget — base fits first, then the granted prefix of
each scenario's refit queue, round by round
(:func:`~repro.campaign.scheduler.run_campaign`).  The fits run in this
process, on a :class:`~repro.pipeline.executor.SerialExecutor` that
keeps the retry policy: they are a small share of a study's time next
to generating and pivoting the measurements, so the campaign's process
pool builds whole scenarios instead.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.pipeline.checkpoint import StudyCheckpoint

from repro.chaos.runtime import fault_point
from repro.errors import DonorPoolError, EstimationError, ExecutionError, PipelineError
from repro.frames.frame import Frame
from repro.obs import get_metrics, span
from repro.obs.metrics import COUNT_BUCKETS
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.crossing import TreatmentAssignment, assign_treatment
from repro.pipeline.executor import RetryPolicy, SerialExecutor
from repro.synthcontrol.donor import Panel, select_donors
from repro.synthcontrol.placebo import (
    Refit,
    _check_method,
    _PlaceboContext,
    placebo_context,
    placebo_columns,
    placebo_outcomes,
    placebo_p_value,
    record_placebo,
    treated_fit,
)
from repro.synthcontrol.robust import denoise_leave_out, factor_donor_matrix

logger = logging.getLogger(__name__)


def parse_unit_label(label: object) -> tuple[int, str]:
    """Split an ``"AS<asn>/<city>"`` unit label into its parts.

    Raises :class:`PipelineError` naming the offending label when it
    does not match the expected shape — a malformed label would
    otherwise surface much later as a bare ``ValueError``/``IndexError``
    from :attr:`StudyRow.asn`.
    """
    text = str(label)
    head, sep, city = text.partition("/")
    if not sep or not city or not head.startswith("AS"):
        raise PipelineError(
            f"malformed unit label {text!r}: expected 'AS<asn>/<city>'"
        )
    try:
        asn = int(head[2:])
    except ValueError:
        raise PipelineError(
            f"malformed unit label {text!r}: {head[2:]!r} is not an ASN"
        ) from None
    return asn, city


@dataclass(frozen=True)
class StudyRow:
    """One Table-1 row: a treated unit's estimated RTT change.

    Attributes
    ----------
    unit:
        ``"AS<asn>/<city>"`` label.
    rtt_delta_ms:
        Mean post-treatment gap (observed minus synthetic): the
        estimated causal RTT change.
    rmse_ratio:
        Post/pre fit-error ratio.
    p_value:
        Placebo-based p.
    pre_periods, post_periods, n_donors:
        Analysis-shape diagnostics.
    n_placebos, n_placebos_skipped:
        How many placebo refits entered the p-value's denominator and
        how many failed (and were excluded) — a p computed over few
        surviving placebos deserves suspicion.
    """

    unit: str
    rtt_delta_ms: float
    rmse_ratio: float
    p_value: float
    pre_periods: int
    post_periods: int
    n_donors: int
    n_placebos: int = 0
    n_placebos_skipped: int = 0

    @property
    def asn(self) -> int:
        """ASN parsed back out of the unit label."""
        return parse_unit_label(self.unit)[0]

    @property
    def city(self) -> str:
        """City parsed back out of the unit label."""
        return parse_unit_label(self.unit)[1]


@dataclass(frozen=True)
class StudyTimings:
    """Wall-clock seconds per study stage, for perf observability.

    Each stage is one ``perf_counter`` segment of the study, so the
    timings read the same with tracing on or off.  ``generation_s`` is
    ``None`` when the measurements came from disk rather than the
    simulator.  Timings never participate in result equality — two runs
    of the same study are the *same result* however long they took.
    """

    assignment_s: float
    panel_s: float
    fits_s: float
    generation_s: float | None = None

    @property
    def total_s(self) -> float:
        """Sum of all recorded stages."""
        return (
            (self.generation_s or 0.0)
            + self.assignment_s
            + self.panel_s
            + self.fits_s
        )

    def format(self) -> str:
        """One line per stage, aligned, slowest readable at a glance."""
        stages = []
        if self.generation_s is not None:
            stages.append(("generation", self.generation_s))
        stages.extend(
            [
                ("assignment", self.assignment_s),
                ("panel", self.panel_s),
                ("fits", self.fits_s),
                ("total", self.total_s),
            ]
        )
        return "\n".join(f"{name:<12} {seconds:>8.3f}s" for name, seconds in stages)


@dataclass(frozen=True)
class StudyResult:
    """The full study output: one row per treated unit plus context."""

    rows: tuple[StudyRow, ...]
    assignment: TreatmentAssignment
    skipped: tuple[tuple[str, str], ...]  # (unit, reason)
    timings: StudyTimings | None = field(default=None, compare=False)

    def to_frame(self) -> Frame:
        """Rows as a frame (for CSV export or further analysis)."""
        return Frame.from_records(
            [
                {
                    "unit": r.unit,
                    "asn": r.asn,
                    "city": r.city,
                    "rtt_delta_ms": r.rtt_delta_ms,
                    "rmse_ratio": r.rmse_ratio,
                    "p_value": r.p_value,
                    "pre_periods": r.pre_periods,
                    "post_periods": r.post_periods,
                    "n_donors": r.n_donors,
                    "n_placebos": r.n_placebos,
                    "n_placebos_skipped": r.n_placebos_skipped,
                }
                for r in self.rows
            ],
            columns=[
                "unit",
                "asn",
                "city",
                "rtt_delta_ms",
                "rmse_ratio",
                "p_value",
                "pre_periods",
                "post_periods",
                "n_donors",
                "n_placebos",
                "n_placebos_skipped",
            ],
        )

    def format_table(self) -> str:
        """Render in the paper's Table-1 layout."""
        lines = [
            f"{'ASN / City':<28}  {'RTT Δ (ms)':>10}  {'RMSE Ratio':>10}  {'p':>6}",
            "-" * 60,
        ]
        for r in self.rows:
            label = f"{r.asn} / {r.city}"
            lines.append(
                f"{label:<28}  {r.rtt_delta_ms:>+10.2f}  {r.rmse_ratio:>10.2f}  {r.p_value:>6.3f}"
            )
        return "\n".join(lines)

    @property
    def consistent_effect(self) -> bool:
        """The paper's headline check: is the RTT drop consistent & robust?

        True only if *every* unit shows a negative delta significant at
        10% — which Table 1 (and this reproduction) shows is not the
        case.  A study with no analysed rows cannot confirm anything,
        so empty rows are False (not vacuously True).
        """
        if not self.rows:
            return False
        return all(r.rtt_delta_ms < 0 and r.p_value < 0.10 for r in self.rows)


@dataclass(frozen=True)
class UnitScreen:
    """The per-unit screen: pre/post-period counts, then the donor pool.

    Shared by :func:`prepare_unit_plan` and the stream's live refits
    (:class:`~repro.stream.refit.LiveRefitter`), so a unit is screened
    with the same checks and the same skip-reason strings wherever it
    is fitted.  Past the screen, both fit it with
    :func:`~repro.synthcontrol.placebo.treated_fit` and rank it with
    :func:`~repro.synthcontrol.placebo.placebo_p_value`, so the fit
    stage's skip reasons match too.  :meth:`periods` raises
    :class:`PipelineError` for a malformed label and
    :class:`EstimationError` with the skip reason when either side of
    the first crossing is too short; :meth:`donors` is the study's only
    call into :func:`~repro.synthcontrol.donor.select_donors`.
    """

    min_pre_periods: int = 7
    min_post_periods: int = 3
    max_donor_missing: float = 0.5

    def periods(
        self, panel: Panel, assignment: TreatmentAssignment, unit: str
    ) -> tuple[int, int]:
        """``(pre_periods, post_periods)`` around *unit*'s first crossing."""
        parse_unit_label(unit)
        first_day = int(assignment.first_crossing_hour[unit] // 24)
        pre_periods = _pre_period_count(panel, first_day)
        post_periods = panel.n_times - pre_periods
        if pre_periods < self.min_pre_periods:
            raise EstimationError(f"only {pre_periods} pre-treatment days")
        if post_periods < self.min_post_periods:
            raise EstimationError(f"only {post_periods} post-treatment days")
        return pre_periods, post_periods

    def donors(
        self,
        panel: Panel,
        assignment: TreatmentAssignment,
        unit: str,
        pre_periods: int,
    ) -> tuple[str, ...]:
        """*unit*'s donor pool: never-treated units, correlation-ranked."""
        return tuple(
            select_donors(
                panel,
                unit,
                excluded=tuple(assignment.treated_units),
                pre_periods=pre_periods,
                max_missing=self.max_donor_missing,
            )
        )


@dataclass(frozen=True)
class _UnitTask:
    """One treated unit's planned fit.

    ``panel`` is the study's panel, shared by every task of a plan; it
    takes no part in equality or hashing, so a task is identified by
    its unit, donors, and fit parameters.  ``donors`` is the pool the
    plan's screen chose, so no fit re-runs the screen.
    ``scenario`` is ``""`` for the batch study and the scenario's name
    in a campaign; it qualifies fault keys and span attributes, and
    names the ledger a task reads and lands in.  ``energy`` and
    ``ridge`` are the robust method's fit parameters; a classic fit
    ignores them.
    """

    unit: str
    pre_periods: int
    post_periods: int
    panel: Panel = field(compare=False, repr=False)
    donors: tuple[str, ...]
    method: str
    max_placebos: int | None
    energy: float
    ridge: float
    scenario: str = ""


@dataclass(frozen=True)
class UnitFit:
    """One planned unit's base fit: everything but the p-value.

    The :class:`UnitLedger` journals it as a ``unitfit`` record and
    computes the p-value later, from however many placebo refits ran.
    """

    unit: str
    effect: float
    rmse_ratio: float
    pre_periods: int
    post_periods: int
    donors: tuple[str, ...]


def _base_fit(
    task: _UnitTask, ctx: _PlaceboContext
) -> tuple[UnitFit, _PlaceboContext]:
    """Fit the treated unit's synthetic control on *ctx* (no placebos)."""
    t_fit = time.perf_counter()
    with span("fit", treated=task.unit, method=task.method):
        fit, ctx = treated_fit(ctx, task.panel.series(task.unit), task.unit)
    get_metrics().histogram(
        "fit_seconds", help="wall-clock seconds per treated-unit fit"
    ).observe(time.perf_counter() - t_fit)
    return (
        UnitFit(
            unit=task.unit,
            effect=fit.effect,
            rmse_ratio=fit.rmse_ratio,
            pre_periods=task.pre_periods,
            post_periods=task.post_periods,
            donors=task.donors,
        ),
        ctx,
    )


def unit_row(fit: UnitFit, refits: Sequence[Refit], exhausted: bool) -> StudyRow:
    """The Table-1 row for *fit* given the placebo refits run for it.

    Surviving ratios enter :func:`~repro.synthcontrol.placebo.placebo_p_value`
    in the order given; it raises :class:`DonorPoolError` (the unit is
    skipped) when an *exhausted* queue left no survivor.
    """
    values = [ratio for _name, ratio, _reason in refits if ratio is not None]
    n_failed = len(refits) - len(values)
    return StudyRow(
        unit=fit.unit,
        rtt_delta_ms=fit.effect,
        rmse_ratio=fit.rmse_ratio,
        p_value=placebo_p_value(
            fit.unit, fit.rmse_ratio, values, n_failed, exhausted
        ),
        pre_periods=fit.pre_periods,
        post_periods=fit.post_periods,
        n_donors=len(fit.donors),
        n_placebos=len(values),
        n_placebos_skipped=n_failed,
    )


#: One unit task: the planned unit, its base fit when the ledger already
#: holds one (``None`` fits it first), and the placebo columns to refit.
UnitWork = tuple[_UnitTask, UnitFit | None, tuple[int, ...]]

#: What a unit task returns: the unit's base fit, or its ``(unit,
#: reason)`` skip, and the placebo refits it ran, by column.
UnitOutcome = tuple[UnitFit | tuple[str, str], dict[int, Refit]]


def _fault_key(task: _UnitTask, name: str) -> str:
    """*name* as a fault key: ``"<scenario>/<name>"`` in a campaign."""
    return f"{task.scenario}/{name}" if task.scenario else name


def _refit_columns(
    task: _UnitTask, ctx: _PlaceboContext, cols: Sequence[int]
) -> dict[int, Refit]:
    """Refit *cols* of *task*'s donors in one placebo ensemble."""
    if not cols:
        return {}
    attrs = {"scenario": task.scenario, "unit": task.unit} if task.scenario else {}
    outcomes = placebo_outcomes(ctx, cols)
    return {
        col: record_placebo(
            ctx, col, outcome, key=_fault_key(task, ctx.donor_names[col]), **attrs
        )
        for col, outcome in zip(cols, outcomes)
    }


def run_unit_task(work: UnitWork, ledger: UnitLedger) -> UnitOutcome:
    """The fit stage's one task: a unit's base fit if needed, then its refits.

    Without a cached fit, the base fit runs in a ``fits.unit`` span
    behind the ``fits.unit`` fault point; a fit the estimator rejects
    is returned as the ``(unit, reason)`` skip and no refit runs.  The
    base fit and the refits of *cols* read the unit's one placebo
    context from *ledger* (:meth:`UnitLedger.context`), and the refits
    run as one :func:`~repro.synthcontrol.placebo.placebo_outcomes`
    call, each passing the ``placebo.refit`` fault point.  Fault keys
    are scenario-qualified in a campaign (:func:`_fault_key`).
    """
    task, fit, cols = work
    if fit is not None:
        return fit, _refit_columns(task, ledger.context(task.unit), cols)
    metrics = get_metrics()
    scenario = {"scenario": task.scenario} if task.scenario else {}
    with span("fits.unit", unit=task.unit, **scenario) as sp:
        fault_point("fits.unit", key=_fault_key(task, task.unit))
        try:
            fit, ctx = _base_fit(task, ledger.context(task.unit))
            refits = _refit_columns(task, ctx, cols)
        except (DonorPoolError, EstimationError) as exc:
            logger.warning("skipping unit %s: %s", task.unit, exc)
            sp.set(status="skipped", reason=str(exc))
            metrics.counter(
                "units_skipped_total", "treated units the study could not fit"
            ).inc()
            return (task.unit, str(exc)), {}
        attrs: dict[str, object] = {}
        if cols:
            attrs["n_placebos"] = sum(r[1] is not None for r in refits.values())
        sp.set(status="ok", n_donors=len(task.donors), **attrs)
        metrics.counter(
            "units_analysed_total", "treated units with a base fit"
        ).inc()
        metrics.histogram(
            "donor_pool_size", COUNT_BUCKETS, "donors surviving the screen, per unit"
        ).observe(len(task.donors))
    return fit, refits


def prepare_unit_plan(
    panel: Panel,
    assignment: TreatmentAssignment,
    *,
    min_pre_periods: int = 7,
    min_post_periods: int = 3,
    max_donor_missing: float = 0.5,
    method: str = "robust",
    max_placebos: int | None = None,
    energy: float = 0.99,
    ridge: float = 1e-2,
    scenario: str = "",
) -> list[tuple[str, str] | _UnitTask]:
    """Screen treated units into an ordered plan of fits and skips.

    Every treated unit goes through :class:`UnitScreen` once, here:
    the shape screen, then the donor screen.  A unit either check
    rejects becomes a planned ``(unit, reason)`` skip; every survivor
    becomes a :class:`_UnitTask` carrying its donors and *panel*.  The batch
    study, the streaming engine's finalize, and the campaign all build
    their plans here, which is what keeps their rows bit-identical:
    given equal panels and assignments, the plans (and therefore every
    downstream fit) are equal.  *energy* and *ridge* are the robust
    method's fit parameters.
    """
    screen = UnitScreen(min_pre_periods, min_post_periods, max_donor_missing)
    plan: list[tuple[str, str] | _UnitTask] = []
    for unit in assignment.treated_units:
        try:
            pre_periods, post_periods = screen.periods(panel, assignment, unit)
        except EstimationError as exc:
            plan.append((unit, str(exc)))
            continue
        try:
            donors = screen.donors(panel, assignment, unit, pre_periods)
        except (DonorPoolError, EstimationError) as exc:
            logger.warning("skipping unit %s: %s", unit, exc)
            plan.append((unit, str(exc)))
            continue
        plan.append(
            _UnitTask(
                unit=unit,
                pre_periods=pre_periods,
                post_periods=post_periods,
                panel=panel,
                donors=donors,
                method=method,
                max_placebos=max_placebos,
                energy=energy,
                ridge=ridge,
                scenario=scenario,
            )
        )
    n_planned_skips = sum(1 for step in plan if not isinstance(step, _UnitTask))
    if n_planned_skips:
        get_metrics().counter(
            "units_skipped_total", "treated units the study could not fit"
        ).inc(n_planned_skips)
    return plan


def check_serial_fits(n_jobs: int | None, owner: str) -> None:
    """Reject a worker count for fits that always run in-process.

    *owner* names the caller for the message.  Only a campaign fans
    work out over processes, one scenario per task.
    """
    if n_jobs not in (None, 1):
        raise ExecutionError(
            f"{owner} fits its units in this process (n_jobs must be 1, got "
            f"{n_jobs}); run_campaign(n_jobs=...) builds whole scenarios in "
            "worker processes"
        )


def interleave(lists: Sequence[Sequence]) -> list:
    """Round-robin merge: element 0 of each list, then element 1, ..."""
    merged: list = []
    for i in range(max((len(lst) for lst in lists), default=0)):
        merged.extend(lst[i] for lst in lists if i < len(lst))
    return merged


class UnitLedger:
    """One unit plan's fit stage: base fits, fit skips, and placebo refits.

    The batch study, the stream's finalize and each campaign scenario
    keep one.  *checkpoint*, when given, is an **open**
    :class:`~repro.pipeline.checkpoint.StudyCheckpoint` owned by the
    caller: the ledger loads the fits, skips and refits it journaled,
    journals the plan's skips it lacks, and journals every fresh
    outcome as it lands (:meth:`record`), so a resumed run refits only
    the columns the journal is missing.

    The refit queue (:meth:`queue`) runs breadth-first over the plan's
    units, each capped at its task's
    :func:`~repro.synthcontrol.placebo.placebo_columns`: the study asks
    for the whole queue at once, a campaign for the prefix its budget
    grants.  Every task of a unit shares the placebo context the ledger
    builds at the unit's first task (:meth:`context`), so a unit's
    donor matrix is factored once however many rounds refit it.  Rows
    follow the plan order (:meth:`rows`); a unit whose queued columns
    have all run is *exhausted*, and one that is not gets ``p = 1``.
    """

    def __init__(
        self,
        plan: list[tuple[str, str] | _UnitTask],
        checkpoint: "StudyCheckpoint | None" = None,
    ) -> None:
        self.plan = plan
        self.checkpoint = checkpoint
        self.tasks = {
            step.unit: step for step in plan if isinstance(step, _UnitTask)
        }
        self.fits: dict[str, UnitFit] = {}
        self.fit_skips: dict[str, str] = {}
        self.refits: dict[tuple[str, int], Refit] = {}
        self._contexts: dict[str, _PlaceboContext] = {}
        if checkpoint is None:
            return
        for unit in self.tasks:
            if unit in checkpoint.completed_fits:
                self.fits[unit] = checkpoint.completed_fits[unit]
            elif unit in checkpoint.completed_skips:
                self.fit_skips[unit] = checkpoint.completed_skips[unit]
        self.refits.update(checkpoint.completed_refits)
        for step in plan:
            if isinstance(step, _UnitTask) or step[0] in checkpoint.completed_skips:
                continue
            checkpoint.append_skip(*step)

    def columns(self, unit: str) -> range:
        """*unit*'s queued placebo columns (none once its fit is skipped)."""
        if unit in self.fit_skips:
            return range(0)
        task = self.tasks[unit]
        return placebo_columns(len(task.donors), task.max_placebos)

    def context(self, unit: str) -> _PlaceboContext:
        """*unit*'s placebo context, built the first time a task asks.

        It holds the donor matrix and, for the robust method, the
        matrix's factorization; a robust unit with more than one queued
        column also gets the leave-one-out panels of every queued
        column, whatever share of the queue a budget later grants.  An
        unknown method or an unfactorable matrix raises here, inside
        the unit's first task, which skips the unit.
        """
        ctx = self._contexts.get(unit)
        if ctx is None:
            task = self.tasks[unit]
            _check_method(task.method)
            matrix = np.column_stack([task.panel.series(d) for d in task.donors])
            fact = factor_donor_matrix(matrix) if task.method == "robust" else None
            ctx = placebo_context(
                matrix, task.donors, task.pre_periods, task.method,
                energy=task.energy, ridge=task.ridge, fact=fact,
            )
            cols = self.columns(unit)
            if fact is not None and len(cols) > 1:
                ctx = replace(
                    ctx, loo=tuple(zip(*denoise_leave_out(fact, cols, ctx.energy)))
                )
            self._contexts[unit] = ctx
        return ctx

    def queue(self) -> list[tuple[str, int]]:
        """Every queued ``(unit, col)`` refit, breadth-first across units.

        Column 0 of every unit comes before column 1 of any, so a small
        budget samples every unit's null distribution instead of
        exhausting the first unit's donors.
        """
        return interleave(
            [[(unit, col) for col in self.columns(unit)] for unit in self.tasks]
        )

    def work(self, refits: Iterable[tuple[str, int]] = ()) -> list[UnitWork]:
        """Tasks, in plan order, for units lacking a base fit or one of *refits*."""
        wanted: dict[str, list[int]] = {}
        for unit, col in refits:
            if (unit, col) not in self.refits:
                wanted.setdefault(unit, []).append(col)
        return [
            (task, self.fits.get(unit), tuple(wanted.get(unit, ())))
            for unit, task in self.tasks.items()
            if unit not in self.fit_skips and (unit not in self.fits or unit in wanted)
        ]

    def record(self, outcome: UnitOutcome) -> None:
        """Take in one task's outcome, journaling what is new."""
        fit, refits = outcome
        ckpt = self.checkpoint
        if not isinstance(fit, UnitFit):
            self.fit_skips[fit[0]] = fit[1]
            if ckpt is not None:
                ckpt.append_skip(*fit)
            return
        if fit.unit not in self.fits:
            self.fits[fit.unit] = fit
            if ckpt is not None:
                ckpt.append_fit(fit)
        for col, refit in refits.items():
            self.refits[(fit.unit, col)] = refit
            if ckpt is not None:
                ckpt.append_placebo(fit.unit, col, refit)

    def rows(self) -> tuple[list[StudyRow], list[tuple[str, str]]]:
        """The plan's rows and skips, in plan order.

        Each row is :func:`unit_row` over the unit's refits in column
        order; a unit left with no surviving placebo after its queue
        was exhausted becomes a skip with the study's reason.
        """
        rows: list[StudyRow] = []
        skipped: list[tuple[str, str]] = []
        for step in self.plan:
            if not isinstance(step, _UnitTask):
                skipped.append(step)
                continue
            unit = step.unit
            if unit in self.fit_skips:
                skipped.append((unit, self.fit_skips[unit]))
                continue
            cols = self.columns(unit)
            refits = [self.refits[unit, c] for c in cols if (unit, c) in self.refits]
            try:
                rows.append(unit_row(self.fits[unit], refits, len(refits) == len(cols)))
            except DonorPoolError as exc:
                logger.warning("skipping unit %s: %s", unit, exc)
                get_metrics().counter(
                    "units_skipped_total", "treated units the study could not fit"
                ).inc()
                skipped.append((unit, str(exc)))
        return rows, skipped


def run_unit_work(
    executor: SerialExecutor,
    ledgers: Mapping[str, UnitLedger],
    work: Sequence[UnitWork],
) -> None:
    """Run *work* under *executor*, each task on its scenario's ledger."""
    executor.map(
        lambda item: run_unit_task(item, ledgers[item[0].scenario]),
        work,
        on_result=lambda index, outcome: ledgers[work[index][0].scenario].record(
            outcome
        ),
    )


def execute_unit_plan(
    plan: list[tuple[str, str] | _UnitTask],
    *,
    retry: RetryPolicy | None = None,
    checkpoint: "StudyCheckpoint | None" = None,
) -> tuple[list[StudyRow], list[tuple[str, str]]]:
    """Run a unit plan's fits and refits; rows and skips in plan order.

    The plan's :class:`UnitLedger` holds the outcomes, loading and
    journaling them through *checkpoint* when one is given (an open
    :class:`~repro.pipeline.checkpoint.StudyCheckpoint`; the caller owns
    its lifecycle).  Each unit with work left is one
    :func:`run_unit_task` — its base fit and every placebo column it
    still lacks, on the placebo context the ledger builds for it — run
    in this process under *retry*.
    """
    ledger = UnitLedger(plan, checkpoint)
    work = ledger.work(ledger.queue())
    with span("fits", n_tasks=len(work), n_resumed=len(ledger.tasks) - len(work)):
        run_unit_work(SerialExecutor(retry=retry), {"": ledger}, work)
        return ledger.rows()


def run_ixp_study(
    measurements: Frame,
    ixp_name: str,
    method: str = "robust",
    min_pre_periods: int = 7,
    min_post_periods: int = 3,
    max_donor_missing: float = 0.5,
    max_placebos: int | None = None,
    energy: float = 0.99,
    ridge: float = 1e-2,
    outcome: str = "rtt_ms",
    n_jobs: int | None = 1,
    generation_seconds: float | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    batch_fits: bool = False,
) -> StudyResult:
    """Run the full IXP case study on a measurement frame.

    Parameters
    ----------
    measurements:
        Frame from :func:`repro.mplatform.measurements_to_frame` (or CSV
        with the same columns).
    ixp_name:
        Exchange whose first crossings define treatment.
    method:
        ``"robust"`` (the paper) or ``"classic"``.
    min_pre_periods, min_post_periods:
        Units with fewer usable days on either side are skipped (with
        the reason recorded) rather than silently mis-fit.
    outcome:
        Measurement column to analyse (default RTT; the paper's Table 1).
        ``"download_mbps"`` runs the throughput variant.
    n_jobs:
        Must be ``1`` (or ``None``): the fits run in this process, and
        any other value raises :class:`~repro.errors.ExecutionError`
        pointing at :func:`~repro.campaign.scheduler.run_campaign`,
        which fans whole scenarios out over worker processes.
    generation_seconds:
        Wall-clock spent producing *measurements* upstream (simulator or
        CSV import); recorded verbatim in the result's timings.
    retry:
        Retry transiently failed per-unit fits (injected faults) under
        this policy; results are unchanged whether or how often retries
        fire.
    checkpoint:
        JSONL path journaling each base fit, skip and placebo refit as
        it lands, so a killed run can be resumed.
    resume:
        With *checkpoint*: load the journaled fits and refits from the
        file and run only the rest.  The resumed result is
        byte-identical to an uninterrupted run's.
    batch_fits:
        Must be ``False``: each unit's ledger factors that unit's own
        donor matrix, once (:meth:`UnitLedger.context`), and ``True``
        raises :class:`~repro.errors.ExecutionError`.
    """
    check_serial_fits(n_jobs, "run_ixp_study")
    if batch_fits:
        raise ExecutionError(
            "run_ixp_study no longer batches fits across units (batch_fits "
            "must be False): UnitLedger.context factors each unit's donor "
            "matrix once"
        )
    logger.info(
        "running IXP study on %d measurements (ixp=%s, method=%s)",
        measurements.num_rows,
        ixp_name,
        method,
    )
    plan_params = dict(
        min_pre_periods=min_pre_periods,
        min_post_periods=min_post_periods,
        max_donor_missing=max_donor_missing,
        method=method,
        max_placebos=max_placebos,
        energy=energy,
        ridge=ridge,
    )
    with span("study", ixp=ixp_name, method=method) as study_sp:
        t0 = time.perf_counter()
        assignment = assign_treatment(measurements, ixp_name)
        assignment = fault_point("study.assignment", key=ixp_name, value=assignment)
        t1 = time.perf_counter()
        ckpt = None
        try:
            panel = rtt_panel(measurements, outcome=outcome)
            panel = fault_point("study.panel", key=ixp_name, value=panel)
            t2 = time.perf_counter()

            # Cheap shape screens run inline; only real fit work is fanned out.
            plan = prepare_unit_plan(panel, assignment, **plan_params)

            # Fits and refits already journaled in a resumed checkpoint are
            # served from the file; only the remainder runs.  The final row
            # order is the plan's either way, so a resumed table is
            # byte-identical.
            if checkpoint is not None:
                from repro.pipeline.checkpoint import StudyCheckpoint

                ckpt = StudyCheckpoint(
                    checkpoint, ixp_name, resume, outcome=outcome, **plan_params
                )
            rows, skipped = execute_unit_plan(plan, retry=retry, checkpoint=ckpt)
        finally:
            if ckpt is not None:
                ckpt.close()
        t3 = time.perf_counter()
        study_sp.set(n_rows=len(rows), n_skipped=len(skipped))

    timings = StudyTimings(
        assignment_s=t1 - t0,
        panel_s=t2 - t1,
        fits_s=t3 - t2,
        generation_s=generation_seconds,
    )
    logger.info(
        "study done: %d rows, %d skipped, %.3fs", len(rows), len(skipped), timings.total_s
    )
    return StudyResult(
        rows=tuple(rows),
        assignment=assignment,
        skipped=tuple(skipped),
        timings=timings,
    )


def _pre_period_count(panel: Panel, first_day: int) -> int:
    """Panel rows strictly before the first crossing day."""
    count = sum(1 for t in panel.times if float(t) < first_day)
    if count == 0:
        raise EstimationError("treatment precedes the whole panel")
    return count
