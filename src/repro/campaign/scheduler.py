"""The campaign scheduler: many scenarios, one pool, adaptive budget.

Runs a fleet of :class:`~repro.campaign.spec.ScenarioSpec`s as one
campaign on the existing executor/retry/checkpoint stack.  Its seconds
are in generating scenarios, not in fitting units, so the process pool
works at the scenario grain — distributed probing, central analysis:

- **Stage A** is the pool's only job.  One task per scenario builds its
  world, generates its measurement frame, assigns treatment, and pivots
  the panel (:func:`_scenario_inputs`); the frame never leaves the
  worker, and the result — truth, assignment, and panel, a few KB —
  comes back through the executor's normal pickling.  The executor's
  retry policy covers the whole task, streamed-ingest fault points
  included.  The parent then plans each scenario's units with the
  batch study's own :func:`~repro.pipeline.study.prepare_unit_plan`
  (the plan chooses every unit's donors) and opens one checkpoint
  journal per scenario.  One prefactor table for the whole fleet,
  keyed by ``(scenario, unit)``, then batch-factors every planned
  unit's donor matrix.
- **Stage B** runs every scenario's base unit fits in the parent,
  interleaved round-robin so scenario B's fits don't wait behind
  scenario A's.  Each fit is the study's own
  :func:`~repro.pipeline.study.fit_unit`.
- **Stage C** spends the placebo-refit budget in rounds: the
  :mod:`~repro.campaign.allocator` hands each round's refits to
  scenarios in proportion to their current placebo-ratio CI width
  (Zeph-style), freezing converged scenarios, and each round's grants
  run interleaved as single-column
  :func:`~repro.pipeline.study.refit_unit` calls.  Fits and refits read
  their unit's factorization from the prefactor table, which the
  scheduler hands them.
- The **verdict table** generalizes Table 1 across scenarios; each
  scenario's rows are built by the batch study's own
  :func:`~repro.pipeline.study.unit_row`, so a campaign given enough
  budget to exhaust every placebo queue reproduces ``run_ixp_study``'s
  rows bit-for-bit.

Determinism contract: the verdict table is a pure function of the spec
fleet and the campaign parameters — identical across ``--jobs`` values
(each scenario draws only its own seeds),
scenario-order permutations, and kill/resume boundaries.  Everything
order-dependent (allocation, refit queues, tie-breaks) is derived from
sorted scenario names and seeded hashes, never from completion order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro.campaign.allocator import (
    AllocationRound,
    ScenarioStat,
    allocate_round,
    placebo_ci_width,
    uniform_round,
)
from repro.campaign.spec import ScenarioSpec, build_scenario
from repro.chaos.runtime import fault_point
from repro.errors import CheckpointError, DonorPoolError, PipelineError
from repro.mplatform.speedtest import measurements_frame
from repro.obs import span
from repro.obs.metrics import get_metrics
from repro.pipeline.aggregate import rtt_panel
from repro.pipeline.checkpoint import StudyCheckpoint
from repro.pipeline.crossing import assign_treatment
from repro.pipeline.executor import (
    RetryPolicy,
    SerialExecutor,
    get_executor,
    resolve_n_jobs,
)
from repro.pipeline.prefactor import prefactor_unit_plan
from repro.pipeline.study import (
    StudyResult,
    StudyRow,
    UnitFit,
    _UnitTask,
    fit_unit,
    journal_planned_skips,
    prepare_unit_plan,
    refit_unit,
    unit_row,
)
from repro.stream.state import ingest_frame
from repro.studies.ixp_latency import scenario_truth
from repro.synthcontrol.donor import Panel


# ---------------------------------------------------------------------------
# Parent-side per-scenario state
# ---------------------------------------------------------------------------

@dataclass
class _ScenarioState:
    spec: ScenarioSpec
    truth: dict[str, float]
    assignment: Any
    panel: Panel
    plan: list
    checkpoint: StudyCheckpoint | None
    fits: dict[str, UnitFit] = field(default_factory=dict)
    fit_skips: dict[str, str] = field(default_factory=dict)
    #: Every possible refit, in deterministic queue order; the budget
    #: walks this list front to back, so "which refits ran" is a pure
    #: function of how much budget this scenario received.
    queue: list[tuple[str, int]] = field(default_factory=list)
    #: Refit ledger: (unit, col) -> (donor, ratio | None, reason).
    done: dict[tuple[str, int], tuple[str, float | None, str]] = field(
        default_factory=dict
    )
    next_index: int = 0
    frozen: bool = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def remaining(self) -> int:
        return len(self.queue) - self.next_index

    @property
    def executed(self) -> int:
        return self.next_index

    def ratio_values(self) -> list[float]:
        """Surviving ratios from the *granted* queue prefix, pooled.

        Deliberately bounded by ``next_index`` rather than the whole
        ledger: on resume the journal already holds refits from rounds
        that haven't replayed yet, and feeding those to the allocator
        early would change the allocation sequence — the replay must see
        exactly what the original run saw at each round boundary.
        """
        vals: list[float] = []
        for key in self.queue[: self.next_index]:
            rec = self.done.get(key)
            if rec is not None and rec[1] is not None and math.isfinite(rec[1]):
                vals.append(rec[1])
        return vals

    def tasks(self) -> dict[str, _UnitTask]:
        """The plan's fit tasks by unit, in plan order."""
        return {
            step.unit: step for step in self.plan if isinstance(step, _UnitTask)
        }


def _build_refit_queue(state: _ScenarioState) -> list[tuple[str, int]]:
    """The scenario's refit queue: round-robin over units, then columns.

    Breadth-first across units (column 0 of every unit before column 1
    of any) so a small budget still samples every unit's null
    distribution instead of exhausting the first unit's donors.
    """
    units = [unit for unit in state.tasks() if unit in state.fits]
    max_cols = max(
        (len(state.fits[u].donors) for u in units), default=0
    )
    queue: list[tuple[str, int]] = []
    for col in range(max_cols):
        for unit in units:
            if col < len(state.fits[unit].donors):
                queue.append((unit, col))
    return queue


def _interleave(per_scenario: list[list[Any]]) -> list[Any]:
    """Round-robin merge: element 0 of each list, then element 1, ..."""
    merged: list[Any] = []
    for i in range(max((len(lst) for lst in per_scenario), default=0)):
        for lst in per_scenario:
            if i < len(lst):
                merged.append(lst[i])
    return merged


# ---------------------------------------------------------------------------
# Campaign result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioVerdict:
    """One verdict-table row: a scenario's Table-1 summary."""

    scenario: str
    kind: str
    seed: int
    n_units: int
    n_skipped: int
    mean_delta_ms: float
    mean_true_ms: float
    n_significant: int
    consistent_effect: bool
    placebo_refits: int
    ci_width: float
    converged: bool

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if math.isinf(self.ci_width):
            data["ci_width"] = "inf"
        return data


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced, verdicts in scenario-name order."""

    verdicts: tuple[ScenarioVerdict, ...]
    studies: dict[str, StudyResult]
    trace: tuple[AllocationRound, ...]
    total_refits: int
    budget: int
    allocation: str

    def format_campaign_table(self) -> str:
        """The cross-scenario verdict table (fixed-width, byte-stable).

        Float formatting goes through ``%``-style fixed precision, so
        two runs that produced equal numbers render equal bytes — the
        determinism tests diff this string directly.
        """
        header = (
            f"{'scenario':<24} {'kind':<16} {'units':>5} {'skip':>4} "
            f"{'Δ est (ms)':>10} {'Δ true (ms)':>11} {'sig':>3} "
            f"{'consistent':>10} {'refits':>6} {'ci width':>8} {'conv':>4}"
        )
        lines = [header, "-" * len(header)]
        for v in self.verdicts:
            width = "inf" if math.isinf(v.ci_width) else f"{v.ci_width:.3f}"
            est = "n/a" if math.isnan(v.mean_delta_ms) else f"{v.mean_delta_ms:+.2f}"
            true = "n/a" if math.isnan(v.mean_true_ms) else f"{v.mean_true_ms:+.2f}"
            lines.append(
                f"{v.scenario:<24} {v.kind:<16} {v.n_units:>5} {v.n_skipped:>4} "
                f"{est:>10} {true:>11} {v.n_significant:>3} "
                f"{'yes' if v.consistent_effect else 'no':>10} "
                f"{v.placebo_refits:>6} {width:>8} "
                f"{'yes' if v.converged else 'no':>4}"
            )
        lines.append("")
        lines.append(
            f"budget: {self.total_refits}/{self.budget} placebo refits spent "
            f"({self.allocation} allocation, {len(self.trace)} rounds)"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Verdict rows as CSV (one line per scenario)."""
        buf = io.StringIO()
        fields = [
            "scenario", "kind", "seed", "n_units", "n_skipped",
            "mean_delta_ms", "mean_true_ms", "n_significant",
            "consistent_effect", "placebo_refits", "ci_width", "converged",
        ]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for v in self.verdicts:
            writer.writerow(v.to_dict())
        return buf.getvalue()

    def to_json(self) -> str:
        """Verdicts, allocation trace, and totals as a JSON document."""
        return json.dumps(
            {
                "allocation": self.allocation,
                "budget": self.budget,
                "total_refits": self.total_refits,
                "verdicts": [v.to_dict() for v in self.verdicts],
                "trace": [r.to_dict() for r in self.trace],
            },
            indent=2,
            sort_keys=True,
        )

    @property
    def all_converged(self) -> bool:
        """Every scenario frozen or fully sampled."""
        return all(v.converged for v in self.verdicts)

    def refits_until_converged(self) -> int | None:
        """Budget spent up to the first all-converged round (trace-derived).

        ``None`` when the fleet never fully converged within budget —
        the P10 benchmark compares this number between adaptive and
        uniform allocation.
        """
        spent = 0
        for rnd in self.trace:
            spent += rnd.granted
            if rnd.converged_after and all(rnd.converged_after.values()):
                return spent
        return None


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

def _scenario_inputs(spec: ScenarioSpec) -> tuple[dict[str, float], Any, Panel]:
    """Stage A's pool task: one scenario's ``(truth, assignment, panel)``.

    Builds the world, generates the measurements, and reduces them to
    the assignment and the daily panel — streamed through the
    accumulators when the spec asks for ingest batches, with one
    ``stream.batch`` fault point per batch keyed
    ``"<scenario>/<batch>"``.  The frame is freed when the task
    returns, so it never crosses a process boundary.
    """
    with span("campaign.scenario", scenario=spec.name, kind=spec.kind):
        scenario = build_scenario(spec)
        frame = measurements_frame(scenario, rng=spec.measurement_seed)
        if spec.ingest_batches > 1:
            assignment, panel = ingest_frame(
                frame,
                scenario.ixp_name,
                n_batches=spec.ingest_batches,
                on_batch=lambda batch: fault_point(
                    "stream.batch", key=f"{spec.name}/{batch.index}"
                ),
            )
        else:
            assignment = assign_treatment(frame, scenario.ixp_name)
            panel = rtt_panel(frame, period="day", outcome="rtt_ms")
        return scenario_truth(scenario), assignment, panel


def _campaign_manifest(
    specs: list[ScenarioSpec],
    budget: int,
    allocation: str,
    tol: float,
    round_refits: int,
    floor: int,
    min_ratios: int,
    alloc_seed: int,
) -> dict[str, Any]:
    return {
        "kind": "campaign",
        "specs": [s.to_dict() for s in sorted(specs, key=lambda s: s.name)],
        "budget": budget,
        "allocation": allocation,
        "tol": tol,
        "round_refits": round_refits,
        "floor": floor,
        "min_ratios": min_ratios,
        "alloc_seed": alloc_seed,
    }


def run_campaign(
    specs: list[ScenarioSpec] | tuple[ScenarioSpec, ...],
    *,
    budget: int = 200,
    allocation: str = "adaptive",
    tol: float = 0.25,
    min_ratios: int = 4,
    round_refits: int | None = None,
    floor: int = 1,
    alloc_seed: int = 0,
    n_jobs: int | None = 1,
    retry: RetryPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    telemetry: Any = None,
    min_pre_periods: int = 7,
    min_post_periods: int = 3,
    max_donor_missing: float = 0.5,
    energy: float = 0.99,
    ridge: float = 1e-2,
) -> CampaignResult:
    """Run a multi-scenario campaign under an adaptive refit budget.

    Parameters
    ----------
    specs:
        The scenario fleet.  Processed in sorted-name order, so any
        input permutation yields the identical campaign.
    budget:
        Total placebo refits the campaign may spend across scenarios.
    allocation:
        ``"adaptive"`` (Zeph-style CI-width-proportional with freezing)
        or ``"uniform"`` (the blind equal-split baseline).
    tol, min_ratios:
        A scenario freezes once it holds at least *min_ratios* surviving
        ratios and its pooled CI width is at or below *tol*.
    round_refits:
        Refits granted per allocation round (default: 4 per scenario).
    floor:
        Minimum refits per live scenario per round (starvation floor).
    alloc_seed:
        Seed for the allocator's deterministic tie-breaks.
    n_jobs:
        Worker processes for stage A, one scenario per task (``1``
        serial, ``-1`` all cores).  Fits and refits run in this process.
    retry:
        Retry policy for stage A's scenario tasks (dead workers,
        injected faults such as the streamed-ingest ones, blown
        deadlines) and for the fits and refits.
    checkpoint_dir, resume:
        Directory holding one JSONL journal per scenario plus a
        ``campaign.json`` manifest; with *resume*, journaled base fits
        and refits are served from the files and the rounds replay
        deterministically around them, so the resumed verdict table is
        byte-identical to an uninterrupted run's.
    telemetry:
        A :class:`~repro.obs.serve.TelemetryMux` (or ``None``); each
        scenario publishes its round reports into its own named channel.
    """
    specs = sorted(specs, key=lambda s: s.name)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise PipelineError(f"duplicate scenario names in campaign: {dupes}")
    if budget < 0:
        raise PipelineError(f"campaign budget must be >= 0, got {budget}")
    if allocation not in ("adaptive", "uniform"):
        raise PipelineError(
            f"allocation must be 'adaptive' or 'uniform', got {allocation!r}"
        )
    if round_refits is None:
        round_refits = max(4 * len(specs), 1)
    if round_refits < 1:
        raise PipelineError(f"round_refits must be >= 1, got {round_refits}")

    ckpt_dir: Path | None = None
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        manifest = _campaign_manifest(
            specs, budget, allocation, tol, round_refits, floor, min_ratios,
            alloc_seed,
        )
        manifest_path = ckpt_dir / "campaign.json"
        if resume and manifest_path.exists():
            previous = json.loads(manifest_path.read_text())
            if previous != manifest:
                raise CheckpointError(
                    f"{manifest_path}: campaign manifest does not match this "
                    "run's fleet/parameters; pass a fresh checkpoint directory"
                )
        else:
            manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    metrics = get_metrics()
    workers = resolve_n_jobs(n_jobs)
    states: list[_ScenarioState] = []
    spent = 0
    trace: list[AllocationRound] = []
    try:
        with span(
            "campaign",
            n_scenarios=len(specs),
            budget=budget,
            allocation=allocation,
            n_jobs=workers,
        ):
            # ------------------------------------------------- stage A
            with get_executor(workers, retry=retry) as pool:
                inputs = pool.map(_scenario_inputs, specs)
            for spec, (truth, assignment, panel) in zip(specs, inputs):
                ckpt = None
                if ckpt_dir is not None:
                    ckpt = StudyCheckpoint(
                        ckpt_dir / f"{spec.name}.jsonl",
                        ixp_name=f"campaign:{spec.name}",
                        method="robust",
                        outcome="rtt_ms",
                        resume=resume,
                    )
                states.append(
                    _ScenarioState(
                        spec=spec,
                        truth=truth,
                        assignment=assignment,
                        panel=panel,
                        plan=prepare_unit_plan(
                            panel,
                            assignment,
                            min_pre_periods=min_pre_periods,
                            min_post_periods=min_post_periods,
                            max_donor_missing=max_donor_missing,
                            method="robust",
                            fit_kwargs=tuple(
                                sorted({"energy": energy, "ridge": ridge}.items())
                            ),
                            scenario=spec.name,
                        ),
                        checkpoint=ckpt,
                    )
                )

            # One prefactor table for the whole fleet, keyed by
            # (scenario, unit): the base fits and every budgeted refit
            # read their unit's factorization from it, in this process.
            prefactors = {}
            for state in states:
                prefactors.update(
                    prefactor_unit_plan(state.panel, list(state.tasks().values()))
                )
            fits = SerialExecutor(retry=retry)

            # ------------------------------------------------- stage B
            per_scenario_tasks: list[list[_UnitTask]] = []
            for state in states:
                journal_planned_skips(state.plan, state.checkpoint)
                tasks = []
                for step in state.tasks().values():
                    cached = (
                        state.checkpoint.completed_fits.get(step.unit)
                        if state.checkpoint is not None
                        else None
                    )
                    if cached is not None:
                        state.fits[step.unit] = UnitFit(
                            **{**cached, "donors": tuple(cached["donors"])}
                        )
                        continue
                    skip = (
                        state.checkpoint.completed.get(step.unit)
                        if state.checkpoint is not None
                        else None
                    )
                    if isinstance(skip, tuple):
                        state.fit_skips[skip[0]] = skip[1]
                        continue
                    tasks.append(step)
                per_scenario_tasks.append(tasks)
            fit_tasks = _interleave(per_scenario_tasks)
            by_name = {state.name: state for state in states}

            def _journal_fit(index: int, result: Any) -> None:
                task = fit_tasks[index]
                state = by_name[task.scenario]
                if state.checkpoint is None:
                    return
                if isinstance(result, UnitFit):
                    state.checkpoint.append_unit_fit(
                        result.unit,
                        result.effect,
                        result.rmse_ratio,
                        result.pre_periods,
                        result.post_periods,
                        list(result.donors),
                    )
                else:
                    state.checkpoint.append_result(result)

            with span("campaign.fits", n_tasks=len(fit_tasks)):
                outcomes = fits.map(
                    partial(fit_unit, prefactors=prefactors),
                    fit_tasks,
                    on_result=_journal_fit,
                )
            for task, outcome in zip(fit_tasks, outcomes):
                state = by_name[task.scenario]
                if isinstance(outcome, UnitFit):
                    state.fits[outcome.unit] = outcome
                else:
                    state.fit_skips[outcome[0]] = outcome[1]
            for state in states:
                state.queue = _build_refit_queue(state)
                if state.checkpoint is not None:
                    state.done.update(state.checkpoint.completed_refits)

            # ------------------------------------------------- stage C
            round_index = 0
            while spent < budget:
                stats = [
                    ScenarioStat(
                        name=state.name,
                        ci_width=placebo_ci_width(state.ratio_values()),
                        remaining=state.remaining,
                        converged=state.frozen,
                        n_ratios=len(state.ratio_values()),
                    )
                    for state in states
                ]
                k = min(round_refits, budget - spent)
                if allocation == "adaptive":
                    grants = allocate_round(
                        stats, k, floor=floor, seed=alloc_seed
                    )
                else:
                    grants = uniform_round(stats, k)
                granted = sum(grants.values())
                if granted == 0:
                    break

                per_scenario_refits: list[list[tuple[_UnitTask, int]]] = []
                for state in states:
                    give = grants.get(state.name, 0)
                    plan_tasks = state.tasks()
                    per_scenario_refits.append(
                        [
                            (plan_tasks[unit], col)
                            for unit, col in state.queue[
                                state.next_index : state.next_index + give
                            ]
                        ]
                    )
                    state.next_index += give
                fresh = [
                    (task, col)
                    for task, col in _interleave(per_scenario_refits)
                    if (task.unit, col) not in by_name[task.scenario].done
                ]

                def _journal_refit(index: int, result: Any) -> None:
                    task, col = fresh[index]
                    state = by_name[task.scenario]
                    if state.checkpoint is None:
                        return
                    name, ratio, reason = result
                    state.checkpoint.append_placebo(
                        task.unit, col, name, ratio, reason
                    )

                with span(
                    "campaign.round",
                    index=round_index,
                    granted=granted,
                    n_fresh=len(fresh),
                    allocations=json.dumps(
                        dict(sorted(grants.items())), sort_keys=True
                    ),
                ):
                    results = fits.map(
                        partial(refit_unit, prefactors=prefactors),
                        fresh,
                        on_result=_journal_refit,
                    )
                for (task, col), result in zip(fresh, results):
                    by_name[task.scenario].done[(task.unit, col)] = result
                spent += granted
                metrics.counter(
                    "campaign_refits_total",
                    "placebo refits granted by the campaign allocator",
                ).inc(granted)

                widths_after: dict[str, float] = {}
                converged_after: dict[str, bool] = {}
                for state in states:
                    width = placebo_ci_width(state.ratio_values())
                    widths_after[state.name] = width
                    if (
                        not state.frozen
                        and len(state.ratio_values()) >= min_ratios
                        and math.isfinite(width)
                        and width <= tol
                    ):
                        if allocation == "adaptive":
                            state.frozen = True
                            metrics.counter(
                                "campaign_scenarios_frozen_total",
                                "scenarios frozen by the adaptive allocator",
                            ).inc()
                    # The trace's convergence flag is evaluated for both
                    # allocation modes (uniform never *acts* on it) so
                    # adaptive-vs-uniform comparisons read one field.
                    converged_after[state.name] = (
                        state.remaining == 0
                        or (
                            len(state.ratio_values()) >= min_ratios
                            and math.isfinite(width)
                            and width <= tol
                        )
                    )
                trace.append(
                    AllocationRound(
                        index=round_index,
                        allocations={n: grants.get(n, 0) for n in names},
                        widths={s.name: s.ci_width for s in stats},
                        converged={s.name: s.converged for s in stats},
                        spent_before=spent - granted,
                        granted=granted,
                        widths_after=widths_after,
                        converged_after=converged_after,
                    )
                )
                if telemetry is not None:
                    for state in states:
                        telemetry.publisher(state.name).publish_batch(
                            CampaignRoundReport(
                                round_index=round_index,
                                scenario=state.name,
                                granted=grants.get(state.name, 0),
                                executed=state.executed,
                                remaining=state.remaining,
                                ci_width=(
                                    None
                                    if math.isinf(widths_after[state.name])
                                    else widths_after[state.name]
                                ),
                                converged=converged_after[state.name],
                            )
                        )
                round_index += 1

            # ------------------------------------------------- verdicts
            verdicts: list[ScenarioVerdict] = []
            studies: dict[str, StudyResult] = {}
            for state in states:
                study = _scenario_study(state)
                studies[state.name] = study
                width = placebo_ci_width(state.ratio_values())
                deltas = [r.rtt_delta_ms for r in study.rows]
                trues = [
                    state.truth[r.unit]
                    for r in study.rows
                    if r.unit in state.truth
                ]
                verdicts.append(
                    ScenarioVerdict(
                        scenario=state.name,
                        kind=state.spec.kind,
                        seed=state.spec.seed,
                        n_units=len(study.rows),
                        n_skipped=len(study.skipped),
                        mean_delta_ms=(
                            float(np.mean(deltas)) if deltas else math.nan
                        ),
                        mean_true_ms=(
                            float(np.mean(trues)) if trues else math.nan
                        ),
                        n_significant=sum(
                            1 for r in study.rows if r.p_value < 0.10
                        ),
                        consistent_effect=study.consistent_effect,
                        placebo_refits=state.executed,
                        ci_width=width,
                        converged=(
                            state.remaining == 0
                            or (
                                len(state.ratio_values()) >= min_ratios
                                and math.isfinite(width)
                                and width <= tol
                            )
                        ),
                    )
                )
                if telemetry is not None:
                    telemetry.publisher(state.name).publish_final(study)
    finally:
        for state in states:
            if state.checkpoint is not None:
                state.checkpoint.close()
    return CampaignResult(
        verdicts=tuple(verdicts),
        studies=studies,
        trace=tuple(trace),
        total_refits=spent,
        budget=budget,
        allocation=allocation,
    )


@dataclass(frozen=True)
class CampaignRoundReport:
    """Per-scenario telemetry payload published after each round."""

    round_index: int
    scenario: str
    granted: int
    executed: int
    remaining: int
    ci_width: float | None
    converged: bool


def _scenario_study(state: _ScenarioState) -> StudyResult:
    """Assemble one scenario's StudyResult from its fit/refit ledgers.

    Follows the plan order and builds each row with the batch study's
    own :func:`~repro.pipeline.study.unit_row`: surviving ratios enter
    the p-value in donor-column order, and a unit whose entire queue
    was spent without one surviving placebo becomes a skip with the
    study's reason string.
    """
    rows: list[StudyRow] = []
    skipped: list[tuple[str, str]] = []
    for step in state.plan:
        if not isinstance(step, _UnitTask):
            skipped.append(step)
            continue
        reason = state.fit_skips.get(step.unit)
        if reason is not None:
            skipped.append((step.unit, reason))
            continue
        fit = state.fits[step.unit]
        refits = [
            state.done[(step.unit, col)]
            for col in range(len(fit.donors))
            if (step.unit, col) in state.done
        ]
        try:
            # A budget-starved unit (refits cut short by the budget or
            # its scenario's freeze) gets p = 1: a state the unbudgeted
            # study can't reach.
            rows.append(
                unit_row(fit, refits, exhausted=len(refits) == len(fit.donors))
            )
        except DonorPoolError as exc:
            skipped.append((step.unit, str(exc)))
    return StudyResult(
        rows=tuple(rows),
        assignment=state.assignment,
        skipped=tuple(skipped),
        timings=None,
    )
