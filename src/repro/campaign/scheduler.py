"""The campaign scheduler: many scenarios, one pool, adaptive budget.

Runs a fleet of :class:`~repro.campaign.spec.ScenarioSpec`s as one
campaign on the existing executor/retry/checkpoint stack.  Its seconds
are in generating scenarios, not in fitting units, so the process pool
works at the scenario grain — distributed probing, central analysis:

- **Stage A** is the pool's only job.  One task per scenario builds its
  world, generates its measurement frame, assigns treatment, and pivots
  the panel (:func:`_scenario_inputs`), behind one
  ``campaign.scenario`` fault point keyed by the scenario's name; the
  frame never leaves the worker, and the result — truth, assignment,
  and panel, a few KB — comes back through the executor's normal
  pickling.  The executor's retry policy covers the whole task.  The
  parent then plans each scenario's units with the batch study's own
  :func:`~repro.pipeline.study.prepare_unit_plan` (the plan chooses
  every unit's donors) and keeps one
  :class:`~repro.pipeline.study.UnitLedger` per scenario, journaling
  to that scenario's checkpoint.
- **Stage B** runs every scenario's base unit fits in the parent,
  interleaved round-robin so scenario B's fits don't wait behind
  scenario A's.  Each is the study's own task,
  :func:`~repro.pipeline.study.run_unit_task`, with no placebo
  columns; fits the journal already holds are not rerun.
- **Stage C** spends the placebo-refit budget in rounds: the
  :mod:`~repro.campaign.allocator` hands each round's refits to
  scenarios in proportion to their current placebo-ratio CI width
  (Zeph-style), freezing converged scenarios.  Each scenario's grant
  is the next slice of its ledger's breadth-first refit queue, and it
  runs as one task per granted unit — one donor matrix and one placebo
  ensemble over that unit's columns — interleaved across scenarios.
  A unit's placebo context comes from its scenario's ledger, built at
  the unit's first task (its stage-B base fit): the donor matrix is
  factored once, and the leave-one-out panels of the unit's whole
  queue are computed then too, whatever the budget later grants, so
  no round repeats a sweep.  A scenario's convergence is
  one predicate (:meth:`_ScenarioState.settled`) on its pooled ratios,
  measured once per round.
- The **verdict table** generalizes Table 1 across scenarios; each
  scenario's rows come from its ledger
  (:meth:`~repro.pipeline.study.UnitLedger.rows`), as the batch
  study's do, so a campaign given enough budget to exhaust every
  placebo queue reproduces ``run_ixp_study``'s rows bit-for-bit.

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
from repro.errors import CheckpointError, PipelineError
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
from repro.pipeline.study import (
    StudyResult,
    UnitLedger,
    interleave,
    prepare_unit_plan,
    run_unit_work,
)
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
    ledger: UnitLedger
    #: The ledger's refit queue; the budget walks it front to back, so
    #: "which refits ran" is a pure function of how much budget this
    #: scenario received.
    queue: list[tuple[str, int]] = field(default_factory=list)
    next_index: int = 0
    frozen: bool = False
    #: Surviving ratios in the granted queue prefix and their CI width,
    #: as of the last :meth:`measure`.
    n_ratios: int = 0
    width: float = math.inf

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def remaining(self) -> int:
        return len(self.queue) - self.next_index

    @property
    def executed(self) -> int:
        return self.next_index

    def measure(self) -> None:
        """Pool the surviving ratios of the *granted* queue prefix.

        Deliberately bounded by ``next_index`` rather than the whole
        ledger: on resume the journal already holds refits from rounds
        that haven't replayed yet, and feeding those to the allocator
        early would change the allocation sequence — the replay must see
        exactly what the original run saw at each round boundary.
        """
        vals: list[float] = []
        for key in self.queue[: self.next_index]:
            rec = self.ledger.refits.get(key)
            if rec is not None and rec[1] is not None and math.isfinite(rec[1]):
                vals.append(rec[1])
        self.n_ratios = len(vals)
        self.width = placebo_ci_width(vals)

    def settled(self, min_ratios: int, tol: float) -> bool:
        """At least *min_ratios* ratios with a finite CI width at most *tol*."""
        return (
            self.n_ratios >= min_ratios
            and math.isfinite(self.width)
            and self.width <= tol
        )


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
    the assignment and the daily panel, behind one ``campaign.scenario``
    fault point keyed by the scenario's name.  The frame is freed when
    the task returns, so it never crosses a process boundary.
    """
    with span("campaign.scenario", scenario=spec.name, kind=spec.kind):
        fault_point("campaign.scenario", key=spec.name)
        scenario = build_scenario(spec)
        frame = measurements_frame(scenario, rng=spec.measurement_seed)
        assignment = assign_treatment(frame, scenario.ixp_name)
        panel = rtt_panel(frame, outcome="rtt_ms")
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
    plan_params: dict[str, Any],
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
        **plan_params,
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
        injected faults such as the ``campaign.scenario`` ones, blown
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

    plan_params = dict(
        min_pre_periods=min_pre_periods,
        min_post_periods=min_post_periods,
        max_donor_missing=max_donor_missing,
        method="robust",
        energy=energy,
        ridge=ridge,
    )
    ckpt_dir: Path | None = None
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        manifest = _campaign_manifest(
            specs, budget, allocation, tol, round_refits, floor, min_ratios,
            alloc_seed, plan_params,
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
                plan = prepare_unit_plan(
                    panel, assignment, scenario=spec.name, **plan_params
                )
                ckpt = None
                if ckpt_dir is not None:
                    ckpt = StudyCheckpoint(
                        ckpt_dir / f"{spec.name}.jsonl",
                        f"campaign:{spec.name}",
                        resume,
                        outcome="rtt_ms",
                        **plan_params,
                    )
                states.append(
                    _ScenarioState(spec, truth, assignment, UnitLedger(plan, ckpt))
                )

            fits = SerialExecutor(retry=retry)
            ledgers = {state.name: state.ledger for state in states}

            # ------------------------------------------------- stage B
            work = interleave([state.ledger.work() for state in states])
            with span("campaign.fits", n_tasks=len(work)):
                run_unit_work(fits, ledgers, work)
            for state in states:
                state.queue = state.ledger.queue()
                state.measure()

            # ------------------------------------------------- stage C
            round_index = 0
            while spent < budget:
                stats = [
                    ScenarioStat(
                        name=state.name,
                        ci_width=state.width,
                        remaining=state.remaining,
                        converged=state.frozen,
                        n_ratios=state.n_ratios,
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

                per_scenario: list[list] = []
                for state in states:
                    start = state.next_index
                    state.next_index += grants.get(state.name, 0)
                    per_scenario.append(
                        state.ledger.work(state.queue[start : state.next_index])
                    )
                work = interleave(per_scenario)
                with span(
                    "campaign.round",
                    index=round_index,
                    granted=granted,
                    n_fresh=sum(len(cols) for _task, _fit, cols in work),
                    allocations=json.dumps(
                        dict(sorted(grants.items())), sort_keys=True
                    ),
                ):
                    run_unit_work(fits, ledgers, work)
                spent += granted
                metrics.counter(
                    "campaign_refits_total",
                    "placebo refits granted by the campaign allocator",
                ).inc(granted)

                converged_after: dict[str, bool] = {}
                for state in states:
                    state.measure()
                    settled = state.settled(min_ratios, tol)
                    if settled and not state.frozen and allocation == "adaptive":
                        state.frozen = True
                        metrics.counter(
                            "campaign_scenarios_frozen_total",
                            "scenarios frozen by the adaptive allocator",
                        ).inc()
                    # The trace's convergence flag is evaluated for both
                    # allocation modes (uniform never *acts* on it) so
                    # adaptive-vs-uniform comparisons read one field.
                    converged_after[state.name] = state.remaining == 0 or settled
                trace.append(
                    AllocationRound(
                        index=round_index,
                        allocations={n: grants.get(n, 0) for n in names},
                        widths={s.name: s.ci_width for s in stats},
                        converged={s.name: s.converged for s in stats},
                        spent_before=spent - granted,
                        granted=granted,
                        widths_after={state.name: state.width for state in states},
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
                                    None if math.isinf(state.width) else state.width
                                ),
                                converged=converged_after[state.name],
                            )
                        )
                round_index += 1

            # ------------------------------------------------- verdicts
            verdicts: list[ScenarioVerdict] = []
            studies: dict[str, StudyResult] = {}
            for state in states:
                rows, skipped = state.ledger.rows()
                study = StudyResult(
                    rows=tuple(rows),
                    assignment=state.assignment,
                    skipped=tuple(skipped),
                )
                studies[state.name] = study
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
                        ci_width=state.width,
                        converged=(
                            state.remaining == 0
                            or state.settled(min_ratios, tol)
                        ),
                    )
                )
                if telemetry is not None:
                    telemetry.publisher(state.name).publish_final(study)
    finally:
        for state in states:
            if state.ledger.checkpoint is not None:
                state.ledger.checkpoint.close()
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
