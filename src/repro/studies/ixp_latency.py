"""The Table-1 case study, end to end: does joining an IXP reduce latency?

Builds the South-Africa-like world, generates user-initiated speed tests
with post-test traceroutes, detects first NAPAfrica-JNB crossings,
applies robust synthetic control per treated ⟨ASN, city⟩, and returns
the paper's table — plus simulator ground truth, which the paper could
never have and which lets tests assert the estimator is honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.frames.frame import Frame
from repro.mplatform.speedtest import measurements_frame
from repro.netsim.scenario import Scenario, build_table1_scenario
from repro.obs import span
from repro.pipeline.executor import RetryPolicy
from repro.pipeline.study import StudyResult, run_ixp_study


def scenario_truth(scenario: Scenario) -> dict[str, float]:
    """Simulator ground truth per treated unit, keyed by unit label.

    The label format (``AS{asn}/{city}``) matches
    :func:`repro.pipeline.study.parse_unit_label`, so the dict joins
    directly against estimated rows — used by both the Table-1
    experiment and the campaign verdict table.
    """
    return {
        f"AS{asn}/{city}": scenario.true_effect(asn, city)
        for asn, city in scenario.treated_units
    }


@dataclass(frozen=True)
class IxpStudyOutput:
    """Everything the Table-1 experiment produced.

    Attributes
    ----------
    result:
        The estimated table (one row per treated unit).
    truth:
        ``{unit_label: true_effect_ms}`` from the simulator.
    measurements:
        The raw measurement frame (for downstream diagnostics).
    scenario:
        The world it all ran in.
    """

    result: StudyResult
    truth: dict[str, float]
    measurements: Frame
    scenario: Scenario

    def comparison_rows(self) -> list[dict[str, float | str]]:
        """Estimated vs true effect per unit (for reports and tests)."""
        rows = []
        for row in self.result.rows:
            rows.append(
                {
                    "unit": row.unit,
                    "estimated_ms": row.rtt_delta_ms,
                    "true_ms": self.truth.get(row.unit, float("nan")),
                    "p_value": row.p_value,
                    "rmse_ratio": row.rmse_ratio,
                }
            )
        return rows

    def format_report(self) -> str:
        """The table plus the truth column and headline verdict."""
        lines = [self.result.format_table(), ""]
        lines.append(f"{'unit':<28}  {'estimated':>9}  {'true':>7}")
        for row in self.comparison_rows():
            lines.append(
                f"{row['unit']:<28}  {row['estimated_ms']:>+9.2f}  {row['true_ms']:>+7.2f}"
            )
        verdict = (
            "effect is consistent and robust"
            if self.result.consistent_effect
            else "effect is neither consistent nor robust (the paper's finding)"
        )
        lines.append("")
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def run_table1_experiment(
    n_donor_ases: int = 25,
    duration_days: int = 40,
    join_day: int = 20,
    seed: int = 2,
    measurement_seed: int = 1,
    method: str = "robust",
    retry: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> IxpStudyOutput:
    """Run the full case study at the given scale.

    The defaults reproduce the Table-1 *shape* in a few seconds; the
    benchmark runs the paper-scale 60-day window.  *retry*,
    *checkpoint*, and *resume* pass through to :func:`run_ixp_study`
    (the world and measurements are regenerated on resume — only the
    per-unit fits are journaled).
    """
    with span("experiment.table1", donors=n_donor_ases, days=duration_days, seed=seed):
        t0 = time.perf_counter()
        scenario = build_table1_scenario(
            n_donor_ases=n_donor_ases,
            duration_days=duration_days,
            join_day=join_day,
            seed=seed,
        )
        measurements = measurements_frame(scenario, rng=measurement_seed)
        generation_seconds = time.perf_counter() - t0
        result = run_ixp_study(
            measurements,
            scenario.ixp_name,
            method=method,
            generation_seconds=generation_seconds,
            retry=retry,
            checkpoint=checkpoint,
            resume=resume,
        )
        truth = scenario_truth(scenario)
    return IxpStudyOutput(
        result=result,
        truth=truth,
        measurements=measurements,
        scenario=scenario,
    )
