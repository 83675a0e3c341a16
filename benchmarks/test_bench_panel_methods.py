"""Experiment A4 — cross-estimator validation on the Table-1 panel.

Runs three estimator families on the same simulated measurement panel
and compares them to simulator ground truth, in two worlds:

- **clean world** (no background churn, condition-independent
  sampling): robust synthetic control, two-way fixed effects, and an
  event study all land on the truth — methods with different
  assumptions agree when the assumptions hold.
- **churn world** (donors switch transit mid-window, the default
  Table-1 setting): pooled TWFE absorbs the contaminated controls into
  its counterfactual and drifts, while synthetic control's donor
  *screening and weighting* keeps per-unit estimates near the truth —
  the design reason the paper's case study is built on synthetic
  control rather than a pooled regression.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _report import write_report

from repro.estimators import event_study, fixed_effects_estimate
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.pipeline import daily_median_rtt, run_ixp_study


def _world(churn: float):
    scenario = build_table1_scenario(
        n_donor_ases=25,
        duration_days=40,
        join_day=20,
        seed=2,
        churn_probability=churn,
    )
    frame = measurements_frame(scenario, rng=1, endogenous=False)
    daily = daily_median_rtt(frame)
    join_day_by_unit = {
        f"AS{asn}/{city}": scenario.join_hours[asn] / 24.0
        for asn, city in scenario.treated_units
    }
    daily = daily.derive(
        "treated",
        lambda r: 1.0
        if join_day_by_unit.get(r["unit"]) is not None
        and r["day"] >= join_day_by_unit[r["unit"]]
        else 0.0,
    )
    truth_mean = float(
        np.mean([scenario.true_effect(a, c) for a, c in scenario.treated_units])
    )
    sc_result = run_ixp_study(frame, scenario.ixp_name)
    sc_mean = float(np.mean([r.rtt_delta_ms for r in sc_result.rows]))
    twfe = fixed_effects_estimate(daily, "unit", "day", "treated", "rtt_median")
    study = event_study(
        daily,
        "unit",
        "day",
        "rtt_median",
        {u: float(int(d)) for u, d in join_day_by_unit.items()},
        max_lead=6,
        max_lag=10,
    )
    return {
        "truth": truth_mean,
        "sc": sc_mean,
        "twfe": twfe.effect,
        "event": study.average_post_effect(),
        "event_table": study.format_table(),
    }


def _run():
    return {"clean": _world(churn=0.0), "churn": _world(churn=0.35)}


def test_panel_methods(benchmark):
    r = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = []
    for name, world in r.items():
        lines.append(f"{name} world:")
        lines.append(f"  truth (mean treated effect):   {world['truth']:+.2f} ms")
        lines.append(f"  robust synthetic control:      {world['sc']:+.2f} ms")
        lines.append(f"  two-way fixed effects:         {world['twfe']:+.2f} ms")
        lines.append(f"  event study (avg post):        {world['event']:+.2f} ms")
        lines.append("")
    lines.append("clean-world event-study dynamics:")
    lines.append(r["clean"]["event_table"])
    write_report(
        "A4_panel_methods",
        "A4: synthetic control vs TWFE vs event study",
        "\n".join(lines),
    )

    clean = r["clean"]
    for key in ("sc", "twfe", "event"):
        assert abs(clean[key] - clean["truth"]) < 1.5, (key, clean)
    churn = r["churn"]
    # Synthetic control stays accurate under churn...
    assert abs(churn["sc"] - churn["truth"]) < 1.5, churn
    # ...and is at least as close to the truth as pooled TWFE.
    assert abs(churn["sc"] - churn["truth"]) <= abs(churn["twfe"] - churn["truth"]) + 0.2
