"""Multi-scenario campaign engine with adaptive budget allocation.

The anti-Sisyphus layer: instead of re-running one IXP case study, a
campaign runs a *fleet* of seeded scenario perturbations — staggered
adoption waves, depeering, outages, route leaks, congestion shocks,
adoption-rate sweeps — on one shared executor, spends its placebo-refit
budget where effect estimates are still uncertain (Zeph-style
proportional allocation with freezing), and reports a cross-scenario
verdict table generalizing the paper's Table 1.

- :mod:`repro.campaign.spec` — seeded, serializable scenario specs, the
  kind registry, and the declarative campaign-file loader;
- :mod:`repro.campaign.allocator` — CI-width-proportional budget rounds
  with starvation floor and deterministic seeded tie-breaks;
- :mod:`repro.campaign.scheduler` — the campaign run itself: shared
  pool, per-scenario checkpoints, resume, telemetry, verdicts.
"""

from repro.campaign.allocator import (
    AllocationRound,
    ScenarioStat,
    allocate_round,
    placebo_ci_width,
    uniform_round,
)
from repro.campaign.scheduler import (
    CampaignResult,
    CampaignRoundReport,
    ScenarioVerdict,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignConfig,
    SCENARIO_KINDS,
    ScenarioSpec,
    build_scenario,
    default_fleet,
    load_campaign,
    parse_campaign,
    scenario_kinds,
)

__all__ = [
    "AllocationRound",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRoundReport",
    "SCENARIO_KINDS",
    "ScenarioStat",
    "ScenarioVerdict",
    "allocate_round",
    "build_scenario",
    "default_fleet",
    "load_campaign",
    "parse_campaign",
    "placebo_ci_width",
    "run_campaign",
    "scenario_kinds",
    "uniform_round",
]
