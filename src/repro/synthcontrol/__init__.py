"""Synthetic control: the paper's counterfactual engine for Table 1.

- :func:`classic_synthetic_control` — Abadie convex-weight method;
- :func:`robust_synthetic_control` — Amjad/Shah/Shen de-noised
  regression (what the paper uses on M-Lab data);
- :func:`build_panel` / :func:`select_donors` — panels and donor pools
  from long-format measurement frames;
- :func:`placebo_test` — RMSE-ratio placebo inference (the p column);
- :func:`diagnose` / :func:`check_assumptions` — pre-fit quality and
  assumption warnings.
"""

from repro.synthcontrol.classic import classic_synthetic_control, fit_simplex_weights
from repro.synthcontrol.diagnostics import FitDiagnostics, check_assumptions, diagnose
from repro.synthcontrol.donor import Panel, PanelUpdate, build_panel, select_donors
from repro.synthcontrol.incremental import extend_factorization
from repro.synthcontrol.placebo import (
    PlaceboRatios,
    placebo_rmse_ratios,
    placebo_test,
)
from repro.synthcontrol.result import PlaceboSummary, SyntheticControlFit
from repro.synthcontrol.robustness import (
    RobustnessSummary,
    in_time_placebo,
    leave_one_donor_out,
    robustness_summary,
)
from repro.synthcontrol.robust import (
    DonorFactorization,
    denoise_from_factorization,
    denoise_without_column,
    factor_donor_matrix,
    fit_from_denoised,
    ridge_weights,
    robust_synthetic_control,
    singular_value_threshold,
)

__all__ = [
    "DonorFactorization",
    "FitDiagnostics",
    "Panel",
    "PanelUpdate",
    "PlaceboRatios",
    "PlaceboSummary",
    "RobustnessSummary",
    "SyntheticControlFit",
    "build_panel",
    "check_assumptions",
    "classic_synthetic_control",
    "denoise_from_factorization",
    "denoise_without_column",
    "diagnose",
    "extend_factorization",
    "factor_donor_matrix",
    "fit_from_denoised",
    "fit_simplex_weights",
    "in_time_placebo",
    "leave_one_donor_out",
    "placebo_rmse_ratios",
    "placebo_test",
    "ridge_weights",
    "robust_synthetic_control",
    "robustness_summary",
    "select_donors",
    "singular_value_threshold",
]
