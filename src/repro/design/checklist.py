"""Assumption checklists: SUTVA, exclusion, selection, pre-trends.

The paper insists causal claims come with their assumptions attached.
These helpers generate structured checklists a study must answer —
and, where the data permits, auto-fill answers (e.g. running the
parallel-trends test, or scanning a measurement frame for intent-tag
imbalance that signals collider conditioning).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.frames.frame import Frame


class CheckStatus(Enum):
    """Outcome of one checklist item."""

    PASS = "pass"
    WARN = "warn"
    FAIL = "fail"
    MANUAL = "manual"  # needs human/domain judgement


@dataclass(frozen=True)
class CheckItem:
    """One assumption check with its verdict and evidence."""

    name: str
    status: CheckStatus
    detail: str

    def __str__(self) -> str:
        return f"[{self.status.value.upper():>6}] {self.name}: {self.detail}"


def sutva_checklist(
    n_treated_units: int,
    donor_units: int,
    shared_infrastructure: bool,
) -> list[CheckItem]:
    """SUTVA items for an IXP-style unit-level study.

    *shared_infrastructure* should be True when treated and donor units
    ride the same upstreams/fabric, which is exactly when treatment
    spillovers (the paper's 'reshapes the local routing topology') are
    plausible.
    """
    items = [
        CheckItem(
            name="no interference (spillover to donors)",
            status=CheckStatus.WARN if shared_infrastructure else CheckStatus.MANUAL,
            detail=(
                "treated and donor units share upstream infrastructure; traffic "
                "shifts onto the new link can change donors' congestion"
                if shared_infrastructure
                else "verify donors do not share bottlenecks with treated units"
            ),
        ),
        CheckItem(
            name="well-defined treatment",
            status=CheckStatus.MANUAL,
            detail=(
                "'first crossing the IXP' must mean the same operational change "
                "for every unit (same exchange, same peering policy)"
            ),
        ),
        CheckItem(
            name="donor pool size",
            status=CheckStatus.PASS if donor_units >= 10 else CheckStatus.WARN,
            detail=f"{donor_units} donors for {n_treated_units} treated units",
        ),
    ]
    return items


def selection_bias_checklist(measurements: Frame) -> list[CheckItem]:
    """Scan a tagged measurement frame for endogenous-sampling red flags.

    Uses the §4.2 intent tags: a high share of performance- or
    change-triggered tests means the sample over-represents bad moments
    (the collider at work), and analyses pooling all tests inherit that
    bias.
    """
    items: list[CheckItem] = []
    if "trigger" not in measurements:
        items.append(
            CheckItem(
                name="intent tags present",
                status=CheckStatus.FAIL,
                detail="no 'trigger' column: selection bias cannot be assessed",
            )
        )
        return items
    # Count rows per distinct tag; each tag is classified once.
    codes, tags = measurements.column("trigger").factorize()
    n = len(codes)
    per_tag = np.bincount(codes, minlength=len(tags))
    reactive = sum(
        int(count)
        for tag, count in zip(tags, per_tag)
        if str(tag) in ("performance", "route_change")
    )
    share = reactive / n if n else 0.0
    items.append(
        CheckItem(
            name="intent tags present",
            status=CheckStatus.PASS,
            detail=f"{n} measurements tagged",
        )
    )
    items.append(
        CheckItem(
            name="reactive-measurement share",
            status=(
                CheckStatus.PASS
                if share < 0.15
                else CheckStatus.WARN
                if share < 0.4
                else CheckStatus.FAIL
            ),
            detail=(
                f"{share:.0%} of tests were reaction-triggered; pooled estimates "
                "condition on a collider to that extent"
            ),
        )
    )
    return items


def pre_trend_checklist(
    treated_pre: np.ndarray,
    synthetic_pre: np.ndarray,
    max_relative_rmse: float = 0.15,
) -> list[CheckItem]:
    """Pre-period fit items for a synthetic-control analysis."""
    ok = np.isfinite(treated_pre) & np.isfinite(synthetic_pre)
    items: list[CheckItem] = []
    if ok.sum() < 3:
        items.append(
            CheckItem(
                name="pre-period coverage",
                status=CheckStatus.FAIL,
                detail=f"only {int(ok.sum())} overlapping pre-period points",
            )
        )
        return items
    gaps = treated_pre[ok] - synthetic_pre[ok]
    rmse = float(np.sqrt(np.mean(gaps**2)))
    scale = float(np.mean(np.abs(treated_pre[ok])))
    rel = rmse / scale if scale > 0 else float("inf")
    items.append(
        CheckItem(
            name="pre-period coverage",
            status=CheckStatus.PASS,
            detail=f"{int(ok.sum())} overlapping points",
        )
    )
    items.append(
        CheckItem(
            name="pre-change fit",
            status=CheckStatus.PASS if rel <= max_relative_rmse else CheckStatus.WARN,
            detail=f"relative pre-RMSE {rel:.1%} (threshold {max_relative_rmse:.0%})",
        )
    )
    return items


def format_checklist(items: list[CheckItem]) -> str:
    """Render a checklist as aligned text."""
    return "\n".join(str(item) for item in items)
