"""E2 — the collider box: speed tests as conditioned-on outcomes.

§3's selection-bias example: a route change and poor performance each
independently prompt users to run speed tests, so analysing only the
tests that happened conditions on a collider and manufactures an
association between route changes and degradation even when none
exists.

Two complementary demonstrations:

- :func:`run_collider_experiment` — a minimal SCM where the route-change
  -> latency effect is exactly zero, yet the association among
  collected tests is non-zero (and the full population shows none);
- :func:`tag_based_correction` — the §4.2 fix on platform data: using
  intent tags to keep only baseline-triggered tests removes the bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.frames.frame import Frame
from repro.graph.colliders import selection_bias_warning
from repro.graph.dag import CausalDag
from repro.scm.mechanisms import BernoulliMechanism, GaussianNoise, LinearMechanism, UniformNoise
from repro.scm.model import StructuralCausalModel


@dataclass(frozen=True)
class ColliderStudyOutput:
    """Contrast of the route-change/latency association across samples.

    Attributes
    ----------
    full_population_assoc:
        Mean latency difference (changed vs not) over *all* user-hours.
    collected_tests_assoc:
        The same contrast among rows where a test was actually run —
        the quantity a naive speed-test analysis computes.
    true_effect:
        The structural effect of a route change on latency (zero here).
    dag_warning:
        The structural explanation from
        :func:`repro.graph.selection_bias_warning`.
    """

    full_population_assoc: float
    collected_tests_assoc: float
    true_effect: float
    dag_warning: str

    @property
    def bias(self) -> float:
        """How much association the collider manufactured."""
        return self.collected_tests_assoc - self.true_effect

    def format_report(self) -> str:
        """Summary of the collider demonstration."""
        return "\n".join(
            [
                f"true effect of route change on latency: {self.true_effect:+.3f}",
                f"association over the full population:   {self.full_population_assoc:+.3f}",
                f"association among collected tests:      {self.collected_tests_assoc:+.3f}"
                f"   <- collider bias = {self.bias:+.3f}",
                "",
                "graphical diagnosis: " + self.dag_warning,
            ]
        )


def speedtest_dag() -> CausalDag:
    """route_change -> test_run <- bad_latency (no route->latency edge)."""
    return CausalDag(
        edges=[
            ("route_change", "test_run"),
            ("latency", "test_run"),
        ]
    )


def speedtest_model(
    change_to_test: float = 2.0,
    latency_to_test: float = 1.5,
) -> StructuralCausalModel:
    """The collider SCM: the route-change -> latency effect is ZERO."""
    return StructuralCausalModel(
        {
            "route_change": (BernoulliMechanism({}, intercept=-1.5), UniformNoise()),
            "latency": (LinearMechanism({}), GaussianNoise(1.0)),
            "test_run": (
                BernoulliMechanism(
                    {
                        "route_change": change_to_test,
                        "latency": latency_to_test,
                    },
                    intercept=-2.0,
                ),
                UniformNoise(),
            ),
        },
        dag=speedtest_dag(),
    )


def _contrast(latency: np.ndarray, changed: np.ndarray) -> float:
    changed = changed.astype(bool)
    if changed.sum() == 0 or (~changed).sum() == 0:
        raise EstimationError("need both changed and unchanged rows")
    return float(latency[changed].mean() - latency[~changed].mean())


def run_collider_experiment(
    n_samples: int = 40_000,
    seed: int = 0,
) -> ColliderStudyOutput:
    """Generate the collider world and measure the manufactured bias."""
    model = speedtest_model()
    data = model.sample(n_samples, rng=seed)
    latency = data["latency"]
    changed = data["route_change"]
    ran = data["test_run"].astype(bool)
    full = _contrast(latency, changed)
    collected = _contrast(latency[ran], changed[ran])
    warning = selection_bias_warning(
        speedtest_dag(), "route_change", "latency", {"test_run"}
    ) or "no collider path opened (unexpected)"
    return ColliderStudyOutput(
        full_population_assoc=full,
        collected_tests_assoc=collected,
        true_effect=0.0,
        dag_warning=warning,
    )


def tag_based_correction(measurements: Frame, ixp_name: str) -> dict[str, float]:
    """The §4.2 fix on real platform data: condition on intent tags.

    Computes the crossing-vs-not RTT contrast three ways on a tagged
    measurement frame: pooled (collider-conditioned), baseline-only
    (reaction-triggered tests dropped), and reactive-only (the bias
    concentrated).  Returns the three contrasts.
    """
    from repro.pipeline.crossing import crossing_mask

    crosses = crossing_mask(measurements, ixp_name)
    rtt = measurements.numeric("rtt_ms")
    # Classify each distinct tag once; rows index the result by code.
    codes, tags = measurements.column("trigger").factorize()
    tags = np.array([str(t) for t in tags], dtype=object)

    def tagged(*names: str) -> np.ndarray:
        return np.isin(tags, names)[codes]

    def contrast(mask: np.ndarray) -> float:
        c = crosses[mask]
        r = rtt[mask]
        if c.sum() == 0 or (~c).sum() == 0:
            return float("nan")
        return float(r[c].mean() - r[~c].mean())

    return {
        "pooled": contrast(np.ones(len(rtt), dtype=bool)),
        "baseline_only": contrast(tagged("baseline")),
        "reactive_only": contrast(tagged("performance", "route_change")),
    }
