"""Measurement platforms over the simulated Internet.

- :mod:`~repro.mplatform.speedtest` — user-initiated, endogenously
  triggered tests (the M-Lab stand-in, collider included);
- :mod:`~repro.mplatform.probes` — fixed-interval scheduled probing
  (the Atlas stand-in);
- :mod:`~repro.mplatform.loadbalancer` — randomized server assignment
  (the M-Lab natural experiment);
- :mod:`~repro.mplatform.triggers` — §4.1 conditional activation;
- :mod:`~repro.mplatform.knobs` — §4.3 exogenous intervention APIs;
- :mod:`~repro.mplatform.records` — measurement records with §4.2
  intent tags, and frame export.
"""

from repro.mplatform.knobs import RouteToggle, ToggleArm
from repro.mplatform.loadbalancer import (
    LoadBalancerWorld,
    ServerSite,
    default_world,
    generate_tests,
    site_contrast,
)
from repro.mplatform.probes import ProbePlatform, ProbeSchedule
from repro.mplatform.records import (
    MEASUREMENT_COLUMNS,
    Measurement,
    Trigger,
    measurements_to_frame,
)
from repro.mplatform.speedtest import (
    SpeedTestConfig,
    SpeedTestGenerator,
    measurements_frame,
)
from repro.mplatform.triggers import SIGNALS, BurstPlan, ConditionalTrigger

__all__ = [
    "BurstPlan",
    "ConditionalTrigger",
    "LoadBalancerWorld",
    "MEASUREMENT_COLUMNS",
    "Measurement",
    "ProbePlatform",
    "ProbeSchedule",
    "RouteToggle",
    "SIGNALS",
    "ServerSite",
    "SpeedTestConfig",
    "SpeedTestGenerator",
    "ToggleArm",
    "Trigger",
    "default_world",
    "generate_tests",
    "measurements_frame",
    "measurements_to_frame",
    "site_contrast",
]
