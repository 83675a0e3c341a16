"""Shared fixtures: small simulation worlds and sampled measurement frames.

Expensive artefacts (scenario + generated speed tests) are session-scoped
so the pipeline/integration tests share one simulation run.
"""

from __future__ import annotations

import pytest

from repro.frames import Frame
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario


@pytest.fixture(scope="session")
def small_scenario():
    """A compact Table-1 world: 12 donors, 20 days, joins on day 10."""
    return build_table1_scenario(
        n_donor_ases=12, duration_days=20, join_day=10, seed=0
    )


@pytest.fixture(scope="session")
def small_frame(small_scenario) -> Frame:
    """The small scenario's measurement frame."""
    return measurements_frame(small_scenario, rng=3)
