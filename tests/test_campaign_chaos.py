"""Chaos tests for the campaign scheduler: cross-scenario fault isolation.

A campaign interleaves many scenarios, so the new failure mode is
*contamination*: a fault aimed at scenario A leaking into scenario B's
numbers or logs.  The claims:

- faults injected into ``fits.unit`` of one scenario and
  ``stream.batch`` of another fire **only under their own scenario's
  keys** (every campaign fault key is scenario-prefixed);
- with retries on, the afflicted campaign's verdict table equals the
  fault-free run's row for row — also when a stage-A worker process
  dies mid-scenario and the pool rebuilds.

``CHAOS_SEED`` (env) picks the seed; CI runs this file under two.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign import ScenarioSpec, run_campaign
from repro.chaos import (
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_events,
    fault_events,
)
from repro.obs import get_metrics
from repro.pipeline.executor import RetryPolicy

SEED = int(os.environ.get("CHAOS_SEED", "7"))

RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)

#: Two scenarios, different ingestion paths: faults target "alpha"'s
#: unit fits and "bravo"'s stream batches — never the other way round.
FLEET = (
    ScenarioSpec(
        name="alpha", kind="baseline", seed=1, measurement_seed=5,
        n_donor_ases=8, duration_days=10,
    ),
    ScenarioSpec(
        name="bravo", kind="congestion-shock", seed=2, measurement_seed=6,
        n_donor_ases=8, duration_days=10, ingest_batches=3,
    ),
)
BUDGET = 24

PLAN = FaultPlan(
    SEED,
    (
        FaultSpec(site="fits.unit", kind="error", match="alpha/"),
        FaultSpec(site="stream.batch", kind="error", match="bravo/"),
    ),
)


@pytest.fixture(autouse=True)
def _clean_fault_log():
    clear_events()
    yield
    clear_events()


@pytest.fixture(scope="module")
def baseline():
    """The fault-free campaign every chaos run must reproduce."""
    return run_campaign(FLEET, budget=BUDGET, n_jobs=1)


class TestCrossScenarioIsolation:
    def test_faults_do_not_change_the_verdict_table(self, baseline):
        with active_plan(PLAN):
            result = run_campaign(FLEET, budget=BUDGET, n_jobs=1, retry=RETRY)
        assert result.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        assert [r.to_dict() for r in result.trace] == [
            r.to_dict() for r in baseline.trace
        ]

    def test_fault_logs_partition_by_scenario(self):
        with active_plan(PLAN):
            run_campaign(FLEET, budget=BUDGET, n_jobs=1, retry=RETRY)
        events = fault_events()
        assert events, "the plan should have fired"
        by_site = {"fits.unit": [], "stream.batch": []}
        for event in events:
            by_site[event.site].append(event.key)
        # Every fit fault carries alpha's prefix, every ingest fault
        # bravo's — no cross-contamination in either direction.
        assert by_site["fits.unit"]
        assert all(k.startswith("alpha/") for k in by_site["fits.unit"])
        assert by_site["stream.batch"]
        assert all(k.startswith("bravo/") for k in by_site["stream.batch"])

    def test_parallel_campaign_same_faults_same_rows(self, baseline):
        with active_plan(PLAN):
            serial = run_campaign(FLEET, budget=BUDGET, n_jobs=1, retry=RETRY)
            serial_log = fault_events()
            clear_events()
            pooled = run_campaign(FLEET, budget=BUDGET, n_jobs=2, retry=RETRY)
            pooled_log = fault_events()
        assert serial.format_campaign_table() == pooled.format_campaign_table()
        assert serial.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        # Worker-side fault events ship home in task order, so even the
        # logs agree across backends.
        assert serial_log == pooled_log

    def test_refit_faults_are_scenario_scoped_too(self, baseline):
        plan = FaultPlan(
            SEED,
            (
                FaultSpec(
                    site="placebo.refit", kind="error", rate=0.5,
                    match="alpha/",
                ),
            ),
        )
        with active_plan(plan):
            result = run_campaign(FLEET, budget=BUDGET, n_jobs=1, retry=RETRY)
        assert result.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        keys = [e.key for e in fault_events()]
        assert keys and all(k.startswith("alpha/") for k in keys)


class TestPoolRecovery:
    def test_chaos_kill_in_pool_with_retries(self, baseline):
        # A stage-A worker hard-exits while streaming bravo's batches;
        # the pool rebuilds, the scenario task reruns, and the verdict
        # table comes out untouched.
        plan = FaultPlan(
            SEED, (FaultSpec(site="stream.batch", kind="kill", match="bravo/"),)
        )
        rebuilds = get_metrics().counter("pool_rebuilds_total").value
        with active_plan(plan):
            result = run_campaign(FLEET, budget=BUDGET, n_jobs=2, retry=RETRY)
        assert result.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        assert get_metrics().counter("pool_rebuilds_total").value >= rebuilds + 1
