"""Determinism and resume contracts for the campaign scheduler.

The acceptance criteria, as tests:

- **Permutation/backend invariance**: any scenario-order permutation
  and any ``--jobs`` value produce the identical verdict table *and*
  the identical allocation trace — the campaign is a pure function of
  the (sorted) spec set and its parameters.
- **Kill-and-resume**: a campaign killed mid-run (``kill -9`` at the
  CLI, journal truncation in-process) and resumed from its checkpoint
  directory reproduces the uninterrupted output byte for byte.
- **Seeded adaptivity**: the adaptive allocation trace is exactly
  reproducible per ``alloc_seed``.
- **Study parity**: with the budget covering every queue, a one-
  scenario campaign's rows equal ``run_ixp_study``'s exactly — the
  interleaved, budgeted path changes scheduling, never numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignResult,
    ScenarioSpec,
    default_fleet,
    run_campaign,
)
from repro.errors import CheckpointError, PipelineError

FLEET = default_fleet(3, seed=0, duration_days=10, n_donor_ases=8)
BUDGET = 36


def _trace_dicts(result: CampaignResult) -> list[dict]:
    return [r.to_dict() for r in result.trace]


@pytest.fixture(scope="module")
def baseline() -> CampaignResult:
    return run_campaign(FLEET, budget=BUDGET, n_jobs=1)


class TestPermutationAndBackendInvariance:
    def test_scenario_order_permutation_is_invisible(self, baseline):
        permuted = run_campaign(
            tuple(reversed(FLEET)), budget=BUDGET, n_jobs=1
        )
        assert permuted.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        assert _trace_dicts(permuted) == _trace_dicts(baseline)

    def test_jobs_count_is_invisible(self, baseline):
        pooled = run_campaign(FLEET, budget=BUDGET, n_jobs=3)
        assert pooled.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        assert _trace_dicts(pooled) == _trace_dicts(baseline)
        assert pooled.to_csv() == baseline.to_csv()

    def test_permuted_and_pooled_together(self, baseline):
        shuffled = (FLEET[1], FLEET[2], FLEET[0])
        result = run_campaign(shuffled, budget=BUDGET, n_jobs=2)
        assert result.format_campaign_table() == (
            baseline.format_campaign_table()
        )
        assert _trace_dicts(result) == _trace_dicts(baseline)


class TestAdaptiveDeterminism:
    def test_trace_is_exactly_reproducible_per_seed(self, baseline):
        again = run_campaign(FLEET, budget=BUDGET, n_jobs=1)
        assert _trace_dicts(again) == _trace_dicts(baseline)
        assert again.to_json() == baseline.to_json()

    def test_budget_accounting(self, baseline):
        assert baseline.total_refits <= BUDGET
        assert baseline.total_refits == sum(
            r.granted for r in baseline.trace
        )
        assert sum(
            v.placebo_refits for v in baseline.verdicts
        ) == baseline.total_refits

    def test_verdicts_sorted_and_json_round_trips(self, baseline):
        names = [v.scenario for v in baseline.verdicts]
        assert names == sorted(names)
        doc = json.loads(baseline.to_json())
        assert [v["scenario"] for v in doc["verdicts"]] == names
        assert len(doc["trace"]) == len(baseline.trace)


class TestStudyParity:
    def test_unbounded_campaign_matches_run_ixp_study(self):
        from repro.campaign import build_scenario
        from repro.mplatform import measurements_frame
        from repro.pipeline import run_ixp_study

        spec = ScenarioSpec(
            name="anchor", kind="baseline", seed=1, measurement_seed=5,
            n_donor_ases=8, duration_days=10,
        )
        result = run_campaign([spec], budget=10_000, tol=0.0)
        study = result.studies["anchor"]
        scenario = build_scenario(spec)
        frame = measurements_frame(scenario, rng=spec.measurement_seed)
        reference = run_ixp_study(frame, scenario.ixp_name, method="robust")
        assert study.rows == reference.rows
        assert study.skipped == reference.skipped

    def test_scenarios_sharing_unit_labels_match_their_own_studies(self):
        """Two baseline worlds share unit labels but not data: a
        prefactor table keyed by unit alone would cross their fits."""
        from repro.campaign import build_scenario
        from repro.mplatform import measurements_frame
        from repro.pipeline import run_ixp_study

        specs = [
            ScenarioSpec(
                name=name, kind="baseline", seed=seed, measurement_seed=seed + 4,
                n_donor_ases=8, duration_days=10,
            )
            for name, seed in (("left", 1), ("right", 2))
        ]
        references = {}
        for spec in specs:
            scenario = build_scenario(spec)
            frame = measurements_frame(scenario, rng=spec.measurement_seed)
            references[spec.name] = run_ixp_study(
                frame, scenario.ixp_name, method="robust"
            )
        left = {r.unit for r in references["left"].rows}
        assert left & {r.unit for r in references["right"].rows}
        for n_jobs in (1, 2):
            result = run_campaign(specs, budget=10_000, tol=0.0, n_jobs=n_jobs)
            for spec in specs:
                study = result.studies[spec.name]
                assert study.rows == references[spec.name].rows, (n_jobs, spec.name)
                assert study.skipped == references[spec.name].skipped


class TestValidation:
    def test_duplicate_spec_names_rejected(self):
        spec = ScenarioSpec(name="twin", duration_days=8, n_donor_ases=6)
        with pytest.raises(PipelineError, match="duplicate"):
            run_campaign([spec, spec], budget=4)

    def test_bad_allocation_rejected(self):
        spec = ScenarioSpec(name="one", duration_days=8, n_donor_ases=6)
        with pytest.raises(PipelineError, match="allocation"):
            run_campaign([spec], budget=4, allocation="greedy")

    def test_negative_budget_rejected(self):
        spec = ScenarioSpec(name="one", duration_days=8, n_donor_ases=6)
        with pytest.raises(PipelineError, match="budget"):
            run_campaign([spec], budget=-1)


class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def full_run(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("campaign-ckpt") / "full"
        result = run_campaign(
            FLEET, budget=BUDGET, n_jobs=1, checkpoint_dir=ckpt
        )
        return ckpt, result

    def test_checkpointed_run_matches_plain(self, full_run, baseline):
        _, result = full_run
        assert result.format_campaign_table() == (
            baseline.format_campaign_table()
        )

    def test_resume_after_journal_truncation_is_byte_identical(
        self, full_run, tmp_path
    ):
        """Chop one scenario's journal in half (a mid-write kill) and
        resume: table and trace must come back byte-identical."""
        full_ckpt, reference = full_run
        cut = tmp_path / "cut"
        shutil.copytree(full_ckpt, cut)
        victim = sorted(cut.glob("*.jsonl"))[-1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        resumed = run_campaign(
            FLEET, budget=BUDGET, n_jobs=1, checkpoint_dir=cut, resume=True
        )
        assert resumed.format_campaign_table() == (
            reference.format_campaign_table()
        )
        assert _trace_dicts(resumed) == _trace_dicts(reference)

    def test_resume_with_missing_journals_recomputes_everything(
        self, full_run, tmp_path
    ):
        _, reference = full_run
        empty = tmp_path / "empty"
        resumed = run_campaign(
            FLEET, budget=BUDGET, n_jobs=1, checkpoint_dir=empty, resume=True
        )
        assert resumed.format_campaign_table() == (
            reference.format_campaign_table()
        )

    def test_resume_refuses_a_changed_fit_parameter(self, full_run, tmp_path):
        full_ckpt, _ = full_run
        cut = tmp_path / "energy"
        shutil.copytree(full_ckpt, cut)
        with pytest.raises(CheckpointError, match="manifest"):
            run_campaign(
                FLEET, budget=BUDGET, n_jobs=1, checkpoint_dir=cut, resume=True,
                energy=0.6,
            )

    def test_resume_refuses_a_mismatched_manifest(self, full_run, tmp_path):
        full_ckpt, _ = full_run
        cut = tmp_path / "mismatch"
        shutil.copytree(full_ckpt, cut)
        with pytest.raises(CheckpointError, match="manifest"):
            run_campaign(
                FLEET, budget=BUDGET + 1, n_jobs=1,
                checkpoint_dir=cut, resume=True,
            )


class TestKillDashNineCli:
    ARGS = [
        "campaign", "--scenarios", "3", "--days", "10", "--donors", "8",
        "--seed", "0", "--budget", "36",
    ]

    def test_kill_dash_nine_then_resume(self, tmp_path):
        """SIGKILL a checkpointing campaign mid-fits, resume it, and the
        stdout (the verdict table) equals the uninterrupted run's."""
        ckpt = tmp_path / "ckpt"
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "repro", *self.ARGS]

        proc = subprocess.Popen(
            cmd + ["--checkpoint", str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        )
        # Wait until some scenario journal holds at least one fit
        # record past its header, then kill -9.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            if any(
                p.read_bytes().count(b"\n") >= 2 for p in ckpt.glob("*.jsonl")
            ):
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

        resumed = subprocess.run(
            cmd + ["--checkpoint", str(ckpt), "--resume"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            timeout=300, check=True,
        )
        uninterrupted = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            timeout=300, check=True,
        )
        assert resumed.stdout == uninterrupted.stdout
        assert b"budget:" in resumed.stdout


class TestTelemetryMux:
    def test_campaign_publishes_per_scenario_channels(self):
        from repro.obs.serve import TelemetryMux

        mux = TelemetryMux()
        result = run_campaign(
            FLEET[:2], budget=16, n_jobs=1, telemetry=mux
        )
        assert mux.channels() == tuple(
            sorted(s.name for s in FLEET[:2])
        )
        health = mux.health()
        assert health["status"] == "ok"
        assert health["n_channels"] == 2
        view = mux.live_view()
        assert set(view["scenarios"]) == set(mux.channels())
        for name in mux.channels():
            channel = view["scenarios"][name]
            assert channel["finalized"] is True
            rows = channel["verdict"]["rows"]
            study = result.studies[name]
            assert [r["unit"] for r in rows] == [r.unit for r in study.rows]
        # The whole document must be JSON-serializable (inf-free).
        json.dumps(view)
