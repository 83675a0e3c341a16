"""Tests for scenario specs, the kind registry, and the campaign loader."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    SCENARIO_KINDS,
    build_scenario,
    default_fleet,
    load_campaign,
    parse_campaign,
    scenario_kinds,
)
from repro.campaign.spec import ScenarioSpec
from repro.errors import SimulationError


class TestScenarioSpec:
    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="leak-3", kind="route-leak", seed=7, measurement_seed=11,
            n_donor_ases=10, duration_days=14, join_day=6, user_scale=0.75,
            ingest_batches=3, params={"leak_day": 8},
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # and through JSON (the campaign-file path)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown scenario kind"):
            ScenarioSpec(name="x", kind="volcano")

    def test_unsafe_name_rejected(self):
        # The name becomes a checkpoint filename; path tricks must fail.
        for bad in ("../escape", "", "a/b", ".hidden", "sp ace"):
            with pytest.raises(SimulationError, match="path-safe"):
                ScenarioSpec(name=bad)

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(SimulationError, match="unknown keys"):
            ScenarioSpec.from_dict({"name": "x", "sedd": 3})

    def test_unknown_params_rejected_at_build(self):
        spec = ScenarioSpec(
            name="x", kind="staggered-join", duration_days=8,
            n_donor_ases=6, params={"n_late_joiner": 1},
        )
        with pytest.raises(SimulationError, match="unknown params"):
            build_scenario(spec)

    def test_join_day_defaults_to_midpoint(self):
        assert ScenarioSpec(name="x", duration_days=18).effective_join_day == 9
        assert ScenarioSpec(name="x", join_day=4).effective_join_day == 4


class TestKindRegistry:
    def test_all_issue_kinds_registered(self):
        kinds = set(scenario_kinds())
        assert {
            "baseline", "staggered-join", "depeering", "outage",
            "route-leak", "congestion-shock", "adoption-sweep",
        } <= kinds

    def test_registry_order_is_stable(self):
        assert list(SCENARIO_KINDS) == list(scenario_kinds())


class TestBuildScenario:
    def test_same_spec_builds_identical_worlds(self):
        spec = ScenarioSpec(
            name="dep", kind="depeering", seed=3, duration_days=10,
            n_donor_ases=8,
        )
        a, b = build_scenario(spec), build_scenario(spec)
        assert [repr(e) for e in a.timeline.events] == [
            repr(e) for e in b.timeline.events
        ]
        assert a.treated_units == b.treated_units
        assert a.extra["spec"] == spec.to_dict()

    def test_staggered_join_adds_treated_units(self):
        base = build_scenario(
            ScenarioSpec(name="b", kind="baseline", seed=1, duration_days=10,
                         n_donor_ases=8)
        )
        staggered = build_scenario(
            ScenarioSpec(name="s", kind="staggered-join", seed=1,
                         duration_days=10, n_donor_ases=8,
                         params={"n_late_joiners": 2})
        )
        assert len(staggered.treated_units) > len(base.treated_units)
        assert len(staggered.join_hours) == len(base.join_hours) + 2

    @pytest.mark.parametrize("kind", scenario_kinds())
    def test_every_kind_materialises_across_seeds(self, kind):
        # The base world's background churn moves some donors between
        # regionals; no mutator may schedule a link that clashes with it
        # (or with a London transit the donor already buys).
        for seed in range(20):
            spec = ScenarioSpec(name=f"{kind}-{seed}", kind=kind, seed=seed)
            scenario = build_scenario(spec)
            scenario.timeline.state_at(spec.duration_days * 24.0 - 1.0)

    def test_congestion_shock_registers_a_shock(self):
        spec = ScenarioSpec(
            name="shock", kind="congestion-shock", seed=2, duration_days=10,
            n_donor_ases=8,
        )
        scenario = build_scenario(spec)
        base = build_scenario(
            ScenarioSpec(name="b", kind="baseline", seed=2, duration_days=10,
                         n_donor_ases=8)
        )
        mid = (spec.effective_join_day + 2) * 24.0
        assert scenario.congestion.utilization("ZA", mid) > (
            base.congestion.utilization("ZA", mid)
        )


class TestCampaignFiles:
    DOC = {
        "campaign": {"budget": 80, "allocation": "uniform", "tol": 0.3},
        "scenarios": [
            {"name": "a", "kind": "baseline", "seed": 1},
            {"name": "b", "kind": "outage", "seed": 2},
        ],
    }

    def test_parse_campaign(self):
        config = parse_campaign(self.DOC)
        assert [s.name for s in config.scenarios] == ["a", "b"]
        assert config.budget == 80
        assert config.allocation == "uniform"
        assert config.tol == 0.3
        assert config.round_refits is None

    def test_duplicate_names_rejected(self):
        doc = {"scenarios": [{"name": "a"}, {"name": "a"}]}
        with pytest.raises(SimulationError, match="duplicate"):
            parse_campaign(doc)

    def test_bad_allocation_rejected(self):
        doc = dict(self.DOC, campaign={"allocation": "greedy"})
        with pytest.raises(SimulationError, match="allocation"):
            parse_campaign(doc)

    def test_missing_scenarios_rejected(self):
        with pytest.raises(SimulationError, match="scenarios"):
            parse_campaign({"campaign": {}})

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.DOC))
        config = load_campaign(path)
        assert [s.name for s in config.scenarios] == ["a", "b"]

    def test_load_yaml_file_falls_back_to_json_without_pyyaml(
        self, tmp_path, monkeypatch
    ):
        # JSON is a YAML subset: a .yaml file holding JSON must load on
        # interpreters without PyYAML (the loader's gated import).
        import builtins

        real_import = builtins.__import__

        def no_yaml(name, *args, **kwargs):
            if name == "yaml":
                raise ImportError("no module named yaml")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_yaml)
        path = tmp_path / "campaign.yaml"
        path.write_text(json.dumps(self.DOC))
        config = load_campaign(path)
        assert config.budget == 80

        bad = tmp_path / "bad.yaml"
        bad.write_text("scenarios:\n  - name: a\n")
        with pytest.raises(SimulationError, match="PyYAML"):
            load_campaign(bad)


class TestDefaultFleet:
    def test_cycles_kinds_with_unique_names_and_seeds(self):
        fleet = default_fleet(9, seed=4)
        names = [s.name for s in fleet]
        assert len(set(names)) == 9
        assert [s.kind for s in fleet[: len(scenario_kinds())]] == list(
            scenario_kinds()
        )
        assert [s.seed for s in fleet] == list(range(4, 13))

    def test_adoption_sweep_scales_vary(self):
        n_kinds = len(scenario_kinds())
        fleet = default_fleet(2 * n_kinds)
        sweeps = [s for s in fleet if s.kind == "adoption-sweep"]
        assert len({s.user_scale for s in sweeps}) == 2

    def test_empty_fleet_rejected(self):
        with pytest.raises(SimulationError, match=">= 1"):
            default_fleet(0)
