"""Seeded, serializable scenario specs for multi-scenario campaigns.

The paper's complaint is that the community keeps re-measuring *one*
case (one IXP, one window) instead of covering the space of causal
scenarios.  A :class:`ScenarioSpec` is one point in that space: a named,
seeded perturbation of :func:`~repro.netsim.scenario.build_table1_scenario`
— an extra adoption wave onto the exchange, depeering events, a
regional outage, a route leak through a distant transit, a congestion
shock, or an adoption-rate sweep — that serializes to a dict (and back)
so whole fleets live in a ``campaign.yaml``/``.json`` file.

Every perturbation is applied *before* the scenario's first timeline
query (the :class:`~repro.netsim.events.Timeline` freezes on first
state access), and every random draw inside a perturbation comes from a
generator seeded by the spec alone — building the same spec twice
yields bit-identical worlds, which is what makes campaign results
reproducible across scenario-order permutations, worker counts, and
kill/resume boundaries.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.netsim.congestion import RegionalShock
from repro.netsim.events import (
    DepeeringEvent,
    IxpJoinEvent,
    MaintenanceWindowEvent,
    NewLinkEvent,
)
from repro.netsim.scenario import Scenario, build_table1_scenario

#: Donor access ASNs are allocated sequentially from this base by the
#: Table-1 builder (``AsnAllocator(start=64700)``), so perturbations can
#: address "the k-th donor" without re-deriving the allocator.
_DONOR_ASN_BASE = 64700

#: The builder's fixed core ASNs (see ``build_table1_scenario``).
_GLOBAL_LON = 64601
_REGIONAL_JNB = 64611
_REGIONAL_CPT = 64612
_CONTENT_CDN = 64500

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

Mutator = Callable[[Scenario, "ScenarioSpec", np.random.Generator], None]

#: Registry of scenario kinds: name -> post-build mutator.  Order is the
#: registration order; :func:`default_fleet` cycles through it.
SCENARIO_KINDS: dict[str, Mutator] = {}


def register_kind(name: str) -> Callable[[Mutator], Mutator]:
    """Register a scenario-kind mutator under *name*."""

    def wrap(fn: Mutator) -> Mutator:
        SCENARIO_KINDS[name] = fn
        return fn

    return wrap


def scenario_kinds() -> tuple[str, ...]:
    """The registered scenario kinds, in registration order."""
    return tuple(SCENARIO_KINDS)


@dataclass(frozen=True)
class ScenarioSpec:
    """One seeded scenario in a campaign, serializable as a flat dict.

    Attributes
    ----------
    name:
        Unique, path-safe label (it names the scenario's checkpoint
        journal and telemetry channel).
    kind:
        A registered scenario kind (see :func:`scenario_kinds`).
    seed, measurement_seed:
        World seed and speed-test RNG seed.
    n_donor_ases, duration_days, join_day:
        Passed through to the Table-1 builder (*join_day* defaults to
        the window midpoint).
    user_scale:
        Population multiplier — the adoption-rate knob.  Smaller scales
        mean fewer tests per cell, noisier panels, and wider placebo
        spreads, which is exactly the heterogeneity the adaptive budget
        allocator exploits.
    ingest_batches:
        When > 1, the campaign builds this scenario's panel and
        assignment by streaming its measurement frame through the
        incremental accumulators in that many time slices (exercising
        the ``stream.batch`` fault site per slice) instead of the batch
        pivot; the resulting state is bit-identical either way.
    params:
        Kind-specific knobs (e.g. ``n_late_joiners`` for
        ``staggered-join``); unknown keys are rejected by the mutator.
    """

    name: str
    kind: str = "baseline"
    seed: int = 0
    measurement_seed: int = 1
    n_donor_ases: int = 12
    duration_days: int = 20
    join_day: int | None = None
    user_scale: float = 1.0
    ingest_batches: int = 1
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SimulationError(
                f"scenario name {self.name!r} is not path-safe "
                "(use letters, digits, '.', '_', '-')"
            )
        if self.kind not in SCENARIO_KINDS:
            raise SimulationError(
                f"unknown scenario kind {self.kind!r}; "
                f"registered: {', '.join(scenario_kinds())}"
            )
        if self.ingest_batches < 1:
            raise SimulationError(
                f"ingest_batches must be >= 1, got {self.ingest_batches}"
            )

    @property
    def effective_join_day(self) -> int:
        """The join day actually used (window midpoint when unset)."""
        return self.duration_days // 2 if self.join_day is None else self.join_day

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict that :meth:`from_dict` round-trips exactly."""
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "measurement_seed": self.measurement_seed,
            "n_donor_ases": self.n_donor_ases,
            "duration_days": self.duration_days,
            "join_day": self.join_day,
            "user_scale": self.user_scale,
            "ingest_batches": self.ingest_batches,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written YAML)."""
        known = {
            "name", "kind", "seed", "measurement_seed", "n_donor_ases",
            "duration_days", "join_day", "user_scale", "ingest_batches",
            "params",
        }
        unknown = set(data) - known
        if unknown:
            raise SimulationError(
                f"scenario spec has unknown keys {sorted(unknown)} "
                f"(name={data.get('name')!r})"
            )
        if "name" not in data:
            raise SimulationError("scenario spec is missing 'name'")
        return cls(
            name=str(data["name"]),
            kind=str(data.get("kind", "baseline")),
            seed=int(data.get("seed", 0)),
            measurement_seed=int(data.get("measurement_seed", 1)),
            n_donor_ases=int(data.get("n_donor_ases", 12)),
            duration_days=int(data.get("duration_days", 20)),
            join_day=(
                None if data.get("join_day") is None else int(data["join_day"])
            ),
            user_scale=float(data.get("user_scale", 1.0)),
            ingest_batches=int(data.get("ingest_batches", 1)),
            params=dict(data.get("params", {})),
        )


def _spec_rng(spec: ScenarioSpec) -> np.random.Generator:
    """The mutator's RNG: seeded by the spec alone, never shared."""
    kind_index = list(SCENARIO_KINDS).index(spec.kind)
    return np.random.default_rng([int(spec.seed), kind_index])


def _donor_asns(spec: ScenarioSpec) -> list[int]:
    return list(range(_DONOR_ASN_BASE, _DONOR_ASN_BASE + spec.n_donor_ases))


def _scheduled_links(scenario: Scenario) -> dict[int, list[tuple[float, int]]]:
    """The base world's scheduled ``(hour, provider)`` link adds per AS.

    The builder's background churn moves some donors to the other
    regional mid-window.  A mutator that adds or tears down one of the
    same adjacencies would make the timeline fail on its first query, so
    each mutator consults this map to leave churned donors alone.
    """
    links: dict[int, list[tuple[float, int]]] = {}
    for event in scenario.timeline.events:
        if isinstance(event, NewLinkEvent):
            links.setdefault(event.a_asn, []).append((event.time_hour, event.b_asn))
    return links


def _param(spec: ScenarioSpec, name: str, default: Any, allowed: set[str]) -> Any:
    unknown = set(spec.params) - allowed
    if unknown:
        raise SimulationError(
            f"scenario {spec.name!r} (kind={spec.kind}) has unknown params "
            f"{sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return spec.params.get(name, default)


@register_kind("baseline")
def _baseline(scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator) -> None:
    """The unperturbed Table-1 world."""
    _param(spec, "", None, set())


@register_kind("staggered-join")
def _staggered_join(
    scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator
) -> None:
    """An adoption wave: extra donor ASes join the exchange late.

    The late joiners start crossing the IXP mid-window, so treatment
    detection picks them up as additional treated units (and drops them
    from every donor pool) — the "IXP appears for more members, at
    staggered hours" fleet axis.
    """
    allowed = {"n_late_joiners", "spread_days"}
    n = int(_param(spec, "n_late_joiners", 2, allowed))
    spread = int(_param(spec, "spread_days", 4, allowed))
    donors = _donor_asns(spec)
    if n > len(donors):
        raise SimulationError(
            f"scenario {spec.name!r}: {n} late joiners but only "
            f"{len(donors)} donor ASes"
        )
    join_day = spec.effective_join_day
    order = [int(p) for p in rng.permutation(len(donors))]
    # Joining peers the AS with every exchange member; a churn link to a
    # member scheduled after the join would then already exist.  Such
    # donors are dropped and the wave re-drawn from the next in line.
    members = set(scenario.ixps.get(scenario.ixp_name).members)
    links = _scheduled_links(scenario)
    excluded: set[int] = set()
    while True:
        picks = sorted([p for p in order if p not in excluded][:n])
        if len(picks) < n:
            raise SimulationError(
                f"scenario {spec.name!r}: fewer than {n} donor ASes can "
                "join without clashing with scheduled churn"
            )
        hours = [
            (join_day + 1 + (i % max(spread, 1))) * 24.0 + float(rng.integers(6, 18))
            for i in range(n)
        ]
        clashes = {
            pick
            for pick, hour in zip(picks, hours)
            for at, other in links.get(donors[pick], ())
            if at > hour and other in members
        }
        if not clashes:
            break
        excluded |= clashes
    for pick, hour in zip(picks, hours):
        asn = donors[pick]
        scenario.timeline.add_event(
            IxpJoinEvent(
                time_hour=hour, asn=asn, ixp_name=scenario.ixp_name,
            )
        )
        scenario.join_hours[asn] = hour
        for group in scenario.user_groups:
            if group.unit[0] == asn and group.unit not in scenario.treated_units:
                scenario.treated_units.append(group.unit)


@register_kind("depeering")
def _depeering(
    scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator
) -> None:
    """Donors depeer their regional upstream and buy the other regional.

    Structural route churn uncorrelated with the IXP joins: the same
    kind of divergence a treated unit shows, landing in the *donor*
    pool — which is what keeps placebo p-values honest under churn.
    """
    allowed = {"n_depeered", "event_day"}
    n = int(_param(spec, "n_depeered", 2, allowed))
    day = int(_param(spec, "event_day", spec.effective_join_day + 2, allowed))
    donors = _donor_asns(spec)
    # A donor the base churn already moves to the other regional would
    # get that link twice; take the next donor in line instead.
    links = _scheduled_links(scenario)
    order = [int(p) for p in rng.permutation(len(donors))]
    picks = sorted([p for p in order if donors[p] not in links][:n])
    for i, pick in enumerate(picks):
        asn = donors[pick]
        upstreams = [
            p for p in scenario.topology.providers(asn)
            if p in (_REGIONAL_JNB, _REGIONAL_CPT)
        ]
        if not upstreams:
            continue
        old = upstreams[0]
        new = _REGIONAL_CPT if old == _REGIONAL_JNB else _REGIONAL_JNB
        hour = day * 24.0 + 2.0 * i + float(rng.uniform(0.0, 1.0))
        scenario.timeline.add_event(
            NewLinkEvent(time_hour=hour, a_asn=asn, b_asn=new, provider=True)
        )
        scenario.timeline.add_event(
            DepeeringEvent(time_hour=hour + 0.5, a_asn=asn, b_asn=old)
        )


@register_kind("outage")
def _outage(scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator) -> None:
    """A scheduled regional outage: the CDN's regional transit link drops.

    Modeled as a :class:`MaintenanceWindowEvent` (exogenous timing — the
    paper's canonical natural-experiment instrument), so every path via
    the Johannesburg transit detours for the window's duration.
    """
    allowed = {"start_day", "duration_hours"}
    start = int(_param(spec, "start_day", spec.effective_join_day + 3, allowed))
    duration = float(_param(spec, "duration_hours", 36.0, allowed))
    scenario.timeline.add_event(
        MaintenanceWindowEvent(
            time_hour=start * 24.0 + 5.0,
            a_asn=_CONTENT_CDN,
            b_asn=_REGIONAL_JNB,
            duration_hours=duration,
        )
    )


@register_kind("route-leak")
def _route_leak(
    scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator
) -> None:
    """One donor's routes leak through a distant transit.

    The leaker buys transit from the London tier-1 and tears down its
    regional adjacency shortly after — its path to the Johannesburg CDN
    now trombones intercontinentally, a large sustained RTT shift with
    no IXP involvement at all.
    """
    allowed = {"leak_day", "leaker_index"}
    day = int(_param(spec, "leak_day", spec.effective_join_day + 1, allowed))
    donors = _donor_asns(spec)
    index = int(_param(spec, "leaker_index", int(rng.integers(0, len(donors))), allowed))
    # The leaker must not already buy from London, nor be a churned donor
    # whose regional adjacency the base world tears down itself; walk on
    # to the next donor that is neither.
    links = _scheduled_links(scenario)
    ring = [donors[(index + k) % len(donors)] for k in range(len(donors))]
    candidates = [
        asn for asn in ring
        if asn not in links and _GLOBAL_LON not in scenario.topology.providers(asn)
    ]
    if not candidates:
        raise SimulationError(
            f"scenario {spec.name!r}: no donor AS can leak without clashing "
            "with its existing transit or scheduled churn"
        )
    asn = candidates[0]
    hour = day * 24.0 + float(rng.integers(1, 12))
    scenario.timeline.add_event(
        NewLinkEvent(time_hour=hour, a_asn=asn, b_asn=_GLOBAL_LON, provider=True)
    )
    for upstream in scenario.topology.providers(asn):
        if upstream in (_REGIONAL_JNB, _REGIONAL_CPT):
            scenario.timeline.add_event(
                DepeeringEvent(time_hour=hour + 0.5, a_asn=asn, b_asn=upstream)
            )


@register_kind("congestion-shock")
def _congestion_shock(
    scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator
) -> None:
    """An extra country-wide utilization shock overlapping the joins."""
    allowed = {"start_day", "end_day", "extra_utilization"}
    start = int(_param(spec, "start_day", spec.effective_join_day + 1, allowed))
    end = int(_param(spec, "end_day", start + 4, allowed))
    extra = float(_param(spec, "extra_utilization", 0.2, allowed))
    if end <= start:
        raise SimulationError(
            f"scenario {spec.name!r}: shock end_day {end} <= start_day {start}"
        )
    scenario.congestion.add_shock(
        RegionalShock(
            region="ZA",
            start_hour=start * 24.0,
            end_hour=end * 24.0,
            extra_utilization=extra,
        )
    )


@register_kind("adoption-sweep")
def _adoption_sweep(
    scenario: Scenario, spec: ScenarioSpec, rng: np.random.Generator
) -> None:
    """A pure measurement-volume point: the sweep axis is ``user_scale``.

    The perturbation itself is a no-op — the builder already applied the
    spec's ``user_scale`` — so a sweep is several specs of this kind
    differing only in scale (and seed), giving the campaign a controlled
    noise gradient.
    """
    _param(spec, "", None, set())


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Build the spec's world: the Table-1 base plus the kind's events.

    The mutator runs before any timeline/state query, so its events land
    in the same epoch machinery as the base world's joins; the returned
    scenario records the spec on ``extra["spec"]`` for provenance.
    """
    scenario = build_table1_scenario(
        n_donor_ases=spec.n_donor_ases,
        duration_days=spec.duration_days,
        join_day=spec.effective_join_day,
        seed=spec.seed,
        user_scale=spec.user_scale,
    )
    SCENARIO_KINDS[spec.kind](scenario, spec, _spec_rng(spec))
    scenario.extra["spec"] = spec.to_dict()
    return scenario


@dataclass(frozen=True)
class CampaignConfig:
    """A declarative campaign: scenario fleet plus scheduler defaults.

    Fields other than *scenarios* are ``None`` when the file left them
    unset; the CLI then falls back to its own flags/defaults.
    """

    scenarios: tuple[ScenarioSpec, ...]
    budget: int | None = None
    allocation: str | None = None
    tol: float | None = None
    round_refits: int | None = None


def parse_campaign(data: dict[str, Any]) -> CampaignConfig:
    """Build a :class:`CampaignConfig` from a parsed YAML/JSON document."""
    if not isinstance(data, dict) or "scenarios" not in data:
        raise SimulationError(
            "campaign file must be a mapping with a 'scenarios' list"
        )
    raw = data["scenarios"]
    if not isinstance(raw, list) or not raw:
        raise SimulationError("campaign 'scenarios' must be a non-empty list")
    specs = tuple(ScenarioSpec.from_dict(entry) for entry in raw)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SimulationError(f"duplicate scenario names in campaign: {dupes}")
    options = data.get("campaign", {})
    if not isinstance(options, dict):
        raise SimulationError("campaign 'campaign' section must be a mapping")
    allocation = options.get("allocation")
    if allocation is not None and allocation not in ("adaptive", "uniform"):
        raise SimulationError(
            f"campaign allocation must be 'adaptive' or 'uniform', "
            f"got {allocation!r}"
        )
    return CampaignConfig(
        scenarios=specs,
        budget=None if options.get("budget") is None else int(options["budget"]),
        allocation=allocation,
        tol=None if options.get("tol") is None else float(options["tol"]),
        round_refits=(
            None
            if options.get("round_refits") is None
            else int(options["round_refits"])
        ),
    )


def load_campaign(path: str | Path) -> CampaignConfig:
    """Load a campaign file (YAML when available, JSON always).

    ``*.json`` parses as JSON.  Anything else goes through PyYAML when
    the interpreter has it; without PyYAML the file is tried as JSON
    (YAML is a superset for the flat campaign shape) and a clear error
    names the missing dependency if that fails too.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return parse_campaign(json.loads(text))
    try:
        import yaml  # type: ignore[import-untyped]
    except ImportError:
        try:
            return parse_campaign(json.loads(text))
        except json.JSONDecodeError:
            raise SimulationError(
                f"cannot parse {path}: PyYAML is not installed and the file "
                "is not valid JSON (use a .json campaign file)"
            ) from None
    return parse_campaign(yaml.safe_load(text))


def default_fleet(
    n: int,
    *,
    seed: int = 0,
    duration_days: int = 20,
    n_donor_ases: int = 12,
) -> tuple[ScenarioSpec, ...]:
    """A ready-made fleet of *n* scenarios cycling the registered kinds.

    Seeds advance per scenario, and the adoption-sweep points alternate
    between full and reduced ``user_scale`` so even small fleets carry
    the measurement-volume (placebo-variance) heterogeneity the adaptive
    allocator feeds on.
    """
    if n < 1:
        raise SimulationError(f"fleet size must be >= 1, got {n}")
    kinds = scenario_kinds()
    specs = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        scale = 1.0
        if kind == "adoption-sweep":
            scale = 0.5 if (i // len(kinds)) % 2 == 0 else 1.5
        specs.append(
            ScenarioSpec(
                name=f"{kind}-{i:02d}",
                kind=kind,
                seed=seed + i,
                measurement_seed=seed + 100 + i,
                n_donor_ases=n_donor_ases,
                duration_days=duration_days,
                user_scale=scale,
            )
        )
    return tuple(specs)
