"""Reference implementation of batched measurement generation.

This is the per-cell algorithm the columnar generator replaced, kept as
an executable spec: a Python loop over every ⟨hour, group⟩ cell with one
scalar Poisson draw each, a dict-of-lists grouping of cells into
⟨group, routing-state⟩ pools, per-row string columns, and per-link
congestion curves recomputed separately for the RTT draw and the
throughput bottleneck.  ``tests/test_generation_oracle.py`` asserts the
generator's frame is byte-identical to :func:`reference_frame` and that
both leave the RNG streams in the same state; the netsim helpers are
the per-link paths the shared link loads must match bit for bit.

:func:`reference_measurements` is the scalar emitter the columnar path
replaced in turn: one :class:`Measurement` per test, one RNG call per
sample.  It shares the generator's plan, so it emits exactly the same
cells; its samples come from the same distributions in another draw
order.  The distribution and cell-count tests and the generation
benchmarks compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frames.column import KIND_OBJECT, Column
from repro.frames.frame import Frame
from repro.mplatform.records import MEASUREMENT_COLUMNS, Measurement, Trigger
from repro.mplatform.speedtest import _FRAME_KINDS, SpeedTestGenerator, _split_rng
from repro.netsim.bgp import Route
from repro.netsim.congestion import MAX_UTILIZATION, CongestionModel
from repro.netsim.latency import LatencyBatch, LatencyModel
from repro.netsim.throughput import MIN_RESIDUAL, ThroughputBatch, ThroughputModel
from repro.netsim.topology import Topology

# -- per-link netsim paths ----------------------------------------------------


def utilization_batch(
    congestion: CongestionModel,
    region: str,
    hours: np.ndarray,
    rng: np.random.Generator | None = None,
    bias: float = 0.0,
) -> np.ndarray:
    """One link's sampled utilization, its diurnal curve computed afresh."""
    hours = np.asarray(hours, dtype=np.float64)
    util = congestion.profile_for(region).utilization_batch(hours) + bias
    for shock in congestion.shocks:
        if shock.region == region:
            active = (hours >= shock.start_hour) & (hours < shock.end_hour)
            util = util + shock.extra_utilization * active
    if rng is not None and congestion.noise_std > 0:
        util = util + rng.normal(0.0, congestion.noise_std, size=hours.shape)
    return np.clip(util, 0.0, MAX_UTILIZATION)


def _queueing_delay_ms_batch(congestion, region, hours, rng, bias):
    util = utilization_batch(congestion, region, hours, rng, bias)
    delay = congestion.base_queueing_ms * util / np.maximum(1.0 - util, 1e-3)
    return np.minimum(delay, congestion.max_queueing_ms)


def _bias(latency: LatencyModel, link) -> float:
    return link.congestion_bias + latency.load_bias.get(link.key, 0.0)


def sample_rtt_batch(
    latency: LatencyModel,
    route: Route,
    hours: np.ndarray,
    rng: np.random.Generator,
    topology: Topology | None = None,
) -> LatencyBatch:
    """Batched RTT draw with one utilization pass per link."""
    hours = np.asarray(hours, dtype=np.float64)
    prop = latency.propagation_ms(route, topology)
    queueing = np.zeros_like(hours)
    for link in latency._links_on(route, topology):
        queueing += 2.0 * _queueing_delay_ms_batch(
            latency.congestion, latency.link_region(link), hours, rng,
            _bias(latency, link),
        )
    last_mile = np.maximum(
        rng.normal(latency.last_mile_ms, latency.last_mile_ms / 4, size=hours.shape),
        0.5,
    )
    noise = rng.normal(0.0, latency.noise_std_ms, size=hours.shape)
    too_fast = queueing + last_mile + noise < 0.0
    noise = np.where(too_fast, -(queueing + last_mile), noise)
    return LatencyBatch(
        propagation_ms=prop, queueing_ms=queueing, last_mile_ms=last_mile,
        noise_ms=noise,
    )


def expected_rtt_batch(
    latency: LatencyModel,
    route: Route,
    hours: np.ndarray,
    topology: Topology | None = None,
) -> np.ndarray:
    """Noise-free RTT curve with one utilization pass per link."""
    hours = np.asarray(hours, dtype=np.float64)
    queueing = np.zeros_like(hours)
    for link in latency._links_on(route, topology):
        queueing += 2.0 * _queueing_delay_ms_batch(
            latency.congestion, latency.link_region(link), hours, None,
            _bias(latency, link),
        )
    return latency.propagation_ms(route, topology) + queueing + latency.last_mile_ms


def bottleneck_mbps_batch(
    throughput: ThroughputModel,
    route: Route,
    hours: np.ndarray,
    topology: Topology | None = None,
) -> np.ndarray:
    """Residual-capacity bottleneck with one utilization pass per link."""
    hours = np.asarray(hours, dtype=np.float64)
    residual = np.full(hours.shape, throughput.access_capacity_mbps)
    latency = throughput.latency
    for link in latency._links_on(route, topology):
        util = utilization_batch(
            latency.congestion, latency.link_region(link), hours, None,
            _bias(latency, link),
        )
        residual = np.minimum(
            residual,
            throughput.core_capacity_mbps * np.maximum(1.0 - util, MIN_RESIDUAL),
        )
    return residual


def sample_throughput_batch(
    throughput: ThroughputModel,
    route: Route,
    rtt_ms: np.ndarray,
    hours: np.ndarray,
    rng: np.random.Generator,
    topology: Topology | None = None,
) -> ThroughputBatch:
    """Batched download draw over :func:`bottleneck_mbps_batch`."""
    bottleneck = bottleneck_mbps_batch(throughput, route, hours, topology)
    window = throughput.window_limit_mbps_batch(rtt_ms)
    base = np.minimum(bottleneck, window)
    noise = np.exp(rng.normal(0.0, throughput.noise_sigma, size=base.shape))
    return ThroughputBatch(
        download_mbps=base * noise, bottleneck_mbps=bottleneck,
        window_limit_mbps=window,
    )


# -- the per-cell generator ---------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One ⟨group, hour⟩ cell with a positive test count."""

    group_index: int
    hour: float
    n_tests: int
    ambient_ms: float
    recently_changed: bool
    state_key: tuple[int, frozenset]


def plan_cells(
    gen: SpeedTestGenerator, rate_rng: np.random.Generator
) -> tuple[list[Cell], dict[tuple[int, tuple], Route], dict[tuple, Topology]]:
    """Walk the window one hour and one group at a time."""
    scenario = gen.scenario
    config = gen.config
    n_hours = int(scenario.duration_hours)
    grid = np.arange(n_hours, dtype=np.float64)
    cells: list[Cell] = []
    routes_by_key: dict[tuple[int, tuple], Route] = {}
    topologies: dict[tuple, Topology] = {}
    ambient_curves: dict[tuple[int, tuple], np.ndarray] = {}
    last_path: dict[int, tuple[int, ...]] = {}
    last_change: dict[int, float] = {}

    for hour in range(n_hours):
        t = float(hour)
        state = scenario.timeline.state_at(t)
        routes = scenario.timeline.routes_at(t, scenario.content_asn)
        state_key = (state.epoch, state.dead_links)
        if state_key not in topologies:
            topologies[state_key] = state.topology
        for gi, group in enumerate(scenario.user_groups):
            route = routes.get(group.asn)
            if route is None:
                continue
            if last_path.get(group.asn) not in (None, route.path):
                last_change[group.asn] = t
            last_path[group.asn] = route.path

            route_key = (group.asn, state_key)
            if route_key not in routes_by_key:
                routes_by_key[route_key] = route
                ambient_curves[route_key] = expected_rtt_batch(
                    scenario.latency, route, grid, topology=state.topology
                )
            ambient = float(ambient_curves[route_key][hour]) + gen._backhaul_ms(
                group.asn, group.city, group.backhaul_city
            )
            since_change = (
                t - last_change[group.asn] if group.asn in last_change else None
            )
            if config.endogenous:
                rate = group.test_rate(ambient, since_change, config.change_window_hours)
            else:
                rate = group.base_rate_per_hour
            n_tests = int(
                min(
                    rate_rng.poisson(rate * group.n_users),
                    config.max_tests_per_group_hour,
                )
            )
            if n_tests == 0:
                continue
            recently_changed = (
                since_change is not None and since_change < config.change_window_hours
            )
            cells.append(
                Cell(
                    group_index=gi,
                    hour=t,
                    n_tests=n_tests,
                    ambient_ms=ambient,
                    recently_changed=recently_changed,
                    state_key=state_key,
                )
            )
    return cells, routes_by_key, topologies


def _classify_triggers(gen, group, ambient_rtt, recently_changed, rng):
    n = len(ambient_rtt)
    if not gen.config.endogenous:
        return np.full(n, Trigger.BASELINE.value, dtype=object)
    perf_mult = (
        1.0
        + group.perf_sensitivity
        * np.maximum(ambient_rtt - group.rtt_reference_ms, 0.0)
        / 100.0
    )
    change_mult = 1.0 + group.change_sensitivity * recently_changed
    draw = rng.uniform(0.0, 1.0, size=n) * (perf_mult * change_mult)
    out = np.full(n, Trigger.BASELINE.value, dtype=object)
    out[draw >= 1.0] = Trigger.PERFORMANCE.value
    out[draw >= perf_mult] = Trigger.ROUTE_CHANGE.value
    return out


def reference_frame(
    gen: SpeedTestGenerator,
    rate_rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> Frame:
    """Plan cell by cell, emit one chunk per ⟨group, state⟩ pool, then concatenate."""
    cells, routes, topologies = plan_cells(gen, rate_rng)
    scenario = gen.scenario

    pools: dict[tuple[int, tuple], list[Cell]] = {}
    for cell in cells:
        pools.setdefault((cell.group_index, cell.state_key), []).append(cell)

    chunks: dict[str, list[np.ndarray]] = {name: [] for name in MEASUREMENT_COLUMNS}
    for (gi, state_key), pool in pools.items():
        group = scenario.user_groups[gi]
        route = routes[(group.asn, state_key)]
        topo = topologies[state_key]
        counts = np.array([c.n_tests for c in pool], dtype=np.int64)
        n = int(counts.sum())

        start_hours = np.repeat(np.array([c.hour for c in pool], dtype=np.float64), counts)
        time_hour = start_hours + noise_rng.uniform(0.0, 1.0, size=n)
        latency = sample_rtt_batch(scenario.latency, route, time_hour, noise_rng, topo)
        backhaul = gen._backhaul_ms(group.asn, group.city, group.backhaul_city)
        rtt = latency.total_ms + backhaul
        tput = sample_throughput_batch(
            gen.throughput, route, rtt, time_hour, noise_rng, topo
        )
        ambient = np.repeat(np.array([c.ambient_ms for c in pool], dtype=np.float64), counts)
        recent = np.repeat(
            np.array([c.recently_changed for c in pool], dtype=np.float64), counts
        )
        triggers = _classify_triggers(gen, group, ambient, recent, noise_rng)

        crossings = gen._crossings(group.asn, pool[0].hour)
        chunk = {
            "asn": np.full(n, group.asn, dtype=np.int64),
            "city": np.full(n, group.city, dtype=object),
            "unit": np.full(n, group.unit_label, dtype=object),
            "time_hour": time_hour,
            "day": (time_hour // 24.0).astype(np.int64),
            "rtt_ms": rtt,
            "as_path": np.full(n, "-".join(str(a) for a in route.path), dtype=object),
            "crosses_ixp": np.full(n, len(crossings) > 0, dtype=np.bool_),
            "ixps": np.full(n, ",".join(crossings), dtype=object),
            "trigger": triggers,
            "server_site": np.full(n, "default", dtype=object),
            "download_mbps": tput.download_mbps,
        }
        for name in MEASUREMENT_COLUMNS:
            chunks[name].append(chunk[name])
    return Frame(
        [
            Column(
                name,
                np.concatenate(parts) if parts else np.empty(0),
                kind=_FRAME_KINDS[name],
            )
            for name, parts in chunks.items()
        ]
    )


# -- the scalar emitter -------------------------------------------------------


def reference_measurements(
    gen: SpeedTestGenerator, rng: np.random.Generator | int | None = 0
) -> list[Measurement]:
    """Emit the generator's plan one :class:`Measurement` per test.

    The recorded ``time_hour`` is the *same* hour the
    congestion-dependent RTT was sampled at.
    """
    rate_rng, noise_rng = _split_rng(rng)
    plan = gen._plan(rate_rng)
    scenario = gen.scenario
    out: list[Measurement] = []
    for i in range(len(plan)):
        group = scenario.user_groups[plan.group[i]]
        sid = plan.state[i]
        route = plan.routes[sid][group.asn]
        topo = plan.topologies[sid]
        hour = float(plan.hour[i])
        ambient = float(plan.ambient[i])
        recently_changed = bool(plan.recent[i])
        crossings = gen._crossings(group.asn, hour)
        backhaul = gen._backhaul_ms(group.asn, group.city, group.backhaul_city)
        for _ in range(int(plan.n_tests[i])):
            test_hour = hour + float(noise_rng.uniform(0, 1))
            sample = scenario.latency.sample_rtt(
                route, test_hour, noise_rng, topology=topo
            )
            rtt = sample.total_ms + backhaul
            tput = gen.throughput.sample(
                route, rtt, test_hour, noise_rng, topology=topo
            )
            trigger = _classify_trigger(
                gen, group, ambient, recently_changed, noise_rng
            )
            out.append(
                Measurement(
                    asn=group.asn,
                    city=group.city,
                    time_hour=test_hour,
                    rtt_ms=rtt,
                    as_path=route.path,
                    ixps_crossed=crossings,
                    trigger=trigger,
                    download_mbps=tput.download_mbps,
                )
            )
    return out


def _classify_trigger(
    gen: SpeedTestGenerator,
    group,
    ambient_rtt: float,
    recently_changed: bool,
    rng: np.random.Generator,
) -> Trigger:
    """Attribute one test to its (probabilistic) cause for tagging.

    The attribution shares the rate model's structure: the excess
    rate over baseline is split between the performance and
    route-change channels proportionally to their multipliers.
    """
    if not gen.config.endogenous:
        return Trigger.BASELINE
    perf_mult = 1.0
    if ambient_rtt > group.rtt_reference_ms:
        perf_mult += group.perf_sensitivity * (
            ambient_rtt - group.rtt_reference_ms
        ) / 100.0
    change_mult = 1.0 + (group.change_sensitivity if recently_changed else 0.0)
    total = perf_mult * change_mult
    draw = rng.uniform(0, total)
    if draw < 1.0:
        return Trigger.BASELINE
    if draw < perf_mult:
        return Trigger.PERFORMANCE
    return Trigger.ROUTE_CHANGE


def assert_frames_identical(actual: Frame, expected: Frame) -> None:
    """Same schema, numeric bytes and object values, column by column."""
    assert actual.column_names == expected.column_names
    assert actual.num_rows == expected.num_rows
    for name in expected.column_names:
        a, b = actual.column(name), expected.column(name)
        assert a.kind == b.kind, name
        assert a.values.dtype == b.values.dtype, name
        if a.kind == KIND_OBJECT:
            assert a.values.tolist() == b.values.tolist(), name
        else:
            assert a.values.tobytes() == b.values.tobytes(), name
