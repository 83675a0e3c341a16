"""User-initiated speed tests over a scenario (the M-Lab stand-in).

The generator walks the scenario hour by hour.  Each user group's test
count is Poisson with an *endogenous* rate: users test more when the
ambient RTT is bad and right after their route changes — the precise
mechanism that makes "a test was run" a collider between route changes
and performance (§3).  Every test is tagged with why it fired, so the
collider can be conditioned on (to reproduce the bias) or avoided.

Generation runs in two phases sharing one *plan*:

1. **Plan** — walk the window one routing-state run at a time, price
   every ⟨hour, group⟩ cell's ambient RTT and test rate as arrays, and
   draw every cell's Poisson test count in one call on a dedicated
   *rate* RNG stream.  The plan is a set of columns, one entry per
   cell with at least one test.
2. **Emit** — :meth:`SpeedTestGenerator.generate_frame` draws each
   ⟨group, routing-state⟩ pool's tests with one vectorised RNG call
   per quantity and writes them into preallocated frame columns.

Because the Poisson draws live on their own stream, the cell counts do
not depend on how the tests are emitted.  ``tests/reference_generation.py``
keeps the per-``Measurement`` scalar emitter this path replaced: under
the same seed it plans exactly the same cells, and its per-test samples
are draws from the same distributions.

Set ``endogenous=False`` to generate the counterfactual platform whose
sampling is condition-independent; the contrast between the two is
experiment E2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PlatformError
from repro.obs import get_metrics, span
from repro.frames.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJECT,
    Column,
    code_dtype,
)
from repro.frames.frame import Frame
from repro.netsim.bgp import Route
from repro.netsim.geo import propagation_delay_ms
from repro.netsim.scenario import Scenario
from repro.netsim.throughput import ThroughputModel
from repro.netsim.topology import Topology
from repro.netsim.traceroute import detect_ixp_crossings, synthesize_traceroute
from repro.mplatform.records import MEASUREMENT_COLUMNS, Trigger

logger = logging.getLogger(__name__)

#: Declared kinds for the columnar fast path (skips inference and keeps
#: an empty frame's schema fully typed).
_FRAME_KINDS: dict[str, str] = {
    "asn": KIND_INT,
    "city": KIND_OBJECT,
    "unit": KIND_OBJECT,
    "time_hour": KIND_FLOAT,
    "day": KIND_INT,
    "rtt_ms": KIND_FLOAT,
    "as_path": KIND_OBJECT,
    "crosses_ixp": KIND_BOOL,
    "ixps": KIND_OBJECT,
    "trigger": KIND_OBJECT,
    "server_site": KIND_OBJECT,
    "download_mbps": KIND_FLOAT,
}

_KIND_DTYPES: dict[str, type] = {
    KIND_FLOAT: np.float64,
    KIND_BOOL: np.bool_,
    # Codes, widened past 256 values.
    KIND_INT: np.uint8,
    KIND_OBJECT: np.uint8,
}

#: Columns written as codes through a first-appearance table: the label
#: columns and the AS number.  ``day`` is written as codes too, with its
#: categories in ascending order.
_TABLE_CODED = tuple(
    name for name, kind in _FRAME_KINDS.items() if kind == KIND_OBJECT
) + ("asn",)

#: Trigger values in the order of the codes the batch classifier draws.
_TRIGGER_VALUES = (
    Trigger.BASELINE.value,
    Trigger.PERFORMANCE.value,
    Trigger.ROUTE_CHANGE.value,
)


def _split_rng(
    rng: np.random.Generator | int | None,
) -> tuple[np.random.Generator, np.random.Generator]:
    """Derive the (rate, noise) stream pair of one generation run.

    Cell counts draw from the *rate* stream only, so any emitter (the
    columnar one here, the scalar reference in the tests) sees the
    same Poisson sequence; per-test samples draw from the *noise*
    stream in whatever order the emitter prefers.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rate_seed, noise_seed = rng.integers(0, 2**63, size=2)
    return (
        np.random.default_rng(int(rate_seed)),
        np.random.default_rng(int(noise_seed)),
    )


@dataclass(frozen=True)
class SpeedTestConfig:
    """Knobs for the speed-test generator.

    Attributes
    ----------
    endogenous:
        When True (default), test rates respond to RTT and route churn;
        when False every group tests at its base rate regardless of
        conditions (an idealised unbiased platform).
    change_window_hours:
        How long after a route change the curiosity burst lasts.
    max_tests_per_group_hour:
        Safety cap on the Poisson draw.
    """

    endogenous: bool = True
    change_window_hours: float = 24.0
    max_tests_per_group_hour: int = 200


@dataclass
class _GenerationPlan:
    """The window's test cells as columns, plus per-routing-state lookups.

    One entry per ⟨hour, group⟩ cell with a positive test count, in
    row-major ⟨hour, group⟩ order — the order the counts were drawn in.
    ``state`` indexes ``topologies`` and ``routes`` (the state's route
    to the content AS per source AS).
    """

    hour: np.ndarray  # unsigned, narrowest for the window's hours
    group: np.ndarray  # unsigned index into the scenario's user groups
    n_tests: np.ndarray  # unsigned, > 0
    ambient: np.ndarray  # float64 ms: the RTT the cell's rate was priced at
    recent: np.ndarray  # bool: the route changed within the curiosity window
    state: np.ndarray  # unsigned index into topologies and routes
    topologies: list[Topology]
    routes: list[dict[int, Route]]

    def __len__(self) -> int:
        return len(self.hour)

    def pools(self) -> list[np.ndarray]:
        """Cell indices of each ⟨group, routing-state⟩ pool.

        Pools come in order of first appearance and keep plan order
        inside, so per-pool noise draws follow the cell order.
        """
        if not len(self):
            return []
        key = self.state.astype(np.int64) * (int(self.group.max()) + 1) + self.group
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        pool_start = first[inverse]  # each cell's pool, named by its first cell
        order = np.argsort(pool_start, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(pool_start[order])) + 1)


class SpeedTestGenerator:
    """Generates measurements for every user group in a scenario."""

    def __init__(
        self,
        scenario: Scenario,
        config: SpeedTestConfig | None = None,
        throughput: ThroughputModel | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or SpeedTestConfig()
        self.throughput = (
            throughput
            if throughput is not None
            else ThroughputModel(scenario.latency)
        )
        self._backhaul_cache: dict[tuple[int, str], float] = {}
        self._trace_cache: dict[tuple[int, int, frozenset], tuple[str, ...]] = {}

    def _backhaul_ms(self, asn: int, city: str, backhaul_city: str | None) -> float:
        key = (asn, city)
        if key not in self._backhaul_cache:
            home = self.scenario.topology.get_as(asn).city
            target = backhaul_city or home
            self._backhaul_cache[key] = 2.0 * propagation_delay_ms(
                self.scenario.cities.get(city), self.scenario.cities.get(target)
            )
        return self._backhaul_cache[key]

    def _crossings(self, asn: int, hour: float) -> tuple[str, ...]:
        """IXPs crossed by *asn*'s current route (cached per routing state)."""
        state = self.scenario.timeline.state_at(hour)
        key = (asn, state.epoch, state.dead_links)
        if key not in self._trace_cache:
            routes = self.scenario.timeline.routes_at(hour, self.scenario.content_asn)
            route = routes.get(asn)
            if route is None:
                raise PlatformError(f"AS{asn} cannot reach the measurement target")
            trace = synthesize_traceroute(state.topology, state.ixps, route)
            self._trace_cache[key] = tuple(detect_ixp_crossings(trace, state.ixps))
        return self._trace_cache[key]

    # -- planning -------------------------------------------------------------

    def _plan(self, rate_rng: np.random.Generator) -> _GenerationPlan:
        """Fix every cell's test count and rate context."""
        with span("generate.plan") as sp:
            plan = self._plan_cells(rate_rng)
            sp.set(cells=len(plan))
        return plan

    def _state_runs(self, n_hours: int) -> list[tuple[int, int]]:
        """Half-open ``[start, stop)`` hour runs of one routing state each."""
        cuts = {0, n_hours}
        for hour in self.scenario.timeline.state_change_hours():
            cut = math.ceil(hour)
            if 0 < cut < n_hours:
                cuts.add(cut)
        edges = sorted(cuts)
        return list(zip(edges[:-1], edges[1:]))

    def _plan_cells(self, rate_rng: np.random.Generator) -> _GenerationPlan:
        """Price every ⟨hour, group⟩ cell as arrays, then draw all counts.

        The window is walked one routing-state run at a time.  Ambient
        RTT comes from one noise-free curve per ⟨AS, routing-state⟩ over
        the whole hour grid, kept until the state's last run; it sums
        per-link queueing curves, each priced once per ⟨region, bias⟩.
        Rates use the float operations of :meth:`UserGroup.test_rate`
        elementwise, and the counts come from one Poisson call over the
        cells that have a route, in row-major ⟨hour, group⟩ order — the
        draw sequence of a per-cell loop.
        """
        scenario = self.scenario
        config = self.config
        groups = scenario.user_groups
        n_hours = int(scenario.duration_hours)
        n_groups = len(groups)
        grid = np.arange(n_hours, dtype=np.float64)
        ambient = np.full((n_hours, n_groups), np.nan)
        recent = np.zeros((n_hours, n_groups), dtype=bool)
        has_route = np.zeros((n_hours, n_groups), dtype=bool)
        state_of_hour = np.zeros(n_hours, dtype=np.int64)
        state_ids: dict[tuple, int] = {}
        topologies: list[Topology] = []
        routes_by_state: list[dict[int, Route]] = []
        ambient_curves: dict[tuple[int, int], np.ndarray] = {}
        link_curves: dict[tuple[str, float], np.ndarray] = {}
        last_path: dict[int, tuple[int, ...]] = {}
        last_change: dict[int, float] = {}

        runs = self._state_runs(n_hours)
        states = [scenario.timeline.state_at(float(start)) for start, _ in runs]
        last_run = {(st.epoch, st.dead_links): i for i, st in enumerate(states)}
        for i, ((start, stop), state) in enumerate(zip(runs, states)):
            t = float(start)
            routes = scenario.timeline.routes_at(t, scenario.content_asn)
            key = (state.epoch, state.dead_links)
            sid = state_ids.setdefault(key, len(state_ids))
            if sid == len(topologies):
                topologies.append(state.topology)
                routes_by_state.append(routes)
            state_of_hour[start:stop] = sid
            for gi, group in enumerate(groups):
                route = routes.get(group.asn)
                if route is None:
                    continue
                if last_path.get(group.asn) not in (None, route.path):
                    last_change[group.asn] = t
                last_path[group.asn] = route.path

                curve = ambient_curves.get((group.asn, sid))
                if curve is None:
                    curve = ambient_curves[(group.asn, sid)] = (
                        scenario.latency.expected_rtt_batch(
                            route, grid, topology=state.topology, curves=link_curves
                        )
                    )
                has_route[start:stop, gi] = True
                ambient[start:stop, gi] = curve[start:stop] + self._backhaul_ms(
                    group.asn, group.city, group.backhaul_city
                )
                if group.asn in last_change:
                    since_change = grid[start:stop] - last_change[group.asn]
                    recent[start:stop, gi] = since_change < config.change_window_hours
            if last_run[key] == i:
                for group in groups:
                    ambient_curves.pop((group.asn, sid), None)

        def per_group(name: str) -> np.ndarray:
            return np.array([getattr(g, name) for g in groups], dtype=np.float64)

        rate = np.broadcast_to(per_group("base_rate_per_hour"), ambient.shape)
        if config.endogenous:
            reference = per_group("rtt_reference_ms")
            rate = np.where(
                ambient > reference,
                rate
                * (1.0 + per_group("perf_sensitivity") * (ambient - reference) / 100.0),
                rate,
            )
            rate = np.where(
                recent, rate * (1.0 + per_group("change_sensitivity")), rate
            )
        lam = rate * per_group("n_users")
        counts = np.zeros((n_hours, n_groups), dtype=np.int64)
        counts[has_route] = np.minimum(
            rate_rng.poisson(lam[has_route]), config.max_tests_per_group_hour
        )

        # One entry per cell for the whole emission: store each index in
        # the narrowest unsigned dtype its range allows.
        cells = np.flatnonzero(counts)
        hour, group = np.divmod(cells, n_groups)
        del cells
        hour = hour.astype(code_dtype(n_hours))
        return _GenerationPlan(
            hour=hour,
            group=group.astype(code_dtype(n_groups)),
            n_tests=counts[hour, group].astype(
                code_dtype(config.max_tests_per_group_hour + 1)
            ),
            ambient=ambient[hour, group],
            recent=recent[hour, group],
            state=state_of_hour.astype(code_dtype(len(topologies)))[hour],
            topologies=topologies,
            routes=routes_by_state,
        )

    # -- emission -------------------------------------------------------------

    def generate_frame(self, rng: np.random.Generator | int | None = 0) -> Frame:
        """Run the whole window and return its measurement frame.

        Every cell of a ⟨group, routing-state⟩ pair is pooled into
        single vectorised RTT/throughput/trigger draws written straight
        into the frame's preallocated columns — no per-test Python work
        and no intermediate ``Measurement`` objects.  Each link's
        pre-noise load is computed once per pool for both the RTT and
        the throughput draw.  The label columns (city, unit label, AS
        path, IXP list, trigger, server site) and the integer keys
        (``asn``, ``day``) are dictionary-encoded
        (:meth:`~repro.frames.Column.from_codes`): one narrow code per
        row, no string, pointer or ``int64`` per row.
        """
        with span("generate") as sp:
            rate_rng, noise_rng = _split_rng(rng)
            frame = self._emit_frame(self._plan(rate_rng), noise_rng)
            sp.set(rows=frame.num_rows)
        get_metrics().counter(
            "measurements_generated_total", "speed tests emitted by the simulator"
        ).inc(frame.num_rows)
        logger.info("generated %d measurements", frame.num_rows)
        return frame

    def _emit_frame(
        self, plan: _GenerationPlan, noise_rng: np.random.Generator
    ) -> Frame:
        """Draw every pool's tests with one vectorised call per quantity.

        The plan knows every pool's row count, so each column is
        allocated once at full length and each pool writes into its own row range — no
        per-pool chunks, no seal-time concatenate.  Each link's
        pre-noise load is computed once per pool and read by both the
        RTT draw and the throughput bottleneck.

        Label columns and ``asn`` are written as codes.  Each one keeps
        a table of its values, and a pool registers its value when it
        writes its rows; pools are never empty and come in row order,
        so the tables list the values in first-appearance order.
        Trigger labels are registered in the order they first occur.
        Codes start as ``uint8`` and a column is widened when its table
        outgrows its dtype, so every column ends in the code dtype of
        its table's size.

        ``day`` is written as its value, in the code dtype of the
        window's day count; its categories are the days that hold a
        test, ascending, and the codes are renumbered only when a day
        below the last holds none.
        """
        scenario = self.scenario
        latency = scenario.latency
        # A custom throughput model may price a different latency model.
        share_loads = self.throughput.latency is latency
        pools = plan.pools()
        total = int(plan.n_tests.sum())
        labels: dict[str, dict[str | int, int]] = {name: {} for name in _TABLE_CODED}
        # A test at hour h < n_hours falls on day (h + u) // 24 for u in
        # [0, 1), which rounding can carry to n_hours // 24.
        n_days = int(scenario.duration_hours) // 24 + 1
        day_seen = np.zeros(n_days, dtype=bool)
        columns = {
            name: np.empty(
                total,
                dtype=code_dtype(n_days)
                if name == "day"
                else _KIND_DTYPES[_FRAME_KINDS[name]],
            )
            for name in MEASUREMENT_COLUMNS
        }

        def put(name: str, rows: slice, label: str | int) -> None:
            table = labels[name]
            code = table.setdefault(label, len(table))
            if code > np.iinfo(columns[name].dtype).max:
                columns[name] = columns[name].astype(code_dtype(code + 1))
            columns[name][rows] = code

        # The classifier's trigger index -> the trigger column's code.
        trigger_code = np.zeros(len(_TRIGGER_VALUES), dtype=np.uint8)

        def register_triggers(drawn: np.ndarray) -> None:
            table = labels["trigger"]
            if len(table) < len(_TRIGGER_VALUES):
                # This pool's triggers in the order they first occur.
                drawn_kinds, first_at = np.unique(drawn, return_index=True)
                for t in drawn_kinds[np.argsort(first_at)]:
                    trigger_code[t] = table.setdefault(_TRIGGER_VALUES[t], len(table))

        with span("generate.emit", pools=len(pools)):
            stop = 0
            for cells in pools:
                first = cells[0]
                group = scenario.user_groups[plan.group[first]]
                sid = plan.state[first]
                route = plan.routes[sid][group.asn]
                topo = plan.topologies[sid]
                counts = plan.n_tests[cells]
                n = int(counts.sum())
                rows = slice(stop, stop + n)
                stop += n

                # time_hour and rtt_ms are computed into the frame's own
                # rows; the draws below only read those views.
                time_hour = columns["time_hour"][rows]
                start_hours = np.repeat(plan.hour[cells].astype(np.float64), counts)
                np.add(start_hours, noise_rng.uniform(0.0, 1.0, size=n), out=time_hour)
                loads = latency.link_loads(route, time_hour, topology=topo)
                sample = latency.sample_rtt_batch(
                    route, time_hour, noise_rng, topology=topo, loads=loads
                )
                backhaul = self._backhaul_ms(group.asn, group.city, group.backhaul_city)
                rtt = columns["rtt_ms"][rows]
                np.add(sample.total_ms, backhaul, out=rtt)
                tput = self.throughput.sample_batch(
                    route,
                    rtt,
                    time_hour,
                    noise_rng,
                    topology=topo,
                    loads=loads if share_loads else None,
                )
                ambient = np.repeat(plan.ambient[cells], counts)
                recent = np.repeat(plan.recent[cells].astype(np.float64), counts)
                triggers = self._classify_triggers_batch(
                    group, ambient, recent, noise_rng
                )

                register_triggers(triggers)
                crossings = self._crossings(group.asn, float(plan.hour[first]))
                put("asn", rows, group.asn)
                put("city", rows, group.city)
                put("unit", rows, group.unit_label)
                day = columns["day"][rows]
                day[:] = time_hour // 24.0
                day_seen[day] = True
                put("as_path", rows, "-".join(str(a) for a in route.path))
                columns["crosses_ixp"][rows] = len(crossings) > 0
                put("ixps", rows, ",".join(crossings))
                np.take(trigger_code, triggers, out=columns["trigger"][rows])
                put("server_site", rows, "default")
                columns["download_mbps"][rows] = tput.download_mbps
        categories = {name: list(table) for name, table in labels.items()}
        categories["day"] = np.flatnonzero(day_seen)
        columns["day"] = _renumber_days(columns["day"], categories["day"])
        return Frame(
            [
                Column.from_codes(
                    name, columns[name], categories[name], kind=_FRAME_KINDS[name]
                )
                if name in categories
                else Column(name, columns[name], kind=_FRAME_KINDS[name])
                for name in MEASUREMENT_COLUMNS
            ]
        )

    # -- trigger attribution ---------------------------------------------------

    def _classify_triggers_batch(
        self,
        group,
        ambient_rtt: np.ndarray,
        recently_changed: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorised trigger attribution: one draw per test, whole cell at once.

        Returns each test's index into :data:`_TRIGGER_VALUES` as
        ``uint8``.  The excess rate over baseline is split between the
        performance and route-change channels proportionally to their
        multipliers, as in the rate model.
        """
        n = len(ambient_rtt)
        out = np.zeros(n, dtype=np.uint8)  # baseline
        if not self.config.endogenous:
            return out
        perf_mult = (
            1.0
            + group.perf_sensitivity
            * np.maximum(ambient_rtt - group.rtt_reference_ms, 0.0)
            / 100.0
        )
        change_mult = 1.0 + group.change_sensitivity * recently_changed
        draw = rng.uniform(0.0, 1.0, size=n) * (perf_mult * change_mult)
        out[draw >= 1.0] = 1  # performance
        out[draw >= perf_mult] = 2  # route change
        return out


def _renumber_days(day: np.ndarray, days: np.ndarray) -> np.ndarray:
    """Day values as codes into the ascending table *days* of those present.

    The values already are those codes when no day below the last one
    present lacks a test; otherwise they go through one lookup.  Either
    way the result is in the code dtype of the table's size.
    """
    dtype = code_dtype(len(days))
    if len(days) and days[-1] != len(days) - 1:
        lookup = np.zeros(int(days[-1]) + 1, dtype=dtype)
        lookup[days] = np.arange(len(days))
        return lookup[day]
    return day.astype(dtype, copy=False)


def measurements_frame(
    scenario: Scenario,
    rng: np.random.Generator | int | None = 0,
    endogenous: bool = True,
) -> Frame:
    """Convenience wrapper: generate a scenario's measurement frame."""
    generator = SpeedTestGenerator(
        scenario, SpeedTestConfig(endogenous=endogenous)
    )
    return generator.generate_frame(rng)
