"""End-to-end RTT along a BGP route.

RTT is assembled from physics plus congestion plus last-mile jitter:

    rtt = 2 * sum_links [ propagation(link cities) + queueing(region, t) ]
        + last_mile(access technology)
        + measurement noise

Propagation uses each link's endpoint cities; queueing comes from the
:class:`~repro.netsim.congestion.CongestionModel` keyed by the link's
region.  The factor of two converts one-way delays to round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError, SimulationError
from repro.netsim.bgp import Route
from repro.netsim.congestion import CongestionModel
from repro.netsim.geo import CityCatalog, propagation_delay_ms
from repro.netsim.ixp import IxpRegistry
from repro.netsim.topology import Link, Topology


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-component decomposition of one RTT sample (milliseconds)."""

    propagation_ms: float
    queueing_ms: float
    last_mile_ms: float
    noise_ms: float

    @property
    def total_ms(self) -> float:
        """The full round-trip time."""
        return self.propagation_ms + self.queueing_ms + self.last_mile_ms + self.noise_ms


@dataclass(frozen=True)
class LatencyBatch:
    """Component arrays for a whole batch of RTT samples (milliseconds).

    The columnar counterpart of :class:`LatencyBreakdown`: propagation
    is one scalar (it does not vary within a route), the stochastic
    components are arrays aligned with the sampled hours.
    """

    propagation_ms: float
    queueing_ms: np.ndarray
    last_mile_ms: np.ndarray
    noise_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.queueing_ms)

    @property
    def total_ms(self) -> np.ndarray:
        """The full round-trip time per sample."""
        return self.propagation_ms + self.queueing_ms + self.last_mile_ms + self.noise_ms


class LatencyModel:
    """Computes RTTs for routes over a topology.

    Parameters
    ----------
    topology, cities, congestion:
        The substrate objects.
    last_mile_ms:
        Mean access-network RTT contribution added at the source.
    noise_std_ms:
        Standard deviation of zero-mean measurement noise (clipped so a
        sample never goes below propagation).
    """

    def __init__(
        self,
        topology: Topology,
        cities: CityCatalog,
        congestion: CongestionModel,
        last_mile_ms: float = 8.0,
        noise_std_ms: float = 2.0,
        ixps: IxpRegistry | None = None,
    ) -> None:
        if last_mile_ms < 0 or noise_std_ms < 0:
            raise SimulationError("latency parameters must be >= 0")
        self.topology = topology
        self.cities = cities
        self.congestion = congestion
        self.last_mile_ms = last_mile_ms
        self.noise_std_ms = noise_std_ms
        self.ixps = ixps
        #: Optional per-link additive utilization bias from traffic load
        #: (installed by :func:`repro.netsim.traffic.apply_traffic_loads`).
        self.load_bias: dict[tuple[int, int], float] = {}
        self._prop_cache: dict[tuple, float] = {}

    def link_region(self, link: Link) -> str:
        """Region key a link's congestion draws from (its a-side country)."""
        return self.cities.get(link.a_city).country

    def _links_on(self, route: Route, topology: Topology | None = None) -> list[Link]:
        topo = topology if topology is not None else self.topology
        links = []
        for i in range(len(route.path) - 1):
            a, b = route.path[i], route.path[i + 1]
            link = topo.link_between(a, b)
            if link is None:
                raise RoutingError(
                    f"route {route.path} crosses missing link AS{a}-AS{b}"
                )
            links.append(link)
        return links

    def propagation_ms(self, route: Route, topology: Topology | None = None) -> float:
        """Round-trip propagation delay along the route (cached per link).

        Pass *topology* when the route was computed on an epoch snapshot
        that differs from the base (e.g. after an IXP join added links).
        """
        total = 0.0
        for link in self._links_on(route, topology):
            key = (link.key, link.a_city, link.b_city, link.ixp)
            if key not in self._prop_cache:
                a_city = self.cities.get(link.a_city)
                b_city = self.cities.get(link.b_city)
                if link.ixp is not None and self.ixps is not None:
                    # IXP-fabric hops physically transit the exchange's city.
                    fabric = self.cities.get(self.ixps.get(link.ixp).city)
                    delay = propagation_delay_ms(a_city, fabric) + propagation_delay_ms(
                        fabric, b_city
                    )
                else:
                    delay = propagation_delay_ms(a_city, b_city)
                self._prop_cache[key] = delay
            total += self._prop_cache[key]
        return 2.0 * total

    def sample_rtt(
        self,
        route: Route,
        hour: float,
        rng: np.random.Generator,
        topology: Topology | None = None,
    ) -> LatencyBreakdown:
        """Draw one RTT measurement along *route* at simulation *hour*."""
        prop = self.propagation_ms(route, topology)
        queueing = 0.0
        for link in self._links_on(route, topology):
            bias = link.congestion_bias + self.load_bias.get(link.key, 0.0)
            queueing += 2.0 * self.congestion.queueing_delay_ms(
                self.link_region(link), hour, rng, bias=bias
            )
        last_mile = float(max(rng.normal(self.last_mile_ms, self.last_mile_ms / 4), 0.5))
        noise = float(rng.normal(0.0, self.noise_std_ms))
        if prop + queueing + last_mile + noise < prop:
            noise = -(queueing + last_mile)  # never beat the speed of light
        return LatencyBreakdown(
            propagation_ms=prop,
            queueing_ms=queueing,
            last_mile_ms=last_mile,
            noise_ms=noise,
        )

    def link_loads(
        self, route: Route, hours: np.ndarray, topology: Topology | None = None
    ) -> list[np.ndarray]:
        """Pre-noise utilization of each link on *route* over *hours*.

        One array per link, in path order (see
        :meth:`CongestionModel.loads_batch`).  The batched RTT draw and
        the throughput bottleneck both read these, so a caller that
        needs both computes the diurnal curves once.
        """
        return self.congestion.loads_batch(
            [self._link_load_key(link) for link in self._links_on(route, topology)],
            hours,
        )

    def _link_load_key(self, link: Link) -> tuple[str, float]:
        """``(region, bias)``: all a link's noise-free load depends on."""
        return (
            self.link_region(link),
            link.congestion_bias + self.load_bias.get(link.key, 0.0),
        )

    def sample_rtt_batch(
        self,
        route: Route,
        hours: np.ndarray,
        rng: np.random.Generator,
        topology: Topology | None = None,
        loads: list[np.ndarray] | None = None,
    ) -> LatencyBatch:
        """Draw one RTT measurement per element of *hours* along *route*.

        Vectorised counterpart of :meth:`sample_rtt`: one call prices a
        whole ⟨group, hour⟩ cell (or many cells pooled per route).  The
        per-link congestion draws, the last-mile draw, and the
        measurement noise are each a single vectorised RNG call, so the
        per-sample Python cost is amortised to nothing.  Distribution
        is identical to the scalar path; draw *order* differs, so the
        two are seed-comparable only statistically.

        *loads*, when given, must be :meth:`link_loads` of the same
        route, hours and topology; passing them only skips recomputing
        them.
        """
        hours = np.asarray(hours, dtype=np.float64)
        if loads is None:
            loads = self.link_loads(route, hours, topology)
        prop = self.propagation_ms(route, topology)
        congestion = self.congestion
        queueing = np.zeros_like(hours)
        for load in loads:
            queueing += 2.0 * congestion.queueing_from_utilization(
                congestion.utilization_from_load(load, rng)
            )
        last_mile = np.maximum(
            rng.normal(self.last_mile_ms, self.last_mile_ms / 4, size=hours.shape), 0.5
        )
        noise = rng.normal(0.0, self.noise_std_ms, size=hours.shape)
        # Never beat the speed of light: clamp noise where it would push
        # the total below pure propagation (same rule as the scalar path).
        too_fast = queueing + last_mile + noise < 0.0
        noise = np.where(too_fast, -(queueing + last_mile), noise)
        return LatencyBatch(
            propagation_ms=prop,
            queueing_ms=queueing,
            last_mile_ms=last_mile,
            noise_ms=noise,
        )

    def expected_rtt(
        self, route: Route, hour: float, topology: Topology | None = None
    ) -> float:
        """Noise-free RTT along *route* at *hour* (for assertions/tests)."""
        prop = self.propagation_ms(route, topology)
        queueing = sum(
            2.0
            * self.congestion.queueing_delay_ms(
                self.link_region(link),
                hour,
                None,
                bias=link.congestion_bias + self.load_bias.get(link.key, 0.0),
            )
            for link in self._links_on(route, topology)
        )
        return prop + queueing + self.last_mile_ms

    def expected_rtt_batch(
        self,
        route: Route,
        hours: np.ndarray,
        topology: Topology | None = None,
        *,
        curves: dict[tuple[str, float], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Noise-free RTT along *route* for a whole array of *hours*.

        The vectorised ambient-RTT curve the batched generator prices
        test rates from: one pass per link instead of one per hour.
        Each link's round-trip queueing curve depends only on its
        ``(region, bias)``; *curves*, when given, keeps them by that key
        so a caller pricing many routes over one *hours* array computes
        each curve once (pass one dict per *hours* array).  Curves are
        summed in path order either way, so the bytes do not change.
        """
        hours = np.asarray(hours, dtype=np.float64)
        if curves is None:
            curves = {}
        congestion = self.congestion
        queueing = np.zeros_like(hours)
        for link in self._links_on(route, topology):
            key = self._link_load_key(link)
            curve = curves.get(key)
            if curve is None:
                (load,) = congestion.loads_batch([key], hours)
                curve = curves[key] = 2.0 * congestion.queueing_from_utilization(
                    congestion.utilization_from_load(load)
                )
            queueing += curve
        return self.propagation_ms(route, topology) + queueing + self.last_mile_ms
