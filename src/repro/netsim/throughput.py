"""Download-throughput synthesis for speed tests.

M-Lab's NDT measures bulk TCP download rate, not just RTT.  The model
combines the two first-order effects:

- **bottleneck share** — each link offers ``capacity * (1 - util)``
  residual capacity; the path's bottleneck is the minimum;
- **latency limitation** — a single TCP flow cannot exceed roughly
  ``window / RTT``; long (tromboned) paths are throughput-limited even
  on empty links.

    rate = min(bottleneck_residual, window_limit(rtt)) * lognormal noise

This keeps the qualitative behaviour studies need: congestion hurts,
distance hurts, and the IXP's effect on throughput mirrors (and
amplifies) its effect on RTT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.netsim.bgp import Route
from repro.netsim.latency import LatencyModel
from repro.netsim.topology import Topology

#: Residual capacity share never drops below this (TCP always trickles).
MIN_RESIDUAL = 0.02


@dataclass(frozen=True)
class ThroughputSample:
    """One download measurement with its limiting factor."""

    download_mbps: float
    bottleneck_mbps: float
    window_limit_mbps: float

    @property
    def latency_limited(self) -> bool:
        """Whether the window limit (RTT), not capacity, bound the rate."""
        return self.window_limit_mbps < self.bottleneck_mbps


@dataclass(frozen=True)
class ThroughputBatch:
    """Component arrays for a whole batch of download measurements."""

    download_mbps: np.ndarray
    bottleneck_mbps: np.ndarray
    window_limit_mbps: np.ndarray

    def __len__(self) -> int:
        return len(self.download_mbps)

    @property
    def latency_limited(self) -> np.ndarray:
        """Per-sample mask: the window limit (RTT) bound the rate."""
        return self.window_limit_mbps < self.bottleneck_mbps


class ThroughputModel:
    """Synthesises NDT-style download rates along routes.

    Parameters
    ----------
    latency:
        The latency model (provides per-link utilization context and the
        RTT entering the window limit).
    access_capacity_mbps:
        Subscriber access rate (the edge bottleneck on clean paths).
    core_capacity_mbps:
        Per-flow share available on core links at zero utilization.
    window_kb:
        Effective TCP window for the ``window/RTT`` product.
    noise_sigma:
        Log-normal noise sigma on the final rate.
    """

    def __init__(
        self,
        latency: LatencyModel,
        access_capacity_mbps: float = 100.0,
        core_capacity_mbps: float = 400.0,
        window_kb: float = 2048.0,
        noise_sigma: float = 0.15,
    ) -> None:
        for name, value in (
            ("access_capacity_mbps", access_capacity_mbps),
            ("core_capacity_mbps", core_capacity_mbps),
            ("window_kb", window_kb),
        ):
            if value <= 0:
                raise SimulationError(f"{name} must be positive")
        self.latency = latency
        self.access_capacity_mbps = access_capacity_mbps
        self.core_capacity_mbps = core_capacity_mbps
        self.window_kb = window_kb
        self.noise_sigma = noise_sigma

    def window_limit_mbps(self, rtt_ms: float) -> float:
        """Single-flow rate ceiling from window/RTT."""
        rtt_s = max(rtt_ms, 1.0) / 1000.0
        return self.window_kb * 8.0 / 1024.0 / rtt_s  # KB -> Mbit

    def bottleneck_mbps(
        self,
        route: Route,
        hour: float,
        topology: Topology | None = None,
    ) -> float:
        """Minimum residual capacity along the route (noise-free)."""
        residuals = [self.access_capacity_mbps]
        for link in self.latency._links_on(route, topology):
            bias = link.congestion_bias + self.latency.load_bias.get(link.key, 0.0)
            util = self.latency.congestion.utilization(
                self.latency.link_region(link), hour, None, bias
            )
            residuals.append(
                self.core_capacity_mbps * max(1.0 - util, MIN_RESIDUAL)
            )
        return float(min(residuals))

    def window_limit_mbps_batch(self, rtt_ms: np.ndarray) -> np.ndarray:
        """Vectorised window/RTT ceiling for an array of RTTs."""
        rtt_s = np.maximum(np.asarray(rtt_ms, dtype=np.float64), 1.0) / 1000.0
        return self.window_kb * 8.0 / 1024.0 / rtt_s

    def bottleneck_mbps_batch(
        self,
        route: Route,
        hours: np.ndarray,
        topology: Topology | None = None,
        loads: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Minimum residual capacity along the route per hour (noise-free).

        *loads*, when given, must be ``latency.link_loads`` of the same
        route, hours and topology; passing them only skips recomputing
        them.
        """
        hours = np.asarray(hours, dtype=np.float64)
        if loads is None:
            loads = self.latency.link_loads(route, hours, topology)
        residual = np.full(hours.shape, self.access_capacity_mbps)
        congestion = self.latency.congestion
        for load in loads:
            util = congestion.utilization_from_load(load)
            residual = np.minimum(
                residual,
                self.core_capacity_mbps * np.maximum(1.0 - util, MIN_RESIDUAL),
            )
        return residual

    def sample(
        self,
        route: Route,
        rtt_ms: float,
        hour: float,
        rng: np.random.Generator,
        topology: Topology | None = None,
    ) -> ThroughputSample:
        """Draw one download-rate measurement."""
        bottleneck = self.bottleneck_mbps(route, hour, topology)
        window = self.window_limit_mbps(rtt_ms)
        base = min(bottleneck, window)
        noise = float(np.exp(rng.normal(0.0, self.noise_sigma)))
        return ThroughputSample(
            download_mbps=base * noise,
            bottleneck_mbps=bottleneck,
            window_limit_mbps=window,
        )

    def sample_batch(
        self,
        route: Route,
        rtt_ms: np.ndarray,
        hours: np.ndarray,
        rng: np.random.Generator,
        topology: Topology | None = None,
        loads: list[np.ndarray] | None = None,
    ) -> ThroughputBatch:
        """Draw one download-rate measurement per ⟨rtt, hour⟩ pair.

        Vectorised counterpart of :meth:`sample`: the per-link residual
        capacities and the log-normal noise are each one array op, so a
        whole cell of tests costs the same Python overhead as one.
        *loads* is passed through to :meth:`bottleneck_mbps_batch`.
        """
        bottleneck = self.bottleneck_mbps_batch(route, hours, topology, loads)
        window = self.window_limit_mbps_batch(rtt_ms)
        base = np.minimum(bottleneck, window)
        noise = np.exp(rng.normal(0.0, self.noise_sigma, size=base.shape))
        return ThroughputBatch(
            download_mbps=base * noise,
            bottleneck_mbps=bottleneck,
            window_limit_mbps=window,
        )

    def expected(
        self,
        route: Route,
        rtt_ms: float,
        hour: float,
        topology: Topology | None = None,
    ) -> float:
        """Noise-free download rate (for assertions)."""
        return min(
            self.bottleneck_mbps(route, hour, topology),
            self.window_limit_mbps(rtt_ms),
        )
