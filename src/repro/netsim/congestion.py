"""Traffic load and queueing delay.

Congestion is the confounder at the heart of the paper's running
example: diurnal load influences both routing decisions and latency.
The model gives every link a utilization process

    util(t) = clip(base + diurnal(t) + regional_shock(t) + noise, 0, 0.97)

where the diurnal term follows local time of the link's region and
shocks are scenario events (e.g. a regional congestion episode).  The
queueing delay added per traversal follows an M/M/1-style blow-up,
``d0 * util / (1 - util)``, capped for numerical sanity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

HOURS_PER_DAY = 24.0
MAX_UTILIZATION = 0.97


@dataclass(frozen=True)
class DiurnalProfile:
    """A sinusoidal daily load profile.

    Attributes
    ----------
    base:
        Mean utilization in [0, 1).
    amplitude:
        Peak deviation of the daily swing.
    peak_hour:
        Local hour of maximum load.
    timezone_offset:
        Hours to add to simulation time to get local time.
    """

    base: float = 0.45
    amplitude: float = 0.25
    peak_hour: float = 20.0
    timezone_offset: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.base < 1:
            raise SimulationError(f"base utilization {self.base} out of [0, 1)")
        if self.amplitude < 0:
            raise SimulationError("amplitude must be >= 0")

    def utilization(self, hour: float) -> float:
        """Deterministic utilization at simulation *hour* (no noise)."""
        local = (hour + self.timezone_offset) % HOURS_PER_DAY
        phase = 2 * math.pi * (local - self.peak_hour) / HOURS_PER_DAY
        return float(
            np.clip(self.base + self.amplitude * math.cos(phase), 0.0, MAX_UTILIZATION)
        )

    def utilization_batch(self, hours: np.ndarray) -> np.ndarray:
        """Deterministic utilization for a whole array of *hours* at once."""
        hours = np.asarray(hours, dtype=np.float64)
        local = (hours + self.timezone_offset) % HOURS_PER_DAY
        phase = 2.0 * np.pi * (local - self.peak_hour) / HOURS_PER_DAY
        return np.clip(
            self.base + self.amplitude * np.cos(phase), 0.0, MAX_UTILIZATION
        )


@dataclass(frozen=True)
class RegionalShock:
    """A transient additive load shock over a region's links.

    Models the paper's "no other major shocks" caveat: scenario builders
    inject these deliberately to stress synthetic-control robustness.
    """

    region: str
    start_hour: float
    end_hour: float
    extra_utilization: float

    def __post_init__(self) -> None:
        if self.end_hour <= self.start_hour:
            raise SimulationError("shock must end after it starts")

    def active(self, hour: float) -> bool:
        """Whether the shock covers simulation *hour*."""
        return self.start_hour <= hour < self.end_hour


class CongestionModel:
    """Per-region utilization and per-link queueing delay.

    Parameters
    ----------
    profiles:
        ``{region: DiurnalProfile}``; the region of a link is the country
        of its lower-latitude endpoint's city in the default scenario
        builder, but any string key works.
    noise_std:
        Standard deviation of per-sample utilization noise.
    base_queueing_ms:
        Queueing delay scale ``d0`` in the M/M/1 blow-up.
    max_queueing_ms:
        Hard cap on per-link queueing delay.
    """

    def __init__(
        self,
        profiles: dict[str, DiurnalProfile] | None = None,
        default_profile: DiurnalProfile | None = None,
        noise_std: float = 0.03,
        base_queueing_ms: float = 1.2,
        max_queueing_ms: float = 80.0,
    ) -> None:
        if noise_std < 0:
            raise SimulationError("noise_std must be >= 0")
        self.profiles = dict(profiles or {})
        self.default_profile = default_profile or DiurnalProfile()
        self.noise_std = noise_std
        self.base_queueing_ms = base_queueing_ms
        self.max_queueing_ms = max_queueing_ms
        self.shocks: list[RegionalShock] = []

    def add_shock(self, shock: RegionalShock) -> None:
        """Schedule a regional load shock."""
        self.shocks.append(shock)

    def profile_for(self, region: str) -> DiurnalProfile:
        """The diurnal profile of *region* (default when unregistered)."""
        return self.profiles.get(region, self.default_profile)

    def utilization(
        self,
        region: str,
        hour: float,
        rng: np.random.Generator | None = None,
        bias: float = 0.0,
    ) -> float:
        """Sampled utilization of a link in *region* at *hour*.

        *bias* is a per-link additive utilization shift (e.g. a hot IXP
        port), applied before clipping.
        """
        util = self.profile_for(region).utilization(hour) + bias
        for shock in self.shocks:
            if shock.region == region and shock.active(hour):
                util += shock.extra_utilization
        if rng is not None and self.noise_std > 0:
            util += float(rng.normal(0.0, self.noise_std))
        return float(np.clip(util, 0.0, MAX_UTILIZATION))

    def loads_batch(
        self, links: Sequence[tuple[str, float]], hours: np.ndarray
    ) -> list[np.ndarray]:
        """Pre-noise utilization of several links over one *hours* array.

        *links* holds one ``(region, bias)`` pair per link.  Each load is
        the region's diurnal curve plus the link's bias plus every active
        shock in its region, before noise and clipping; the diurnal curve
        is evaluated once per region, not once per link.  Turn a load
        into a utilization with :meth:`utilization_from_load`.
        """
        hours = np.asarray(hours, dtype=np.float64)
        curves: dict[str, np.ndarray] = {}
        loads = []
        for region, bias in links:
            if region not in curves:
                curves[region] = self.profile_for(region).utilization_batch(hours)
            util = curves[region] + bias
            for shock in self.shocks:
                if shock.region == region:
                    active = (hours >= shock.start_hour) & (hours < shock.end_hour)
                    util = util + shock.extra_utilization * active
            loads.append(util)
        return loads

    def utilization_from_load(
        self, load: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Clip a pre-noise *load* to a utilization.

        When *rng* is given, one normal noise draw per element is added
        first, so the noisy RTT draw and the noise-free bottleneck can
        both start from the same load.
        """
        if rng is not None and self.noise_std > 0:
            load = load + rng.normal(0.0, self.noise_std, size=load.shape)
        return np.clip(load, 0.0, MAX_UTILIZATION)

    def queueing_from_utilization(self, util: np.ndarray) -> np.ndarray:
        """One-way M/M/1 queueing delay for a utilization array."""
        delay = self.base_queueing_ms * util / np.maximum(1.0 - util, 1e-3)
        return np.minimum(delay, self.max_queueing_ms)

    def utilization_batch(
        self,
        region: str,
        hours: np.ndarray,
        rng: np.random.Generator | None = None,
        bias: float = 0.0,
    ) -> np.ndarray:
        """Sampled utilization of a link in *region* over an *hours* array.

        One vectorised draw prices every element: the diurnal curve,
        active shocks (masked per element), the per-link *bias*, and —
        when *rng* is given — one normal noise draw per element.
        """
        (load,) = self.loads_batch([(region, bias)], hours)
        return self.utilization_from_load(load, rng)

    def queueing_delay_ms(
        self,
        region: str,
        hour: float,
        rng: np.random.Generator | None = None,
        bias: float = 0.0,
    ) -> float:
        """One-way queueing delay of a link in *region* at *hour*."""
        util = self.utilization(region, hour, rng, bias)
        delay = self.base_queueing_ms * util / max(1.0 - util, 1e-3)
        return float(min(delay, self.max_queueing_ms))

    def queueing_delay_ms_batch(
        self,
        region: str,
        hours: np.ndarray,
        rng: np.random.Generator | None = None,
        bias: float = 0.0,
    ) -> np.ndarray:
        """One-way queueing delay over an *hours* array (vectorised M/M/1)."""
        return self.queueing_from_utilization(
            self.utilization_batch(region, hours, rng, bias)
        )
