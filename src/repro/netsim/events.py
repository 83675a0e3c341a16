"""Scenario events and the network timeline.

Events are the simulator's interventions — some endogenous (traffic-
driven policy shifts), some exogenous (scheduled maintenance, regulator-
imposed changes), mirroring the paper's discussion of which real-world
events make valid instruments.  A :class:`Timeline` applies events to a
base topology and answers "what did the network look like at hour t?",
with route computation cached per epoch.

Permanent events (IXP joins, depeerings, new links) change the topology
from their time onward; interval events (link failures, maintenance
windows) mark links dead for a bounded period.
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.netsim.bgp import LinkKey, Route, compute_routes
from repro.netsim.ixp import Ixp, IxpRegistry, connect_member
from repro.netsim.topology import Topology


@dataclass(frozen=True)
class NetworkEvent:
    """Base event: something that happens at a simulation hour."""

    time_hour: float

    def describe(self) -> str:
        """Human-readable one-liner."""
        return f"event at t={self.time_hour:g}h"


@dataclass(frozen=True)
class IxpJoinEvent(NetworkEvent):
    """An AS joins an exchange and peers over its fabric (permanent).

    ``port_bias`` shifts the new sessions' utilization: a positive value
    models a hot or under-provisioned member port.
    """

    asn: int = 0
    ixp_name: str = ""
    peer_with: tuple[int, ...] | None = None
    port_bias: float = 0.0

    def describe(self) -> str:
        return f"t={self.time_hour:g}h: AS{self.asn} joins {self.ixp_name}"


@dataclass(frozen=True)
class DepeeringEvent(NetworkEvent):
    """Two ASes tear down their adjacency (permanent)."""

    a_asn: int = 0
    b_asn: int = 0

    def describe(self) -> str:
        return f"t={self.time_hour:g}h: AS{self.a_asn} and AS{self.b_asn} depeer"


@dataclass(frozen=True)
class NewLinkEvent(NetworkEvent):
    """A new adjacency appears (permanent): c2p when provider set, else p2p."""

    a_asn: int = 0
    b_asn: int = 0
    provider: bool = False

    def describe(self) -> str:
        kind = "buys transit from" if self.provider else "peers with"
        return f"t={self.time_hour:g}h: AS{self.a_asn} {kind} AS{self.b_asn}"


@dataclass(frozen=True)
class LinkFailureEvent(NetworkEvent):
    """A link goes down for a bounded interval (unplanned)."""

    a_asn: int = 0
    b_asn: int = 0
    duration_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise SimulationError("failure duration must be positive")

    @property
    def link(self) -> LinkKey:
        """The affected link key."""
        return (min(self.a_asn, self.b_asn), max(self.a_asn, self.b_asn))

    def active(self, hour: float) -> bool:
        """Whether the link is down at *hour*."""
        return self.time_hour <= hour < self.time_hour + self.duration_hours

    def describe(self) -> str:
        return (
            f"t={self.time_hour:g}h: link AS{self.link[0]}-AS{self.link[1]} fails "
            f"for {self.duration_hours:g}h"
        )


@dataclass(frozen=True)
class MaintenanceWindowEvent(LinkFailureEvent):
    """A *scheduled* link outage.

    Functionally identical to a failure, but flagged as exogenous: its
    timing was fixed in advance, independent of network conditions —
    the paper's canonical natural-experiment instrument.
    """

    exogenous: bool = True

    def describe(self) -> str:
        return (
            f"t={self.time_hour:g}h: scheduled maintenance on "
            f"AS{self.link[0]}-AS{self.link[1]} for {self.duration_hours:g}h"
        )


class NetworkState:
    """The network as of one instant: topology, IXPs, dead links."""

    def __init__(
        self,
        topology: Topology,
        ixps: IxpRegistry,
        dead_links: frozenset[LinkKey],
        epoch: int,
    ) -> None:
        self.topology = topology
        self.ixps = ixps
        self.dead_links = dead_links
        self.epoch = epoch

    def routes_to(self, destination: int) -> dict[int, Route]:
        """Selected routes from every AS toward *destination*."""
        return compute_routes(self.topology, destination, set(self.dead_links))


class Timeline:
    """A base network plus a schedule of events.

    Permanent events create *epochs* (topology snapshots); interval
    events only toggle link liveness.  Route computations are cached per
    (epoch, dead-link-set, destination), so repeated measurement
    sampling within an epoch is cheap.
    """

    def __init__(self, topology: Topology, ixps: IxpRegistry) -> None:
        self._events: list[NetworkEvent] = []
        self._built = False
        self._base_topology = topology
        self._base_ixps = ixps
        self._epoch_times: list[float] = []
        self._epoch_states: list[tuple[Topology, IxpRegistry]] = []
        self._interval_events: list[LinkFailureEvent] = []
        self._route_cache: dict[tuple[int, frozenset[LinkKey], int], dict[int, Route]] = {}

    def add_event(self, event: NetworkEvent) -> None:
        """Schedule an event (before the first state query)."""
        if self._built:
            raise SimulationError("timeline already built; add events before querying")
        self._events.append(event)

    @property
    def events(self) -> list[NetworkEvent]:
        """All scheduled events, time-sorted."""
        return sorted(self._events, key=lambda e: e.time_hour)

    def _build(self) -> None:
        if self._built:
            return
        topo = self._base_topology.copy()
        ixps = copy.deepcopy(self._base_ixps)
        self._epoch_times = [float("-inf")]
        self._epoch_states = [(topo.copy(), copy.deepcopy(ixps))]
        for event in self.events:
            if isinstance(event, LinkFailureEvent):
                self._interval_events.append(event)
                continue
            self._apply_permanent(topo, ixps, event)
            self._epoch_times.append(event.time_hour)
            self._epoch_states.append((topo.copy(), copy.deepcopy(ixps)))
        self._built = True

    @staticmethod
    def _apply_permanent(topo: Topology, ixps: IxpRegistry, event: NetworkEvent) -> None:
        if isinstance(event, IxpJoinEvent):
            ixp = ixps.get(event.ixp_name)
            peer_with = list(event.peer_with) if event.peer_with is not None else None
            connect_member(topo, ixp, event.asn, peer_with, port_bias=event.port_bias)
        elif isinstance(event, DepeeringEvent):
            topo.remove_link(event.a_asn, event.b_asn)
        elif isinstance(event, NewLinkEvent):
            if event.provider:
                topo.add_c2p(event.a_asn, event.b_asn)
            else:
                topo.add_p2p(event.a_asn, event.b_asn)
        else:
            raise SimulationError(f"unknown permanent event {event!r}")

    def state_at(self, hour: float) -> NetworkState:
        """The network state in force at simulation *hour*."""
        self._build()
        idx = bisect.bisect_right(self._epoch_times, hour) - 1
        topo, ixps = self._epoch_states[idx]
        dead = frozenset(
            ev.link for ev in self._interval_events if ev.active(hour)
        )
        return NetworkState(topo, ixps, dead, epoch=idx)

    def routes_at(self, hour: float, destination: int) -> dict[int, Route]:
        """Cached route lookup for (hour's epoch, live links, destination)."""
        state = self.state_at(hour)
        key = (state.epoch, state.dead_links, destination)
        if key not in self._route_cache:
            self._route_cache[key] = state.routes_to(destination)
        return self._route_cache[key]

    def epoch_boundaries(self) -> list[float]:
        """Hours at which permanent events change the topology."""
        self._build()
        return [t for t in self._epoch_times if t != float("-inf")]

    def state_change_hours(self) -> list[float]:
        """Hours at which :meth:`state_at` can change, ascending.

        Epoch boundaries plus every interval event's start and end: the
        state is constant on each half-open span between two of them.
        """
        self._build()
        hours = set(self.epoch_boundaries())
        for event in self._interval_events:
            hours.update((event.time_hour, event.time_hour + event.duration_hours))
        return sorted(hours)
