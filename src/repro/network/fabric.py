"""Fabric structures: virtual channels, stations, output ports, builds.

A topology compiles to a :class:`FabricBuild`:

* **Station** — one input buffer bank (a crossbar input port and its VC
  pool).  Stations carry the per-hop pipeline wait (Table 1 pipelines),
  whether PVC flow state is present (false at DPS intermediate hops),
  and an energy-accounting kind.
* **OutputPort** — one serialised resource: a column channel, a MECS
  point-to-multipoint channel, a DPS subnet segment (the 2:1 mux), or a
  terminal ejection port.  Ports are busy for ``size`` cycles per packet
  (16-byte links, one flit per cycle).
* **VirtualChannel** — holds at most one packet (virtual cut-through: a
  VC must be able to hold the largest packet, and worst-case traffic is
  a stream of single-flit packets each needing its own VC).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.network.packet import RouteRequest

#: Station kinds used for energy/hop accounting.
KIND_INJECT = "inject"
KIND_MESH = "mesh"
KIND_MECS = "mecs"
KIND_DPS_MID = "dps_mid"
KIND_DPS_END = "dps_end"


class VirtualChannel:
    """One virtual channel: a slot for a single packet."""

    __slots__ = (
        "station",
        "index",
        "reserved",
        "packet",
        "ready_at",
        "arriving_until",
        "inbound_port",
        "departing",
        "epoch",
        "owner",
        "prio_idx",
    )

    def __init__(self, station: "Station", index: int, reserved: bool = False) -> None:
        self.station = station
        self.index = index
        self.reserved = reserved
        self.packet = None
        self.ready_at = 0
        self.arriving_until = -1
        self.inbound_port: OutputPort | None = None
        self.departing = False
        #: Placement generation, bumped every time a packet is placed
        #: into this VC.  The activity-tracked engine prunes request
        #: lists lazily and stores ``(epoch, vc)`` entries, so an entry
        #: left over from a previous tenant (the VC was cleared and
        #: reused between two port visits) identifies itself as stale
        #: instead of double-counting the VC as a live request.
        self.epoch = 0
        #: The injector owning this VC as a dedicated injection slot
        #: (set by the activity-tracked engine; None elsewhere).  When
        #: the VC frees, the engine re-arms exactly this injector
        #: instead of sweeping every injector with queued work.
        self.owner = None
        #: Flow-table index (``node * n_flows + flow``) of the packet
        #: currently placed in this VC, precomputed at placement by the
        #: activity-tracked engine so the arbitration scan reads the
        #: priority cache with a single attribute load.
        self.prio_idx = 0

    def clear(self) -> None:
        """Empty the VC (after tail departure or a preemption)."""
        self.packet = None
        self.arriving_until = -1
        self.inbound_port = None
        self.departing = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        holder = self.packet.pid if self.packet is not None else "-"
        return f"VC({self.station.label}#{self.index}, pkt={holder})"


class Station:
    """An input buffer bank at a router (one crossbar input line).

    ``tx_busy_until`` models the shared crossbar input line: grouped row
    inputs (up to four MECS row channels per crossbar port, Section 4)
    and multi-VC banks forward at most one flit per cycle.
    """

    __slots__ = (
        "index",
        "node",
        "label",
        "kind",
        "va_wait",
        "qos",
        "vcs",
        "tx_busy_until",
        "allow_overflow",
    )

    def __init__(
        self,
        index: int,
        node: int,
        label: str,
        kind: str,
        *,
        n_vcs: int,
        va_wait: int,
        qos: bool,
        reserve_first: bool = False,
    ) -> None:
        if n_vcs <= 0:
            raise TopologyError(f"station {label} needs at least one VC")
        self.index = index
        self.node = node
        self.label = label
        self.kind = kind
        self.va_wait = va_wait
        self.qos = qos
        self.vcs = [
            VirtualChannel(self, i, reserved=(reserve_first and i == 0))
            for i in range(n_vcs)
        ]
        self.tx_busy_until = 0
        self.allow_overflow = False

    def free_vc(self, *, allow_reserved: bool) -> VirtualChannel | None:
        """First free VC; reserved VC 0 only if the caller qualifies."""
        for vc in self.vcs:
            if vc.packet is None and (allow_reserved or not vc.reserved):
                return vc
        if self.allow_overflow:
            vc = VirtualChannel(self, len(self.vcs))
            self.vcs.append(vc)
            return vc
        return None

    def occupancy(self) -> int:
        """Number of occupied VCs (diagnostics and tests)."""
        return sum(1 for vc in self.vcs if vc.packet is not None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Station({self.label}, vcs={len(self.vcs)})"


class OutputPort:
    """An arbitrated, serialised output resource."""

    __slots__ = ("index", "node", "label", "is_ejection", "busy_until", "requests")

    def __init__(self, index: int, node: int, label: str, *, is_ejection: bool) -> None:
        self.index = index
        self.node = node
        self.label = label
        self.is_ejection = is_ejection
        self.busy_until = 0
        #: Pending arbitration requests.  The golden reference engine
        #: stores bare VCs here (pruned every cycle).  The
        #: activity-tracked engine appends ``(vc.epoch, vc)`` pairs and
        #: treats the list as an *inbox*: under cacheable-priority
        #: policies each pass drains it into the engine's persistent
        #: per-port ranking, under the no-QoS policy it is pruned
        #: lazily in place.
        self.requests: list = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OutputPort({self.label})"


RouteBuilder = Callable[[RouteRequest], tuple[tuple[int, ...], tuple[tuple[int, int, int, int], ...]]]


@dataclass
class FabricBuild:
    """Everything the engine needs from a compiled topology.

    Attributes
    ----------
    name:
        Topology name.
    stations / ports:
        Flat component lists; indices are the ids used inside routes.
    injection_station:
        ``(node, port_name) -> station index`` for injector placement.
    injection_vc:
        ``(node, port_name) -> vc index`` inside that station, so each
        injector owns a dedicated slot (its private injection queue head).
    route_builder:
        Compiles a :class:`~repro.network.packet.RouteRequest` into the
        ``(stations, segments)`` tuples stored on a packet.  It must be
        pure: a route depends only on the source and destination nodes,
        the injection station and ``replica_hint % replica_count`` (the
        source node is implied by the injection station), so the engine
        builds each distinct route once and shares the tuples.
    replica_count:
        Number of interchangeable route replicas (mesh x2/x4 channel
        replication); the engine round-robins the ``replica_hint``.
    ejection_ports:
        ``node -> port index`` of the terminal ejection port.
    """

    name: str
    stations: list[Station]
    ports: list[OutputPort]
    injection_station: dict[tuple[int, str], int]
    injection_vc: dict[tuple[int, str], int]
    route_builder: RouteBuilder
    replica_count: int = 1
    ejection_ports: dict[int, int] = field(default_factory=dict)

    def station_by_label(self, label: str) -> Station:
        """Lookup helper for tests and diagnostics."""
        for station in self.stations:
            if station.label == label:
                return station
        raise TopologyError(f"no station labelled {label!r}")

    def port_by_label(self, label: str) -> OutputPort:
        """Lookup helper for tests and diagnostics."""
        for port in self.ports:
            if port.label == label:
                return port
        raise TopologyError(f"no port labelled {label!r}")
