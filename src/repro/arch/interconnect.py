"""Interconnect latency/bandwidth models and a small NoC simulator.

Three attachment points for the FG pool, per the paper's integration
study: on the CG die reached through the on-chip mesh, on a
HyperTransport (HTX) socket, and on a PCIe add-in board. Round-trip
latencies and effective bandwidths drive the arbiter's task-depth
calculation (Table 7) and model2's feasibility analysis.

``simulate_noc`` is a cycle-driven wormhole-ish mesh/torus model with
single-flit link arbitration, used by the NoC sensitivity extension
(uniform vs hotspot traffic, mesh vs torus).
"""

from __future__ import annotations

__all__ = [
    "Interconnect",
    "ONCHIP_MESH",
    "HTX",
    "PCIE",
    "INTERCONNECTS",
    "simulate_noc",
]


class Interconnect:
    """A link between the CG cores and the FG pool."""

    __slots__ = ("name", "label", "round_trip_cycles", "bandwidth_bytes")

    def __init__(self, name, label, round_trip_cycles, bandwidth_bytes):
        self.name = name
        self.label = label
        self.round_trip_cycles = round_trip_cycles
        self.bandwidth_bytes = bandwidth_bytes

    def __repr__(self):
        return f"Interconnect({self.name})"


# Round trips in 2 GHz CG-core cycles.
ONCHIP_MESH = Interconnect(
    "onchip-mesh", "on-chip mesh", round_trip_cycles=40,
    bandwidth_bytes=128e9)
HTX = Interconnect(
    "htx", "HyperTransport socket", round_trip_cycles=240,
    bandwidth_bytes=10.4e9)
# PCIe: bulk-DMA rate; the paper's section 8.3 example (200 KB in about
# 60 us) implies about 3.3e9 B/s.
PCIE = Interconnect(
    "pcie", "PCIe board", round_trip_cycles=2400,
    bandwidth_bytes=3.5e9)

INTERCONNECTS = {ic.name: ic for ic in (ONCHIP_MESH, HTX, PCIE)}


#: The simulated NoC: nodes per side, packets injected (one per cycle)
#: and flits per packet (a node's ejection port drains one packet per
#: FLITS cycles).
NOC_SIDE = 8
NOC_PACKETS = 512
FLITS = 4


def _route_step(x, y, dx, dy, n, torus):
    """One XY-dimension-ordered hop; returns (nx, ny)."""
    if x != dx:
        if torus:
            fwd = (dx - x) % n
            step = 1 if fwd <= n - fwd else -1
        else:
            step = 1 if dx > x else -1
        return (x + step) % n, y
    if torus:
        fwd = (dy - y) % n
        step = 1 if fwd <= n - fwd else -1
    else:
        step = 1 if dy > y else -1
    return x, (y + step) % n


def simulate_noc(topology: str, hotspot: bool = False):
    """Cycle-driven :data:`NOC_SIDE` x :data:`NOC_SIDE` NoC with
    one-packet-per-cycle links, carrying :data:`NOC_PACKETS` packets.

    Traffic is a deterministic pseudo-random permutation stream, one
    packet injected per cycle; with ``hotspot`` half the packets target
    the centre node. Each packet is :data:`FLITS` flits long, so a
    node's ejection port drains one packet every :data:`FLITS` cycles —
    converging hotspot traffic queues at the destination while uniform
    traffic barely waits. Returns
    ``{"avg_latency", "max_latency", "delivered"}``.
    """
    torus = topology == "torus"
    n = NOC_SIDE
    total = n * n
    centre = (n // 2) * n + n // 2
    flows = []
    for i in range(NOC_PACKETS):
        src = (i * 37 + 11) % total
        dst = (i * 53 + 29) % total
        if hotspot and i % 2 == 0:
            dst = centre
        if dst == src:
            dst = (dst + 1) % total
        flows.append((i, src, dst))

    in_flight = []  # [inject_cycle, x, y, dx, dy]
    arrived = []
    eject_busy = {}  # (x, y) -> cycle the ejection port frees up
    cycle = 0
    next_pkt = 0
    while next_pkt < len(flows) or in_flight:
        while (next_pkt < len(flows)
               and flows[next_pkt][0] <= cycle):
            t0, src, dst = flows[next_pkt]
            in_flight.append([t0, src % n, src // n,
                              dst % n, dst // n])
            next_pkt += 1
        # One packet per link per cycle: first-come-first-served on
        # each (from, to) link; later packets wanting the same link
        # stall. Packets at their destination contend for the node's
        # ejection port, which serializes one packet per FLITS cycles.
        claimed = set()
        still = []
        for pkt in in_flight:
            t0, x, y, dx, dy = pkt
            if x == dx and y == dy:
                free = eject_busy.get((dx, dy), 0)
                if free <= cycle:
                    eject_busy[(dx, dy)] = cycle + FLITS
                    arrived.append(cycle + FLITS - t0)
                else:
                    still.append(pkt)
                continue
            nx, ny = _route_step(x, y, dx, dy, n, torus)
            link = (x, y, nx, ny)
            if link not in claimed:
                claimed.add(link)
                pkt[1], pkt[2] = nx, ny
            still.append(pkt)
        in_flight = still
        cycle += 1
        if cycle > 200000:  # pragma: no cover - safety valve
            break

    if not arrived:
        return {"avg_latency": 0.0, "max_latency": 0, "delivered": 0}
    return {
        "avg_latency": sum(arrived) / len(arrived),
        "max_latency": max(arrived),
        "delivered": len(arrived),
    }
