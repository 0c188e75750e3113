"""Network topology: an ESnet-like graph of sites, routers and 10 G links.

The paper's four paths ride the ESnet backbone.  We model a topology of
the same character — DOE lab sites hanging off a continental backbone of
10 Gbps links — as an insertion-ordered adjacency map.  Node ids are
strings ("NERSC", "rt-chic"); a parallel integer registry maps node names
to the host ids stored in :class:`~repro.gridftp.records.TransferLog`
columns.  Routes are minimum-delay paths (Dijkstra) and, for circuits,
Yen's k shortest loop-free paths (Yen, 1971).

Provider-edge placement follows the paper's note that ESnet locates its
PE routers *inside* the NERSC/ORNL campuses, so site access links are part
of the provider network and carry SNMP counters like any backbone link.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from collections.abc import Container

__all__ = ["Link", "Topology", "esnet_like", "internet2_like", "SITES", "I2_SITES"]

#: The laboratory sites appearing in the paper's datasets.
SITES = ("NERSC", "ANL", "ORNL", "NCAR", "NICS", "SLAC", "BNL", "LANL")


@dataclasses.dataclass(frozen=True, slots=True)
class Link:
    """One undirected backbone or access link."""

    u: str
    v: str
    capacity_bps: float = 10e9
    delay_s: float = 0.005  # one-way propagation

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying the link."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


#: One candidate route: its nodes, canonical link keys and link capacities.
_Route = tuple[tuple[str, ...], tuple[tuple[str, str], ...], tuple[float, ...]]


class Topology:
    """Mutable site/router graph with capacity and delay annotations.

    The graph is an insertion-ordered adjacency map, node -> neighbour ->
    ``(capacity_bps, delay_s)``, and changes only through
    :meth:`add_site`, :meth:`add_router` and :meth:`add_link`.  Routes are
    memoized per graph state, keyed by their query: :meth:`path` per
    ``(src, dst)`` and :meth:`candidate_routes` per ``(src, dst, k)``.
    Every ``add_*`` empties the memo.
    """

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, tuple[float, float]]] = {}
        self._host_ids: dict[str, int] = {}
        self._ip_routes: dict[tuple[str, str], tuple[str, ...]] = {}
        self._candidates: dict[tuple[str, str, int], tuple[_Route, ...]] = {}

    def _changed(self) -> None:
        self._ip_routes.clear()
        self._candidates.clear()

    # -- construction --------------------------------------------------------

    def add_site(self, name: str) -> int:
        """Add a lab site (a DTN endpoint); returns its integer host id."""
        if name in self._host_ids:
            raise ValueError(f"duplicate site {name!r}")
        self._adj.setdefault(name, {})
        self._changed()
        host_id = len(self._host_ids)
        self._host_ids[name] = host_id
        return host_id

    def add_router(self, name: str) -> None:
        """Add a backbone router (not addressable as a transfer endpoint)."""
        if name in self._adj:
            raise ValueError(f"duplicate node {name!r}")
        self._adj[name] = {}
        self._changed()

    def add_link(
        self, u: str, v: str, capacity_bps: float = 10e9, delay_s: float = 0.005
    ) -> Link:
        """Connect two existing nodes with an undirected link.

        Linking a connected pair again replaces its capacity and delay.
        """
        for n in (u, v):
            if n not in self._adj:
                raise KeyError(f"unknown node {n!r}")
        if u == v:
            raise ValueError(f"a link needs two distinct nodes, got {u!r} twice")
        if not 0 < capacity_bps < math.inf:
            raise ValueError(
                f"capacity_bps must be positive and finite, got {capacity_bps!r}"
            )
        if not 0 <= delay_s < math.inf:
            raise ValueError(
                f"delay_s must be non-negative and finite, got {delay_s!r}"
            )
        self._adj[u][v] = self._adj[v][u] = (capacity_bps, delay_s)
        self._changed()
        return Link(u, v, capacity_bps, delay_s)

    # -- queries ---------------------------------------------------------------

    def host_id(self, site: str) -> int:
        """Integer host id of ``site`` for use in transfer-log columns."""
        return self._host_ids[site]

    def site_of(self, host_id: int) -> str:
        """Inverse of :meth:`host_id`."""
        for name, hid in self._host_ids.items():
            if hid == host_id:
                return name
        raise KeyError(host_id)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._host_ids)

    def links(self) -> list[Link]:
        """Every link once, oriented from the node added first, in node
        order and then in each node's link order."""
        seen = set()
        found = []
        for u, nbrs in self._adj.items():
            found.extend(Link(u, v, *nbrs[v]) for v in nbrs if v not in seen)
            seen.add(u)
        return found

    def has_link(self, u: str, v: str) -> bool:
        """Whether a link joins ``u`` and ``v``."""
        return v in self._adj.get(u, ())

    def path(self, src: str, dst: str) -> list[str]:
        """Minimum-propagation-delay path (the IP-routed default route).

        Equal-delay routes tie by insertion order: Dijkstra settles nodes
        by delay, equal delays in the order they were reached at it,
        scans each node's links in the order they were added, and a node
        keeps the first neighbour that reached it at its final delay.
        Raises ``KeyError`` for an unknown node and ``ValueError`` when
        no route joins the two.
        """
        route = self._ip_routes.get((src, dst))
        if route is None:
            route = self._ip_routes[src, dst] = self._shortest(src, dst)
        return list(route)

    def candidate_routes(self, src: str, dst: str, k: int) -> tuple[_Route, ...]:
        """Up to ``k`` loop-free routes in increasing propagation delay.

        Yen's algorithm over :meth:`path`'s Dijkstra, so the first route
        is the IP route; equal-delay routes come in the order it finds
        them.  Each route carries its link keys and capacities, so callers
        weighing alternatives never touch the graph.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        routes = self._candidates.get((src, dst, k))
        if routes is None:
            found = []
            for nodes in self._k_shortest(src, dst, k):
                keys = tuple(self.path_links(nodes))
                caps = tuple(self.link_capacity(key) for key in keys)
                found.append((nodes, keys, caps))
            routes = self._candidates[src, dst, k] = tuple(found)
        return routes

    def _shortest(self, src: str, dst: str) -> tuple[str, ...]:
        for n in (src, dst):
            if n not in self._adj:
                raise KeyError(f"unknown node {n!r}")
        nodes = self._dijkstra(src, dst)
        if nodes is None:
            raise ValueError(f"no route from {src!r} to {dst!r}")
        return nodes

    def _dijkstra(
        self, src: str, dst: str, avoid: tuple[str, ...] = (), skip: Container[str] = ()
    ) -> tuple[str, ...] | None:
        """Minimum-delay path that enters no node of ``avoid`` and leaves
        ``src`` towards no node of ``skip``; None when there is none."""
        best = {src: 0.0}
        via: dict[str, str | None] = {src: None}
        settled = set(avoid)
        order = itertools.count()
        heap = [(0.0, next(order), src)]
        while heap:
            delay, _, u = heapq.heappop(heap)
            if u in settled:
                continue
            if u == dst:
                nodes = []
                while u is not None:
                    nodes.append(u)
                    u = via[u]
                return tuple(reversed(nodes))
            settled.add(u)
            for v, (_, d) in self._adj[u].items():
                if v in settled or (u == src and v in skip):
                    continue
                if v not in best or delay + d < best[v]:
                    best[v] = delay + d
                    via[v] = u
                    heapq.heappush(heap, (best[v], next(order), v))
        return None

    def _k_shortest(self, src: str, dst: str, k: int) -> list[tuple[str, ...]]:
        """Yen's k shortest loop-free paths: each next path is the
        cheapest detour off a prefix of the last one found."""
        paths = [self._shortest(src, dst)]
        queued = set(paths)
        detours: list[tuple[float, int, tuple[str, ...]]] = []
        order = itertools.count()
        while len(paths) < k:
            last = paths[-1]
            for i in range(len(last) - 1):
                used = {p[i + 1] for p in paths if p[: i + 1] == last[: i + 1]}
                spur = self._dijkstra(last[i], dst, avoid=last[:i], skip=used)
                nodes = last[:i] + spur if spur else None
                if nodes and nodes not in queued:
                    queued.add(nodes)
                    rtt = self.path_rtt_s(nodes)
                    heapq.heappush(detours, (rtt, next(order), nodes))
            if not detours:
                break
            paths.append(heapq.heappop(detours)[2])
        return paths

    def path_links(self, nodes: list[str]) -> list[tuple[str, str]]:
        """Canonical link keys along a node path."""
        return [
            (u, v) if u <= v else (v, u) for u, v in zip(nodes[:-1], nodes[1:])
        ]

    def path_rtt_s(self, nodes: list[str]) -> float:
        """Round-trip propagation delay along a node path."""
        total = 0.0
        for u, v in zip(nodes[:-1], nodes[1:]):
            total += self._adj[u][v][1]
        return 2.0 * total

    def path_bottleneck_bps(self, nodes: list[str]) -> float:
        """Minimum link capacity along a node path."""
        return min(self._adj[u][v][0] for u, v in zip(nodes[:-1], nodes[1:]))

    def link_capacity(self, key: tuple[str, str]) -> float:
        u, v = key
        return float(self._adj[u][v][0])

    def rtt_between(self, src: str, dst: str) -> float:
        """RTT of the default (IP-routed) path between two sites."""
        return self.path_rtt_s(self.path(src, dst))


def esnet_like() -> Topology:
    """Build the reference ESnet-like topology used by the experiments.

    A continental backbone: west-coast hub (Sunnyvale), mountain/plains
    chain to Chicago, a southern route via El Paso/Houston/Nashville, and
    an east-coast arc to New York.  All links 10 Gbps; one-way delays
    loosely track geographic distance so that SLAC--BNL comes out near the
    paper's 80 ms RTT and NCAR--NICS considerably shorter.
    """
    t = Topology()
    for site in SITES:
        t.add_site(site)
    routers = [
        "rt-sunn",  # Sunnyvale, CA
        "rt-sacr",  # Sacramento
        "rt-denv",  # Denver
        "rt-kans",  # Kansas City
        "rt-chic",  # Chicago
        "rt-clev",  # Cleveland
        "rt-aofa",  # New York (32 AofA)
        "rt-wash",  # Washington DC
        "rt-atla",  # Atlanta
        "rt-nash",  # Nashville
        "rt-elpa",  # El Paso
        "rt-albu",  # Albuquerque
        "rt-hous",  # Houston
        "rt-memp",  # Memphis
    ]
    for r in routers:
        t.add_router(r)

    # Backbone (delay in seconds, one way).
    backbone = [
        ("rt-sunn", "rt-sacr", 0.002),
        ("rt-sacr", "rt-denv", 0.011),
        ("rt-denv", "rt-kans", 0.006),
        ("rt-kans", "rt-chic", 0.005),
        ("rt-chic", "rt-clev", 0.004),
        ("rt-clev", "rt-aofa", 0.005),
        ("rt-aofa", "rt-wash", 0.003),
        ("rt-wash", "rt-atla", 0.006),
        ("rt-atla", "rt-nash", 0.003),
        ("rt-nash", "rt-chic", 0.005),
        ("rt-sunn", "rt-elpa", 0.011),
        ("rt-elpa", "rt-albu", 0.002),
        ("rt-albu", "rt-hous", 0.005),
        ("rt-hous", "rt-memp", 0.004),
        ("rt-memp", "rt-nash", 0.004),
    ]
    for u, v, d in backbone:
        t.add_link(u, v, capacity_bps=10e9, delay_s=d)

    # Site access links (PE router on campus: short, provider-owned).
    access = [
        ("NERSC", "rt-sunn", 0.001),
        ("SLAC", "rt-sunn", 0.001),
        ("NCAR", "rt-denv", 0.001),
        ("ANL", "rt-chic", 0.001),
        ("ORNL", "rt-nash", 0.002),
        ("NICS", "rt-nash", 0.002),
        ("BNL", "rt-aofa", 0.001),
        ("LANL", "rt-albu", 0.001),
    ]
    for site, router, d in access:
        t.add_link(site, router, capacity_bps=10e9, delay_s=d)
    return t


#: Campus endpoints served by the Internet2-like R&E network.
I2_SITES = ("UMICH", "CALTECH", "UNL", "VANDERBILT")


def internet2_like() -> Topology:
    """A second R&E domain, for inter-domain (IDCP / DYNES) experiments.

    Internet2 serves the university campuses that DYNES connected for
    dynamic circuits (Section II).  The graph shares naming conventions
    with :func:`esnet_like` but is a distinct administrative domain with
    its own :class:`~repro.vc.oscars.OscarsIDC`; the IDCP chain stitches
    the two at an exchange point both domains model as a site
    (``"EXCHANGE"``), mirroring how MAN LAN / StarLight interconnects
    carry cross-domain circuits.
    """
    t = Topology()
    t.add_site("EXCHANGE")  # the inter-domain stitch point
    for site in I2_SITES:
        t.add_site(site)
    routers = ["i2-seat", "i2-salt", "i2-kans", "i2-chic", "i2-clev",
               "i2-newy", "i2-hous", "i2-atla"]
    for r in routers:
        t.add_router(r)
    backbone = [
        ("i2-seat", "i2-salt", 0.009),
        ("i2-salt", "i2-kans", 0.009),
        ("i2-kans", "i2-chic", 0.006),
        ("i2-chic", "i2-clev", 0.004),
        ("i2-clev", "i2-newy", 0.006),
        ("i2-kans", "i2-hous", 0.008),
        ("i2-hous", "i2-atla", 0.009),
        ("i2-atla", "i2-clev", 0.008),
    ]
    for u, v, d in backbone:
        t.add_link(u, v, capacity_bps=10e9, delay_s=d)
    access = [
        ("UMICH", "i2-chic", 0.002),
        ("CALTECH", "i2-salt", 0.008),
        ("UNL", "i2-kans", 0.002),
        ("VANDERBILT", "i2-atla", 0.003),
        ("EXCHANGE", "i2-chic", 0.001),
    ]
    for site, router, d in access:
        t.add_link(site, router, capacity_bps=10e9, delay_s=d)
    return t
