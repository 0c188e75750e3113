"""Path selection: IP-routed defaults and VC-style explicit routes.

With IP-routed service the provider has little control over the path — it
is whatever BGP/IGP yields, modeled here as the minimum-delay path.  A
virtual-circuit setup, by contrast, may *choose* the path: OSCARS picks
one based on current reservations (Section I, positive #2).  This module
supplies both: the default route, k-alternative simple paths, and a
least-congested choice given per-link committed bandwidth.  Candidate
paths come from the topology's route memo, enumerated once per graph
state (:meth:`~repro.net.topology.Topology.candidate_routes`).
"""

from __future__ import annotations

from collections.abc import Mapping

from .topology import Topology

__all__ = [
    "ip_route",
    "validate_explicit_route",
    "k_shortest_paths",
    "least_congested_path",
]


def ip_route(topology: Topology, src: str, dst: str) -> list[str]:
    """The IP-routed (minimum propagation delay) path between two sites."""
    return topology.path(src, dst)


def validate_explicit_route(topology: Topology, nodes: list[str]) -> list[str]:
    """Check an explicit route exists edge-by-edge; returns it unchanged.

    Raises ``ValueError`` on a gap, a repeated node (loops are never valid
    circuits), or a route shorter than two nodes.
    """
    if len(nodes) < 2:
        raise ValueError("a route needs at least two nodes")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"route revisits a node: {nodes}")
    for u, v in zip(nodes[:-1], nodes[1:]):
        if not topology.has_link(u, v):
            raise ValueError(f"no link {u!r} -- {v!r} in topology")
    return nodes


def k_shortest_paths(
    topology: Topology, src: str, dst: str, k: int = 3
) -> list[list[str]]:
    """Up to ``k`` loop-free paths in increasing propagation delay."""
    return [list(nodes) for nodes, _, _ in topology.candidate_routes(src, dst, k)]


def least_congested_path(
    topology: Topology,
    src: str,
    dst: str,
    committed_bps: Mapping[tuple[str, str], float],
    k: int = 4,
) -> list[str]:
    """Among ``k`` candidate paths, the one with the most bottleneck headroom.

    ``committed_bps`` maps link keys to bandwidth already reserved (by
    standing VCs).  Ties break toward the shorter (earlier-enumerated)
    path, so an uncongested network falls back to the IP route.
    """
    if src == dst:
        raise ValueError(f"a circuit needs two distinct endpoints, got {src!r} twice")
    best_path: tuple[str, ...] | None = None
    best_headroom = -1.0
    for nodes, keys, caps in topology.candidate_routes(src, dst, k):
        headroom = min(
            cap - committed_bps.get(key, 0.0) for key, cap in zip(keys, caps)
        )
        if headroom > best_headroom:
            best_headroom = headroom
            best_path = nodes
    assert best_path is not None  # k >= 1 and graph is connected
    return list(best_path)
