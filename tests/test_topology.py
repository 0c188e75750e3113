"""Unit tests for the topology and routing modules."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.routing import (
    ip_route,
    k_shortest_paths,
    least_congested_path,
    validate_explicit_route,
)
from repro.net.topology import SITES, Topology, esnet_like, internet2_like


class TestTopologyConstruction:
    def test_add_site_assigns_sequential_ids(self):
        t = Topology()
        assert t.add_site("A") == 0
        assert t.add_site("B") == 1
        assert t.host_id("B") == 1
        assert t.site_of(0) == "A"

    def test_duplicate_site_rejected(self):
        t = Topology()
        t.add_site("A")
        with pytest.raises(ValueError):
            t.add_site("A")

    def test_duplicate_router_rejected(self):
        t = Topology()
        t.add_router("r")
        with pytest.raises(ValueError):
            t.add_router("r")

    def test_link_to_unknown_node(self):
        t = Topology()
        t.add_site("A")
        with pytest.raises(KeyError):
            t.add_link("A", "B")

    def test_bad_capacity(self):
        t = Topology()
        t.add_site("A")
        t.add_site("B")
        with pytest.raises(ValueError):
            t.add_link("A", "B", capacity_bps=0)

    def test_unknown_host_id(self):
        with pytest.raises(KeyError):
            Topology().site_of(3)


class TestEsnetLike:
    def test_all_sites_present(self):
        t = esnet_like()
        assert set(SITES) <= set(t.sites)

    def test_site_ids_match_order(self):
        t = esnet_like()
        for i, s in enumerate(SITES):
            assert t.host_id(s) == i

    def test_slac_bnl_rtt_regime(self):
        """SLAC--BNL should be a long path, near the paper's 80 ms."""
        t = esnet_like()
        rtt = t.rtt_between("SLAC", "BNL")
        assert 0.05 < rtt < 0.10

    def test_ncar_nics_shorter_than_slac_bnl(self):
        t = esnet_like()
        assert t.rtt_between("NCAR", "NICS") < t.rtt_between("SLAC", "BNL")

    def test_all_links_10g(self):
        t = esnet_like()
        assert all(link.capacity_bps == 10e9 for link in t.links())

    def test_path_endpoints(self):
        t = esnet_like()
        p = t.path("NERSC", "ORNL")
        assert p[0] == "NERSC" and p[-1] == "ORNL"

    def test_path_links_canonical(self):
        t = esnet_like()
        for u, v in t.path_links(t.path("NERSC", "ORNL")):
            assert u <= v

    def test_bottleneck(self):
        t = esnet_like()
        assert t.path_bottleneck_bps(t.path("SLAC", "BNL")) == 10e9

    def test_link_key_property(self):
        t = esnet_like()
        link = t.links()[0]
        assert link.key == tuple(sorted((link.u, link.v)))


class TestRouting:
    def test_ip_route_is_min_delay(self):
        t = esnet_like()
        route = ip_route(t, "NERSC", "ORNL")
        for alt in k_shortest_paths(t, "NERSC", "ORNL", k=3):
            assert t.path_rtt_s(route) <= t.path_rtt_s(alt) + 1e-12

    def test_k_shortest_ordered(self):
        t = esnet_like()
        paths = k_shortest_paths(t, "NERSC", "BNL", k=3)
        rtts = [t.path_rtt_s(p) for p in paths]
        assert rtts == sorted(rtts)
        assert len(paths) == 3

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_shortest_paths(esnet_like(), "NERSC", "BNL", k=0)

    def test_validate_explicit_route_ok(self):
        t = esnet_like()
        p = t.path("NERSC", "ORNL")
        assert validate_explicit_route(t, p) == p

    def test_validate_rejects_gap(self):
        t = esnet_like()
        with pytest.raises(ValueError):
            validate_explicit_route(t, ["NERSC", "ORNL"])

    def test_validate_rejects_loop(self):
        t = esnet_like()
        p = t.path("NERSC", "ORNL")
        with pytest.raises(ValueError):
            validate_explicit_route(t, p + [p[-2], p[-1]])

    def test_validate_rejects_short(self):
        with pytest.raises(ValueError):
            validate_explicit_route(esnet_like(), ["NERSC"])

    def test_least_congested_avoids_reserved_path(self):
        t = esnet_like()
        default = ip_route(t, "NERSC", "ORNL")
        # saturate the default path's backbone links (access links are
        # shared by every alternative, so committing them proves nothing)
        committed = {
            key: 9.9e9
            for key in t.path_links(default)
            if key[0].startswith("rt-") and key[1].startswith("rt-")
        }
        chosen = least_congested_path(t, "NERSC", "ORNL", committed)
        assert chosen != default

    def test_least_congested_defaults_to_ip_route(self):
        t = esnet_like()
        assert least_congested_path(t, "NERSC", "ORNL", {}) == ip_route(
            t, "NERSC", "ORNL"
        )

    def test_least_congested_refuses_one_endpoint(self):
        with pytest.raises(ValueError, match="two distinct endpoints"):
            least_congested_path(esnet_like(), "ANL", "ANL", {})


# ---------------------------------------------------------------------------
# the route memo against per-call enumeration


def reference_k_shortest_paths(topology, src, dst, k):
    """Enumerate with networkx on every call, as routing did before the memo."""
    gen = nx.shortest_simple_paths(topology.graph, src, dst, weight="delay_s")
    return list(itertools.islice(gen, k))


def reference_least_congested_path(topology, src, dst, committed_bps, k=4):
    best_path = None
    best_headroom = -1.0
    for path in reference_k_shortest_paths(topology, src, dst, k):
        keys = topology.path_links(path)
        headroom = min(
            topology.link_capacity(key) - committed_bps.get(key, 0.0) for key in keys
        )
        if headroom > best_headroom:
            best_headroom = headroom
            best_path = path
    return best_path


_DOMAINS = {"esnet": esnet_like(), "internet2": internet2_like()}
#: a few levels shared by many links, so headrooms tie across candidates
_LEVELS = [0.0, 1e9, 2.5e9, 5e9, 9.9e9, 10e9]


def _site_pairs(topology):
    return list(itertools.permutations(topology.sites, 2))


@st.composite
def routing_query(draw):
    topology = _DOMAINS[draw(st.sampled_from(sorted(_DOMAINS)))]
    src, dst = draw(st.sampled_from(_site_pairs(topology)))
    k = draw(st.integers(min_value=1, max_value=5))
    keys = sorted(link.key for link in topology.links())
    levels = st.sampled_from(_LEVELS) | st.floats(min_value=0.0, max_value=10e9)
    committed = draw(st.dictionaries(st.sampled_from(keys), levels, max_size=12))
    return topology, src, dst, k, committed


class TestRouteMemo:
    @pytest.mark.parametrize("domain", sorted(_DOMAINS))
    def test_every_site_pair_matches_per_call_enumeration(self, domain):
        topology = _DOMAINS[domain]
        for src, dst in _site_pairs(topology):
            default = reference_k_shortest_paths(topology, src, dst, 1)[0]
            # every candidate's first hop fully committed: all headrooms tie
            tied = {key: 10e9 for key in topology.path_links(default)[:1]}
            # largest k first: a memo that confused k would answer a
            # smaller k with more paths
            for k in range(5, 0, -1):
                assert k_shortest_paths(topology, src, dst, k) == (
                    reference_k_shortest_paths(topology, src, dst, k)
                )
                for committed in ({}, tied):
                    assert least_congested_path(
                        topology, src, dst, committed, k
                    ) == reference_least_congested_path(
                        topology, src, dst, committed, k
                    )
            assert topology.path(src, dst) == nx.shortest_path(
                topology.graph, src, dst, weight="delay_s"
            )

    @given(routing_query())
    @settings(max_examples=200, deadline=None)
    def test_least_congested_matches_per_call_enumeration(self, query):
        topology, src, dst, k, committed = query
        assert k_shortest_paths(topology, src, dst, k) == (
            reference_k_shortest_paths(topology, src, dst, k)
        )
        assert least_congested_path(
            topology, src, dst, committed, k
        ) == reference_least_congested_path(topology, src, dst, committed, k)

    @pytest.mark.parametrize("change", ["add_link", "add_site", "add_router"])
    def test_graph_change_empties_the_memo(self, change, monkeypatch):
        def grow(t):
            if change == "add_link":
                # a fast transcontinental shortcut reroutes NERSC -> BNL
                t.add_link("rt-sunn", "rt-aofa", delay_s=0.001)
            elif change == "add_site":
                t.add_site("FNAL")
            else:
                t.add_router("rt-bois")

        def answers(t):
            return (
                t.path("NERSC", "BNL"),
                k_shortest_paths(t, "NERSC", "BNL", 4),
                least_congested_path(t, "NERSC", "BNL", {}),
            )

        enumerations = []
        simple_paths = nx.shortest_simple_paths

        def counted(*args, **kwargs):
            enumerations.append(args[1:3])
            return simple_paths(*args, **kwargs)

        monkeypatch.setattr(nx, "shortest_simple_paths", counted)
        topology = esnet_like()
        before = answers(topology)
        answers(topology)
        assert len(enumerations) == 1  # k=4 asked twice: one enumeration
        grow(topology)
        after = answers(topology)
        assert len(enumerations) == 2
        fresh = esnet_like()
        grow(fresh)
        assert after == answers(fresh)
        assert (after != before) == (change == "add_link")

    def test_callers_own_their_paths(self):
        topology = esnet_like()
        route = topology.path("NERSC", "BNL")
        chosen = least_congested_path(topology, "NERSC", "BNL", {})
        paths = k_shortest_paths(topology, "NERSC", "BNL", 3)
        want = (list(route), list(chosen), [list(p) for p in paths])
        route.append("junk")
        chosen.reverse()
        paths[0].clear()
        paths.pop()
        assert (
            topology.path("NERSC", "BNL"),
            least_congested_path(topology, "NERSC", "BNL", {}),
            k_shortest_paths(topology, "NERSC", "BNL", 3),
        ) == want
