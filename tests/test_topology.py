"""Unit tests for the topology and routing modules."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net.routing import (
    ip_route,
    k_shortest_paths,
    least_congested_path,
    validate_explicit_route,
)
from repro.net.topology import SITES, Link, Topology, esnet_like, internet2_like


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

    @pytest.mark.parametrize("field, value", [
        ("capacity_bps", math.nan), ("capacity_bps", math.inf),
        ("capacity_bps", -1e9), ("delay_s", math.nan), ("delay_s", math.inf),
        ("delay_s", -0.001),
    ])
    def test_bad_link_value_names_its_field(self, field, value):
        # NaN passed the old `<= 0` test and then failed every comparison
        t = Topology()
        t.add_site("A")
        t.add_site("B")
        with pytest.raises(ValueError, match=field):
            t.add_link("A", "B", **{field: value})
        assert t.links() == [] and not t.has_link("A", "B")

    def test_self_link_rejected(self):
        t = Topology()
        t.add_site("A")
        with pytest.raises(ValueError, match="two distinct nodes"):
            t.add_link("A", "A")
        assert t.links() == []

    def test_relink_replaces_capacity_and_delay(self):
        t = Topology()
        for name in "ABC":
            t.add_site(name)
        t.add_link("A", "B", delay_s=0.001)
        t.add_link("B", "C", delay_s=0.001)
        t.add_link("A", "C", delay_s=0.010)
        assert t.path("A", "C") == ["A", "B", "C"]
        assert t.add_link("C", "A", capacity_bps=1e9, delay_s=0.001) == Link(
            "C", "A", 1e9, 0.001
        )
        assert t.path("A", "C") == ["A", "C"]  # the memo was emptied
        # the link keeps its place and orientation
        assert t.links() == [
            Link("A", "B", 10e9, 0.001),
            Link("A", "C", 1e9, 0.001),
            Link("B", "C", 10e9, 0.001),
        ]
        assert t.link_capacity(("A", "C")) == 1e9

    def test_has_link(self):
        t = esnet_like()
        assert t.has_link("NERSC", "rt-sunn") and t.has_link("rt-sunn", "NERSC")
        assert not t.has_link("NERSC", "ORNL")
        assert not t.has_link("NERSC", "FNAL") and not t.has_link("FNAL", "NERSC")

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


class TestRouteRefusals:
    def test_unknown_endpoint_is_named(self):
        t = esnet_like()
        for src, dst in (("NERSC", "FNAL"), ("FNAL", "NERSC")):
            with pytest.raises(KeyError, match="FNAL"):
                t.path(src, dst)
            with pytest.raises(KeyError, match="FNAL"):
                t.candidate_routes(src, dst, 3)

    def test_missing_route_names_both_ends(self):
        t = esnet_like()
        t.add_site("FNAL")  # no link yet
        with pytest.raises(ValueError, match="'NERSC' to 'FNAL'"):
            t.path("NERSC", "FNAL")
        with pytest.raises(ValueError, match="'FNAL' to 'NERSC'"):
            t.candidate_routes("FNAL", "NERSC", 3)
        t.add_link("FNAL", "rt-chic", delay_s=0.001)
        assert t.path("NERSC", "FNAL")[-2:] == ["rt-chic", "FNAL"]

    def test_route_to_itself_is_one_node(self):
        t = esnet_like()
        assert t.path("ANL", "ANL") == ["ANL"]
        assert t.candidate_routes("ANL", "ANL", 3) == ((("ANL",), (), ()),)


class TestTieRule:
    """Two routes of equal delay, A-B-D and A-C-D: the tie rule that
    ``Topology.path`` states (networkx promises no order here)."""

    @pytest.mark.parametrize("links, first", [
        ([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")], "B"),
        ([("A", "C"), ("A", "B"), ("C", "D"), ("B", "D")], "C"),
        # D is first reached from B, which A's links reach first
        ([("A", "B"), ("A", "C"), ("C", "D"), ("B", "D")], "B"),
    ])
    def test_equal_delay_routes_tie_by_insertion_order(self, links, first):
        t = Topology()
        for name in "ABCD":
            t.add_router(name)
        for u, v in links:
            t.add_link(u, v, delay_s=0.004)
        second = "C" if first == "B" else "B"
        assert t.path("A", "D") == ["A", first, "D"]
        assert [list(nodes) for nodes, _, _ in t.candidate_routes("A", "D", 3)] == [
            ["A", first, "D"], ["A", second, "D"],
        ]


# ---------------------------------------------------------------------------
# the route memo against per-call enumeration


def nx_graph(topology):
    """The route oracle's copy of a topology: an ``nx.Graph`` of its links."""
    graph = nx.Graph()
    for link in topology.links():
        graph.add_edge(
            link.u, link.v, capacity_bps=link.capacity_bps, delay_s=link.delay_s
        )
    return graph


def reference_k_shortest_paths(topology, src, dst, k):
    """Enumerate with networkx on every call, as routing did before the memo."""
    gen = nx.shortest_simple_paths(nx_graph(topology), src, dst, weight="delay_s")
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


@st.composite
def random_graph(draw):
    """A connected graph of up to 12 nodes, built twice by the same calls:
    as a ``Topology`` and as an ``nx.Graph``.  Nodes and links are added
    in drawn orders, links in either orientation, some twice (the second
    call replaces capacity and delay); delays are continuous."""
    n = draw(st.integers(min_value=2, max_value=12))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    tree = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    extra = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        extra.append((names[i], names[j + (j >= i)]))
    links = draw(st.permutations(tree + extra))
    delays = st.floats(min_value=1e-4, max_value=0.02)
    capacities = st.floats(min_value=1e6, max_value=1e11)
    topology, graph = Topology(), nx.Graph()
    for name in names:
        topology.add_router(name)
        graph.add_node(name)
    for u, v in links:
        cap, delay = draw(capacities), draw(delays)
        topology.add_link(u, v, capacity_bps=cap, delay_s=delay)
        graph.add_edge(u, v, capacity_bps=cap, delay_s=delay)
    src, dst = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    return topology, graph, src, dst, draw(st.integers(min_value=1, max_value=6))


class TestRoutesMatchNetworkx:
    @given(random_graph())
    @settings(max_examples=300, deadline=None)
    def test_random_graph_routes_match_networkx(self, case):
        topology, graph, src, dst, k = case
        want = list(itertools.islice(
            nx.shortest_simple_paths(graph, src, dst, weight="delay_s"), k + 1
        ))
        # routes of (near-)equal delay may come in either order
        delays = [nx.path_weight(graph, p, "delay_s") for p in want]
        assume(all(b > a * (1 + 1e-9) for a, b in zip(delays, delays[1:])))
        assert topology.path(src, dst) == nx.shortest_path(
            graph, src, dst, weight="delay_s"
        )
        assert [list(n) for n, _, _ in topology.candidate_routes(src, dst, k)] == (
            want[:k]
        )
        assert [(lk.u, lk.v, lk.capacity_bps, lk.delay_s) for lk in topology.links()] == [
            (u, v, d["capacity_bps"], d["delay_s"]) for u, v, d in graph.edges(data=True)
        ]

    @pytest.mark.parametrize("domain", ["esnet", "internet2"])
    def test_every_node_pair_matches_networkx(self, domain):
        topology = (esnet_like if domain == "esnet" else internet2_like)()
        graph = nx_graph(topology)
        for src, dst in itertools.permutations(graph, 2):
            want = list(itertools.islice(
                nx.shortest_simple_paths(graph, src, dst, weight="delay_s"), 8
            ))
            assert topology.path(src, dst) == want[0]
            for k in range(1, 9):
                got = [list(n) for n, _, _ in topology.candidate_routes(src, dst, k)]
                assert got == want[:k]
            for nodes in want:
                assert topology.path_rtt_s(nodes) == 2.0 * nx.path_weight(
                    graph, nodes, "delay_s"
                )


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
                nx_graph(topology), src, dst, weight="delay_s"
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
        k_shortest = Topology._k_shortest

        def counted(self, src, dst, k):
            enumerations.append((src, dst))
            return k_shortest(self, src, dst, k)

        monkeypatch.setattr(Topology, "_k_shortest", counted)
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
