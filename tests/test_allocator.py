"""Incremental allocator vs the max_min_fair oracle.

The contract pinned here: after ANY sequence of add_flow / remove_flow /
update_capacity / update_flow calls, the allocator's rates match a fresh
oracle solve of the same flow set within 1e-6 relative — and recompute()
touches only the connected component of the change.  The oracle shares
the allocator's scalar loop, so ``TestSolveArms`` checks that loop
against an independent NumPy kernel (``tests/oracles.py``), bit for bit.
"""

import copy
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.allocator as allocator_module
from repro.net.allocator import MaxMinAllocator
from repro.net.flows import FlowSpec, max_min_fair
from repro.sim.probe import SimProbe
from tests.oracles import component_closure, progressive_fill_reference


def oracle_rates(alloc: MaxMinAllocator) -> dict[int, float]:
    """Solve the allocator's current flow set with the reference oracle."""
    specs = [
        FlowSpec(
            flow_id=fid,
            links=alloc.flow_links(fid),
            demand_bps=alloc._flows[fid].demand_bps,
            weight=alloc._flows[fid].weight,
        )
        for fid in sorted(alloc._flows)
    ]
    caps = dict(alloc._cap)
    return max_min_fair(specs, caps)


def assert_matches_oracle(alloc: MaxMinAllocator, rel=1e-6):
    alloc.recompute()
    expected = oracle_rates(alloc)
    got = alloc.rates()
    assert set(got) == set(expected)
    for fid, want in expected.items():
        if math.isinf(want):
            assert math.isinf(got[fid])
        else:
            assert got[fid] == pytest.approx(want, rel=rel, abs=1e-3)


class TestBasics:
    def test_empty_recompute_is_noop(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        assert alloc.recompute() == {}
        assert not alloc.dirty

    def test_single_flow_gets_capacity(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.add_flow(1, [("a", "b")])
        changed = alloc.recompute()
        assert changed == {1: pytest.approx(10.0)}
        assert alloc.rate(1) == pytest.approx(10.0)

    def test_demand_cap_binds(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.add_flow(1, [("a", "b")], demand_bps=3.0)
        alloc.recompute()
        assert alloc.rate(1) == pytest.approx(3.0)

    def test_weighted_split_matches_oracle(self):
        alloc = MaxMinAllocator({("a", "b"): 9.0})
        alloc.add_flow(1, [("a", "b")], weight=1.0)
        alloc.add_flow(2, [("a", "b")], weight=2.0)
        assert_matches_oracle(alloc)
        assert alloc.rate(2) == pytest.approx(2 * alloc.rate(1))

    def test_no_links_unbounded_demand_is_inf(self):
        alloc = MaxMinAllocator()
        alloc.add_flow(1, [])
        alloc.recompute()
        assert math.isinf(alloc.rate(1))

    def test_zero_capacity_zero_rate(self):
        alloc = MaxMinAllocator({("a", "b"): 0.0})
        alloc.add_flow(1, [("a", "b")])
        alloc.recompute()
        assert alloc.rate(1) == 0.0


class TestValidation:
    def test_unknown_link_rejected(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        with pytest.raises(KeyError):
            alloc.add_flow(1, [("x", "y")])

    def test_duplicate_flow_rejected(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.add_flow(1, [("a", "b")])
        with pytest.raises(ValueError):
            alloc.add_flow(1, [("a", "b")])

    def test_remove_unknown_flow_raises(self):
        alloc = MaxMinAllocator()
        with pytest.raises(KeyError):
            alloc.remove_flow(99)

    def test_negative_capacity_rejected(self):
        alloc = MaxMinAllocator()
        with pytest.raises(ValueError):
            alloc.update_capacity(("a", "b"), -1.0)

    def test_bad_weight_and_demand_rejected(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        for weight in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                alloc.add_flow(1, [("a", "b")], weight=weight)
        for demand in (-1.0, math.nan):
            with pytest.raises(ValueError):
                alloc.add_flow(1, [("a", "b")], demand_bps=demand)
        assert 1 not in alloc

    def test_rate_of_unknown_flow_raises(self):
        alloc = MaxMinAllocator()
        with pytest.raises(KeyError):
            alloc.rate(7)

    @pytest.mark.parametrize("capacity", [math.inf, math.nan])
    def test_non_finite_capacity_rejected(self, capacity):
        alloc = MaxMinAllocator()
        with pytest.raises(ValueError):
            alloc.update_capacity(("a", "b"), capacity)
        with pytest.raises(ValueError):
            MaxMinAllocator({("a", "b"): capacity})

    def test_non_finite_update_rejected_before_any_change(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0, ("c", "d"): 10.0})
        alloc.add_flow(1, [("a", "b")])
        alloc.recompute()
        with pytest.raises(ValueError):
            alloc.update_flow(1, demand_bps=math.nan)
        with pytest.raises(ValueError):
            alloc.update_flow(1, links=[("c", "d")], weight=math.inf)
        assert not alloc.dirty
        assert alloc.flow_links(1) == (("a", "b"),)


class TestIncrementality:
    def test_clean_recompute_returns_empty(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.add_flow(1, [("a", "b")])
        alloc.recompute()
        assert alloc.recompute() == {}

    def test_disjoint_component_untouched(self):
        """A change in one component must not re-solve the other."""
        probe = SimProbe()
        alloc = MaxMinAllocator({("a", "b"): 10.0, ("c", "d"): 4.0}, probe=probe)
        alloc.add_flow(1, [("a", "b")])
        alloc.add_flow(2, [("c", "d")])
        alloc.recompute()
        # change only the (c, d) side: the touched set is exactly flow 2
        alloc.update_capacity(("c", "d"), 6.0)
        changed = alloc.recompute()
        assert set(changed) == {2}
        assert changed[2] == pytest.approx(6.0)
        assert alloc.rate(1) == pytest.approx(10.0)
        assert probe.max_flows_touched == 2  # the initial joint add
        assert probe.n_flows_touched == 3  # 2 (initial) + 1 (the update)

    def test_component_closure_through_shared_links(self):
        """Dirtying one flow re-solves everything transitively coupled."""
        caps = {("a", "b"): 10.0, ("b", "c"): 10.0, ("c", "d"): 10.0}
        alloc = MaxMinAllocator(caps)
        alloc.add_flow(1, [("a", "b"), ("b", "c")])
        alloc.add_flow(2, [("b", "c"), ("c", "d")])
        alloc.add_flow(3, [("c", "d")])
        alloc.recompute()
        # removing flow 1 frees (b, c); flows 2 and 3 are both in the closure
        alloc.remove_flow(1)
        changed = alloc.recompute()
        assert set(changed) == {2, 3}
        assert_matches_oracle(alloc)

    def test_capacity_update_without_flows_stays_clean(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.update_capacity(("a", "b"), 5.0)
        assert not alloc.dirty

    def test_noop_capacity_update_stays_clean(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.add_flow(1, [("a", "b")])
        alloc.recompute()
        alloc.update_capacity(("a", "b"), 10.0)
        assert not alloc.dirty

    def test_update_flow_dirties_old_and_new_links(self):
        caps = {("a", "b"): 10.0, ("c", "d"): 10.0}
        alloc = MaxMinAllocator(caps)
        alloc.add_flow(1, [("a", "b")])
        alloc.add_flow(2, [("a", "b")])
        alloc.add_flow(3, [("c", "d")])
        alloc.recompute()
        alloc.update_flow(1, links=[("c", "d")])
        changed = alloc.recompute()
        # old neighbour (2) gains headroom; new neighbour (3) loses it
        assert set(changed) == {1, 2, 3}
        assert_matches_oracle(alloc)

    def test_unbounded_component_raises(self):
        alloc = MaxMinAllocator({("a", "b"): 10.0})
        alloc.add_flow(1, [("a", "b")])
        alloc.add_flow(2, [])  # no links, no demand: unbounded
        alloc.add_flow(3, [("a", "b")])
        alloc.recompute()  # flow 2 is its own component: rate inf, fine
        assert math.isinf(alloc.rate(2))
        assert_matches_oracle(alloc)


def random_sequence(alloc: MaxMinAllocator, rng: np.random.Generator, n_ops: int,
                    links: list[tuple[str, str]]) -> None:
    """Apply a random mutation sequence, recomputing at random points."""

    def random_links():
        k = int(rng.integers(1, min(4, len(links)) + 1))
        idx = rng.choice(len(links), size=k, replace=False)
        return [links[int(i)] for i in idx]

    for _ in range(n_ops):
        op = rng.random()
        fids = list(alloc._flows)
        if op < 0.35 or not fids:
            demand = float(rng.choice([math.inf, rng.uniform(0.5, 20.0)]))
            weight = float(rng.choice([1.0, 2.0, 4.0, 8.0]))
            fid = max(alloc._flows, default=999) + 1
            alloc.add_flow(fid, random_links(), demand_bps=demand,
                           weight=weight)
        elif op < 0.55:
            alloc.remove_flow(int(rng.choice(fids)))
        elif op < 0.75:
            key = links[int(rng.integers(0, len(links)))]
            alloc.update_capacity(key, float(rng.uniform(0.0, 30.0)))
        elif op < 0.9:
            fid = int(rng.choice(fids))
            alloc.update_flow(fid, demand_bps=float(rng.uniform(0.5, 25.0)))
        else:
            fid = int(rng.choice(fids))
            alloc.update_flow(fid, links=random_links())
        if rng.random() < 0.4:
            alloc.recompute()


@pytest.mark.parametrize("seed", range(8))
def test_randomized_sequences_match_oracle(seed):
    """Seeded random add/remove/capacity churn: rates track the oracle."""
    rng = np.random.default_rng(seed)
    links = [(f"n{i}", f"n{i + 1}") for i in range(6)]
    caps = {key: float(rng.uniform(5.0, 25.0)) for key in links}
    alloc = MaxMinAllocator(caps)
    for checkpoint in range(5):
        random_sequence(alloc, rng, n_ops=12, links=links)
        assert_matches_oracle(alloc)


@pytest.mark.parametrize("seed", [100, 101])
def test_randomized_vs_full_recompute(seed):
    """Incremental recompute equals a forced full recompute, bit for bit."""
    rng = np.random.default_rng(seed)
    links = [(f"n{i}", f"n{i + 1}") for i in range(5)]
    caps = {key: float(rng.uniform(5.0, 25.0)) for key in links}
    alloc = MaxMinAllocator(caps)
    random_sequence(alloc, rng, n_ops=30, links=links)
    alloc.recompute()
    incremental = alloc.rates()
    alloc.full_recompute()
    assert alloc.rates() == pytest.approx(incremental, rel=1e-9)


def test_matches_oracle_bitwise_on_chain():
    """Same arithmetic order as the oracle: exact equality, not approx."""
    caps = {(f"n{i}", f"n{i + 1}"): 10.0 + i for i in range(8)}
    links = list(caps)
    alloc = MaxMinAllocator(caps)
    specs = []
    for fid in range(12):
        flow_links = tuple(links[fid % 4 : fid % 4 + 3])
        demand = math.inf if fid % 3 else 4.0 + fid
        weight = float(1 + fid % 4)
        alloc.add_flow(fid, flow_links, demand_bps=demand, weight=weight)
        specs.append(
            FlowSpec(flow_id=fid, links=flow_links, demand_bps=demand,
                     weight=weight)
        )
    got = alloc.recompute()
    want = max_min_fair(specs, dict(caps))
    assert got == want  # exact, including every last bit


# -- level-frontier bound ----------------------------------------------------


class ComponentAllocator(MaxMinAllocator):
    """Re-solves the whole connected component of each change: the
    level-frontier bound switched off, as a baseline."""

    def recompute(self) -> dict[int, float]:
        fids = sorted(component_closure(self))
        self._dirty_flows.clear()
        self._dirty_links.clear()
        self._entry = math.inf
        return self._solve(fids) if fids else {}


def _clustered(rng, n_clusters=6, flows_per=8):
    """Disjoint chain clusters bridged by one shared backbone link.

    Every flow crosses the backbone, so the whole population is ONE
    connected component — the worst case for component-closure dirty
    sets, and exactly where the level-frontier bound has to earn its
    keep.
    """
    caps = {("b0", "b1"): 1e10}
    for c in range(n_clusters):
        for i in range(3):
            caps[(f"c{c}n{i}", f"c{c}n{i + 1}")] = float(
                rng.uniform(1e9, 5e9)
            )
    alloc = MaxMinAllocator(caps)
    fid = 0
    for c in range(n_clusters):
        for _ in range(flows_per):
            start = int(rng.integers(0, 3))
            length = int(rng.integers(1, 4 - start))
            links = [("b0", "b1")] + [
                (f"c{c}n{i}", f"c{c}n{i + 1}")
                for i in range(start, start + length)
            ]
            alloc.add_flow(
                fid,
                links,
                demand_bps=float(rng.choice([math.inf, rng.uniform(1e8, 4e9)])),
                weight=float(rng.choice([1.0, 2.0, 4.0])),
            )
            fid += 1
    alloc.recompute()
    return alloc


class TestLevelFrontier:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_perturbations_match_oracle(self, seed):
        """Frontier-bounded re-solves track the oracle through churn."""
        rng = np.random.default_rng(200 + seed)
        alloc = _clustered(rng)
        for _ in range(15):
            fids = sorted(alloc._flows)
            op = rng.random()
            if op < 0.3:
                alloc.remove_flow(int(rng.choice(fids)))
            elif op < 0.6:
                new = max(fids) + 1
                c = int(rng.integers(0, 6))
                alloc.add_flow(
                    new,
                    [("b0", "b1"), (f"c{c}n0", f"c{c}n1")],
                    demand_bps=float(rng.uniform(1e8, 4e9)),
                    weight=2.0,
                )
            elif op < 0.8:
                alloc.update_flow(
                    int(rng.choice(fids)),
                    demand_bps=float(rng.uniform(1e8, 4e9)),
                )
            else:
                c = int(rng.integers(0, 6))
                alloc.update_capacity(
                    (f"c{c}n0", f"c{c}n1"), float(rng.uniform(1e9, 5e9))
                )
            assert_matches_oracle(alloc)

    def test_clean_build_is_bit_exact_vs_oracle(self):
        """A from-scratch solve replays the oracle's exact arithmetic:
        the allocator numbers the links in the oracle's order."""
        rng = np.random.default_rng(42)
        caps = {(f"n{i}", f"n{i + 1}"): float(rng.uniform(5.0, 25.0))
                for i in range(8)}
        links = list(caps)
        for n_flows in (20, 256):
            alloc = MaxMinAllocator(caps)
            specs = []
            for fid in range(n_flows):
                k = int(rng.integers(1, 4))
                start = int(rng.integers(0, len(links) - k))
                flow_links = tuple(links[start:start + k])
                demand = float(rng.choice([math.inf, rng.uniform(0.5, 20.0)]))
                weight = float(rng.choice([1.0, 2.0, 4.0]))
                alloc.add_flow(fid, flow_links, demand_bps=demand, weight=weight)
                specs.append(FlowSpec(flow_id=fid, links=flow_links,
                                      demand_bps=demand, weight=weight))
            assert alloc.recompute() == max_min_fair(specs, dict(caps))

    def test_frontier_matches_component_resolve(self):
        """Through churn, each frontier stays inside the connected
        component of the change, and re-solving the whole component
        instead (the bound switched off) ends at the same rates."""
        rng = np.random.default_rng(7)
        caps = {(f"n{i}", f"n{i + 1}"): float(rng.uniform(5.0, 25.0))
                for i in range(6)}
        frontier = MaxMinAllocator(dict(caps))
        component = ComponentAllocator(dict(caps))
        recompute = frontier.recompute

        def checked_recompute():
            closure = component_closure(frontier)
            changed = recompute()
            assert changed.keys() <= closure
            return changed

        frontier.recompute = checked_recompute
        links = list(caps)
        for alloc in (frontier, component):
            r = np.random.default_rng(7)  # identical sequences
            random_sequence(alloc, r, n_ops=40, links=links)
            alloc.recompute()
        assert frontier.rates() == pytest.approx(component.rates(), rel=1e-6, abs=1e-3)

    def test_single_flow_perturbation_touches_less_than_component(self):
        """The frontier is strictly smaller than the connected component.

        One shared backbone link makes all 48 flows one component; a
        demand tweak on one low-level flow must re-solve only flows at
        or above its level, not the whole population.
        """
        rng = np.random.default_rng(3)
        probe = SimProbe()
        alloc = _clustered(rng)
        alloc.probe = probe
        # perturb one finite-demand flow's demand slightly downward —
        # only levels >= its own can move
        victim = next(
            fid for fid in sorted(alloc._flows)
            if math.isfinite(alloc._flows[fid].demand_bps)
        )
        alloc.update_flow(
            victim, demand_bps=alloc._flows[victim].demand_bps * 0.9
        )
        component = component_closure(alloc)
        alloc.recompute()
        assert probe.n_alloc_passes == 1
        assert component == alloc._flows.keys()
        assert 0 < probe.n_flows_touched < len(component)
        assert_matches_oracle(alloc)

    def test_capacity_increase_of_unsaturated_link_is_free(self):
        """Raising headroom nobody uses re-solves zero flows."""
        caps = {("a", "b"): 10.0, ("b", "c"): 100.0}
        probe = SimProbe()
        alloc = MaxMinAllocator(caps, probe=probe)
        alloc.add_flow(1, [("a", "b"), ("b", "c")])
        alloc.add_flow(2, [("a", "b")])
        alloc.recompute()
        before = probe.n_flows_touched
        # (b,c) carried 5.0 of 100.0: recorded unsaturated, so growing
        # it cannot move any freeze level
        alloc.update_capacity(("b", "c"), 200.0)
        alloc.recompute()
        assert probe.n_flows_touched == before
        assert_matches_oracle(alloc)


# -- the filling loop against the NumPy reference ---------------------------


@st.composite
def allocator_churn(draw):
    """A solved allocator's flow set plus perturbations for a re-solve.

    Frontiers hold up to 256 flows.  Links may have zero capacity,
    demands may be infinite, flows may have no links, and the re-solve
    leaves frozen flows outside its frontier, so residual capacities are
    exercised.
    """
    n_links = draw(st.integers(1, 10))
    caps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e6, 1e10)),
        min_size=n_links, max_size=n_links,
    ))
    n_flows = draw(st.integers(1, 256))
    flows = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, n_links - 1), max_size=4, unique=True),
            st.one_of(st.just(math.inf), st.floats(0.0, 5e9)),
            # stream counts sum exactly; fractional weights make the
            # per-link sums depend on their order too
            st.one_of(st.sampled_from([1.0, 2.0, 4.0, 8.0]), st.floats(0.1, 16.0)),
        ),
        min_size=n_flows, max_size=n_flows,
    ))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["remove", "demand", "capacity"]),
            st.integers(0, 10**6),
            st.one_of(st.just(0.0), st.floats(1e6, 1e10)),
        ),
        min_size=1, max_size=6,
    ))
    subset = draw(st.lists(st.booleans(), min_size=n_flows, max_size=n_flows))
    return caps, flows, ops, subset


def _solve_both_arms(alloc: MaxMinAllocator, fids=None) -> MaxMinAllocator:
    """Solve a copy with the filling loop and one with the NumPy
    reference in its place; assert identical records.

    ``fids=None`` recomputes the pending frontier; a list of flow ids
    re-solves exactly those against the rest, frozen.
    """
    scalar, vector = copy.deepcopy(alloc), copy.deepcopy(alloc)
    got_scalar = scalar.recompute() if fids is None else scalar._solve(fids)
    with mock.patch.object(
        allocator_module, "_progressive_fill", progressive_fill_reference
    ):
        got_vector = vector.recompute() if fids is None else vector._solve(fids)
    assert got_scalar == got_vector
    assert scalar._rates == vector._rates
    assert scalar._levels == vector._levels
    assert scalar._link_sat == vector._link_sat
    assert scalar._link_headroom == vector._link_headroom
    return scalar


class TestSolveArms:
    """The scalar loop and the NumPy reference agree to the last bit."""

    @given(allocator_churn())
    @settings(max_examples=50, deadline=None)
    def test_scalar_loop_matches_numpy_kernel(self, churn):
        caps, flows, ops, subset = churn
        keys = [(f"n{i}", f"n{i + 1}") for i in range(len(caps))]
        alloc = MaxMinAllocator(dict(zip(keys, caps)))
        for fid, (links, demand, weight) in enumerate(flows):
            alloc.add_flow(fid, [keys[k] for k in links],
                           demand_bps=demand, weight=weight)
        alloc = _solve_both_arms(alloc)  # clean build: every flow
        # a drawn subset against the others, frozen at their rates
        _solve_both_arms(alloc, [fid for fid, keep in enumerate(subset) if keep])
        for op, pick, value in ops:
            fids = sorted(alloc._flows)
            if op == "capacity":
                alloc.update_capacity(keys[pick % len(keys)], value)
            elif not fids:
                continue
            elif op == "remove":
                alloc.remove_flow(fids[pick % len(fids)])
            else:
                alloc.update_flow(fids[pick % len(fids)], demand_bps=value)
        _solve_both_arms(alloc)  # the frontier the perturbations leave


# -- running per-link weight totals ------------------------------------------


#: stream counts times stripes: every partial sum is an exact float
INTEGER_WEIGHTS = st.integers(1, 2**20).map(float)
#: forty orders of magnitude: naive add/subtract loses the small ones
MIXED_WEIGHTS = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(1.0, 9.999),
    st.integers(-20, 19),
)


@st.composite
def weight_churn(draw, weights):
    """Random mutation sequences over a few links; drawn link lists may
    repeat a link, which a flow still crosses once."""
    n_links = draw(st.integers(1, 5))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "add", "remove", "weight", "links", "both", "demand", "capacity"]
            ),
            st.integers(0, 10**6),
            st.lists(st.integers(0, n_links - 1), max_size=4),
            weights,
        ),
        min_size=1, max_size=40,
    ))
    return n_links, ops


def _churn_link_totals(n_links, ops, check):
    keys = [(f"n{i}", f"n{i + 1}") for i in range(n_links)]
    alloc = MaxMinAllocator({key: 10.0 for key in keys})
    next_fid = 0
    for op, pick, links, weight in ops:
        path = [keys[k] for k in links]
        fids = sorted(alloc._flows)
        if op == "add" or not fids:
            alloc.add_flow(next_fid, path, demand_bps=5.0, weight=weight)
            next_fid += 1
        elif op == "capacity":
            alloc.update_capacity(keys[pick % n_links], float(pick % 20))
        else:
            fid = fids[pick % len(fids)]
            if op == "remove":
                alloc.remove_flow(fid)
            elif op == "weight":
                alloc.update_flow(fid, weight=weight)
            elif op == "links":
                alloc.update_flow(fid, links=path)
            elif op == "both":
                alloc.update_flow(fid, links=path, weight=weight)
            else:
                alloc.update_flow(fid, demand_bps=float(pick % 7))
        # an emptied link leaves no entry, and every occupied link has one
        assert alloc._link_w.keys() == alloc._link_flows.keys()
        for key, peers in alloc._link_flows.items():
            assert peers
            check(alloc._link_w[key], [alloc._flows[fid].weight for fid in peers])


class TestRunningLinkWeights:
    """``add_flow``'s entry bound reads a running per-link weight total
    instead of re-summing the link's flows on every call."""

    @given(weight_churn(INTEGER_WEIGHTS))
    @settings(max_examples=150, deadline=None)
    def test_integer_weights_total_exactly(self, churn):
        def check(total, weights):
            assert total == sum(weights)

        _churn_link_totals(*churn, check)

    @given(weight_churn(MIXED_WEIGHTS))
    @settings(max_examples=150, deadline=None)
    def test_mixed_weights_never_under_count(self, churn):
        # a total at or above the true one keeps cap / (W + w) a lower
        # bound on the level where a new flow can first bite
        def check(total, weights):
            assert Fraction(total) >= sum(map(Fraction, weights))

        _churn_link_totals(*churn, check)

    def test_small_weight_survives_its_large_peer(self):
        alloc = MaxMinAllocator({("a", "b"): 1.0})
        alloc.add_flow(0, [("a", "b")], weight=1e20)
        alloc.add_flow(1, [("a", "b")], weight=1.0)
        alloc.remove_flow(0)
        # 1e20 + 1.0 - 1e20 is 0.0 in plain float arithmetic
        assert alloc._link_w[("a", "b")] >= 1.0
        alloc.remove_flow(1)
        assert alloc._link_w == {}
