"""Unit and property tests for the max-min fair allocator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flows import FlowSpec, max_min_fair

L1 = ("a", "b")
L2 = ("b", "c")


class TestBasics:
    def test_single_flow_takes_link(self):
        rates = max_min_fair([FlowSpec(0, (L1,))], {L1: 10.0})
        assert rates[0] == pytest.approx(10.0)

    def test_equal_split(self):
        flows = [FlowSpec(i, (L1,)) for i in range(4)]
        rates = max_min_fair(flows, {L1: 8.0})
        assert all(rates[i] == pytest.approx(2.0) for i in range(4))

    def test_demand_cap_respected(self):
        flows = [FlowSpec(0, (L1,), demand_bps=1.0), FlowSpec(1, (L1,))]
        rates = max_min_fair(flows, {L1: 10.0})
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(9.0)

    def test_weighted_split(self):
        flows = [FlowSpec(0, (L1,), weight=1.0), FlowSpec(1, (L1,), weight=3.0)]
        rates = max_min_fair(flows, {L1: 8.0})
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(6.0)

    def test_classic_three_flow_example(self):
        """Textbook max-min: flows (A on L1), (B on L2), (C on L1+L2)."""
        flows = [
            FlowSpec(0, (L1,)),
            FlowSpec(1, (L2,)),
            FlowSpec(2, (L1, L2)),
        ]
        rates = max_min_fair(flows, {L1: 10.0, L2: 4.0})
        # C and B share L2 -> 2 each; A then fills L1 to 8
        assert rates[2] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(2.0)
        assert rates[0] == pytest.approx(8.0)

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            max_min_fair([FlowSpec(0, (("x", "y"),))], {L1: 1.0})

    def test_no_flows(self):
        assert max_min_fair([], {L1: 5.0}) == {}

    def test_linkless_flow_gets_demand(self):
        rates = max_min_fair([FlowSpec(0, (), demand_bps=3.0)], {})
        assert rates[0] == 3.0

    def test_linkless_uncapped_flow_infinite(self):
        rates = max_min_fair([FlowSpec(0, ())], {})
        assert rates[0] == math.inf

    def test_zero_demand_flow(self):
        flows = [FlowSpec(0, (L1,), demand_bps=0.0), FlowSpec(1, (L1,))]
        rates = max_min_fair(flows, {L1: 6.0})
        assert rates[0] == pytest.approx(0.0)
        assert rates[1] == pytest.approx(6.0)


class TestSpecValidation:
    def test_negative_demand(self):
        with pytest.raises(ValueError):
            FlowSpec(0, (L1,), demand_bps=-1)

    def test_zero_weight(self):
        with pytest.raises(ValueError):
            FlowSpec(0, (L1,), weight=0)

    def test_nan_demand(self):
        with pytest.raises(ValueError):
            FlowSpec(0, (L1,), demand_bps=math.nan)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ValueError):
            FlowSpec(0, (L1,), weight=weight)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf])
    def test_non_finite_capacity(self, capacity):
        """An infinite link would read as saturated from the start."""
        flows = [FlowSpec(1, (L1,), demand_bps=5.0),
                 FlowSpec(2, (L1,), demand_bps=10.0)]
        with pytest.raises(ValueError):
            max_min_fair(flows, {L1: capacity})

    def test_greedy_flow_over_outage_is_legal(self):
        rates = max_min_fair([FlowSpec(0, (L1,), demand_bps=math.inf)], {L1: 0.0})
        assert rates == {0: 0.0}


@st.composite
def allocation_problem(draw):
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [(f"n{i}", f"n{i+1}") for i in range(n_links)]
    caps = {
        link: draw(st.floats(min_value=1.0, max_value=100.0)) for link in links
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for fid in range(n_flows):
        k = draw(st.integers(min_value=1, max_value=n_links))
        start = draw(st.integers(min_value=0, max_value=n_links - k))
        demand = draw(
            st.one_of(
                st.just(math.inf),
                st.floats(min_value=0.1, max_value=50.0),
            )
        )
        weight = draw(st.floats(min_value=0.5, max_value=8.0))
        flows.append(
            FlowSpec(fid, tuple(links[start : start + k]), demand, weight)
        )
    return flows, caps


class TestAllocationProperties:
    @given(allocation_problem())
    @settings(max_examples=100)
    def test_feasibility(self, problem):
        """No link is oversubscribed and no demand is exceeded."""
        flows, caps = problem
        rates = max_min_fair(flows, caps)
        used = {link: 0.0 for link in caps}
        for f in flows:
            assert rates[f.flow_id] <= f.demand_bps + 1e-6
            assert rates[f.flow_id] >= 0.0
            for link in f.links:
                used[link] += rates[f.flow_id]
        for link, total in used.items():
            assert total <= caps[link] * (1 + 1e-6)

    @given(allocation_problem())
    @settings(max_examples=100)
    def test_pareto_no_free_capacity(self, problem):
        """Every flow is blocked: at demand, or on a saturated link."""
        flows, caps = problem
        rates = max_min_fair(flows, caps)
        used = {link: 0.0 for link in caps}
        for f in flows:
            for link in f.links:
                used[link] += rates[f.flow_id]
        for f in flows:
            at_demand = rates[f.flow_id] >= f.demand_bps - 1e-6
            on_saturated = any(
                used[link] >= caps[link] * (1 - 1e-6) for link in f.links
            )
            assert at_demand or on_saturated

    @given(allocation_problem())
    @settings(max_examples=60)
    def test_equal_flows_equal_rates(self, problem):
        """Flows with identical links/demand/weight receive identical rates."""
        flows, caps = problem
        # duplicate the first flow under a fresh id
        twin = FlowSpec(
            9999, flows[0].links, flows[0].demand_bps, flows[0].weight
        )
        rates = max_min_fair(list(flows) + [twin], caps)
        assert rates[9999] == pytest.approx(rates[flows[0].flow_id], rel=1e-6)
