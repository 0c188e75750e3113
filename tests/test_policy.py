"""Unit tests for VC usage policies (session hold, α redirection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alpha_flows import AlphaFlowCriteria
from repro.core.sessions import group_sessions
from repro.gridftp.records import TransferLog
from repro.vc.policy import AlphaRedirector, SessionHoldPolicy


def feed(policy, rows):
    for start, dur in rows:
        policy.on_transfer(start, dur)
    return policy.finish()


class TestSessionHoldPolicy:
    def test_single_episode(self):
        eps = feed(SessionHoldPolicy(60.0), [(0, 10), (30, 10)])
        assert len(eps) == 1
        assert eps[0].n_transfers == 2

    def test_gap_opens_new_circuit(self):
        p = SessionHoldPolicy(60.0)
        assert p.on_transfer(0, 10) is True
        assert p.on_transfer(200, 10) is True
        eps = p.finish()
        assert len(eps) == 2

    def test_within_gap_reuses(self):
        p = SessionHoldPolicy(60.0)
        p.on_transfer(0, 10)
        assert p.on_transfer(30, 10) is False

    def test_hold_tail_extends_episode(self):
        eps = feed(SessionHoldPolicy(60.0, hold_tail=True), [(0, 10), (200, 10)])
        assert eps[0].end == pytest.approx(10 + 60)
        # final episode flushed without tail
        assert eps[1].end == pytest.approx(210)

    def test_no_hold_tail(self):
        eps = feed(SessionHoldPolicy(60.0, hold_tail=False), [(0, 10), (200, 5)])
        assert eps[0].end == pytest.approx(10)

    def test_busy_time_union(self):
        # overlapping transfers: union, not sum
        eps = feed(SessionHoldPolicy(60.0, hold_tail=False), [(0, 10), (5, 10)])
        assert eps[0].busy_s == pytest.approx(15)

    def test_idle_fraction(self):
        eps = feed(SessionHoldPolicy(10.0, hold_tail=False), [(0, 10), (15, 5)])
        ep = eps[0]
        assert ep.duration_s == pytest.approx(20)
        assert ep.idle_fraction == pytest.approx(1 - 15 / 20)

    def test_out_of_order_rejected(self):
        p = SessionHoldPolicy(60.0)
        p.on_transfer(100, 1)
        with pytest.raises(ValueError):
            p.on_transfer(50, 1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SessionHoldPolicy(60.0).on_transfer(0, -1)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            SessionHoldPolicy(-1)

    def test_nan_g_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            SessionHoldPolicy(float("nan"))

    def test_infinite_g_holds_one_circuit(self):
        episodes = feed(SessionHoldPolicy(float("inf"), hold_tail=False),
                        [(0, 1), (1e6, 1), (2e6, 1)])
        assert [e.n_transfers for e in episodes] == [3]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0, max_value=120),
    )
    @settings(max_examples=60)
    def test_episode_count_matches_session_grouping(self, increments, g):
        """The online policy and the offline analysis agree on boundaries."""
        starts = np.cumsum([inc for inc, _ in increments])
        rows = [(float(s), float(d)) for s, (_, d) in zip(starts, increments)]
        policy = SessionHoldPolicy(g)
        episodes = feed(policy, rows)
        log = TransferLog(
            {
                "start": [r[0] for r in rows],
                "duration": [r[1] for r in rows],
                "size": [1.0] * len(rows),
                "remote_host": [3] * len(rows),
            }
        )
        sessions = group_sessions(log, g)
        assert len(episodes) == len(sessions)
        assert sorted(e.n_transfers for e in episodes) == sorted(
            sessions.n_transfers.tolist()
        )


class TestAlphaRedirector:
    def make_log(self, rates_gbps, pair=(1, 2)):
        n = len(rates_gbps)
        sizes = np.full(n, 10e9)
        durations = sizes * 8 / (np.array(rates_gbps) * 1e9)
        starts = np.arange(n) * 1e4
        return TransferLog(
            {
                "start": starts,
                "duration": durations,
                "size": sizes,
                "local_host": [pair[0]] * n,
                "remote_host": [pair[1]] * n,
            }
        )

    def test_first_alpha_not_redirected_rest_are(self):
        log = self.make_log([2.0, 2.0, 2.0])
        decision = AlphaRedirector().decide(log)
        assert decision.redirected.tolist() == [False, True, True]
        assert decision.n_redirected == 2

    def test_slow_flows_never_flag_pair(self):
        log = self.make_log([0.1, 0.1, 0.1])
        decision = AlphaRedirector().decide(log)
        assert decision.n_redirected == 0

    def test_pairs_independent(self):
        fast = self.make_log([2.0, 2.0], pair=(1, 2))
        slow = self.make_log([0.1, 0.1], pair=(3, 4))
        log = TransferLog.concatenate([fast, slow]).sorted_by_start()
        decision = AlphaRedirector().decide(log)
        assert decision.n_redirected == 1

    def test_byte_fraction(self):
        log = self.make_log([2.0, 2.0, 2.0, 2.0])
        decision = AlphaRedirector().decide(log)
        assert decision.byte_fraction == pytest.approx(3 / 4)

    def test_custom_criteria(self):
        log = self.make_log([0.6, 0.6, 0.6])
        strict = AlphaRedirector(AlphaFlowCriteria(min_rate_bps=1e9))
        loose = AlphaRedirector(AlphaFlowCriteria(min_rate_bps=0.5e9))
        assert strict.decide(log).n_redirected == 0
        assert loose.decide(log).n_redirected == 2
