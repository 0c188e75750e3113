"""Differential test of session placement against the per-session oracle.

:func:`repro.workload.synth._place_sessions` runs the duration model once
over every file and gathers each column straight into start order;
:func:`tests.oracles.place_sessions_reference` is the loop it replaced,
which ran the model and filled every column once per session, then
concatenated and sorted.  Both take the same drafts and a generator at
the same state, and must return the same columns bit for bit, dtypes
included, and leave the generator at the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp.records import _SCHEMA
from repro.workload.distributions import LogNormal
from repro.workload.synth import _place_sessions, _SessionDraft, vector_transfer_duration
from tests.oracles import place_sessions_reference

# zero and tiny sizes give zero-length transfers, whose overlapped
# successors start at the same instant
file_sizes = st.one_of(
    st.sampled_from([0.0, 1e-3, 1.0]),
    st.floats(min_value=1e3, max_value=1e13),
)


@st.composite
def drafts(draw):
    n = draw(st.integers(1, 6))  # one-file sessions draw no gaps
    return _SessionDraft(
        sizes=np.array(draw(st.lists(file_sizes, min_size=n, max_size=n))),
        streams=draw(st.sampled_from([1, 4, 8])),
        stripes=draw(st.integers(1, 3)),
        steady_bps=np.array(draw(st.lists(
            st.floats(min_value=1e5, max_value=1e10), min_size=n, max_size=n))),
        # few hosts, so pairs hold several sessions and chain gaps apply
        local_host=draw(st.integers(0, 2)),
        remote_host=1000 + draw(st.integers(0, 1)),
        max_gap_s=draw(st.sampled_from([1.0, 2.0, 50.0, 55.0])),
        overlap_override=draw(st.one_of(st.none(), st.sampled_from([0.0, 0.9, 1.0]))),
        pure_slow_start=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(
    sessions=st.lists(drafts(), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    # at 1e20 s the hour-wide pair offsets and every gap round away:
    # sessions of different pairs start at the same instant
    t0=st.sampled_from([0.0, 1.3e9, 1e20]),
    rtt_s=st.sampled_from([0.038, 0.07]),
    overlap_fraction=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    chain_gap_count=st.integers(0, 8),
)
def test_placement_matches_reference(sessions, seed, t0, rtt_s,
                                     overlap_fraction, chain_gap_count):
    kwargs = dict(t0=t0, rtt_s=rtt_s, overlap_fraction=overlap_fraction,
                  inter_gap=LogNormal(1.5 * 3600.0, 1.3),
                  chain_gap_count=chain_gap_count)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _place_sessions(sessions, rng, **kwargs)
    want = place_sessions_reference(sessions, rng_ref, **kwargs)
    for name in _SCHEMA:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    # the same draws were consumed
    assert rng.random(4).tobytes() == rng_ref.random(4).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    size=st.lists(file_sizes, min_size=1, max_size=8),
    data=st.data(),
)
def test_infinite_ssthresh_is_pure_slow_start(size, data):
    """Per-file ssthresh: an infinite entry equals ``ssthresh_bytes=None``."""
    n = len(size)
    conn = np.array(data.draw(st.lists(st.integers(1, 24), min_size=n, max_size=n)),
                    dtype=np.float64)
    steady = np.array(data.draw(st.lists(
        st.floats(min_value=1e5, max_value=1e10), min_size=n, max_size=n)))
    hot = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    size = np.array(size)
    mixed = vector_transfer_duration(size, conn, steady, 0.07,
                                     ssthresh_bytes=np.where(hot, np.inf, 1.2e6))
    capped = vector_transfer_duration(size, conn, steady, 0.07)
    pure = vector_transfer_duration(size, conn, steady, 0.07, ssthresh_bytes=None)
    assert mixed.tobytes() == np.where(hot, pure, capped).tobytes()
