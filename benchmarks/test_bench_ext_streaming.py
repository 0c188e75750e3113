"""Ext-S: the streaming data plane at scale.

The paper's datasets top out near 1M transfers; a facility-wide archive
is 10-100M.  These benches pin the two claims the streaming refactor
makes: (a) the chunked generate -> sessionize -> summarize pipeline
sustains a transfers/s floor, and (b) its carried state is O(chunk) —
a 10M-transfer run holds no more session/accumulator state than a run
one tenth the size.  A third bench pins the vectorized ``group_sessions``
against the per-pair reference loop: bit-exact output, measured speedup.
"""

import time

import numpy as np

from repro.core.sessions import group_sessions
from repro.core.streaming import StreamAnalysis
from repro.gridftp.records import TransferLog
from repro.workload.synth import generate_stream
from tests.oracles import group_sessions_reference

#: conservative floor — the pipeline measures ~300-500k transfers/s; a
#: de-vectorization or an accidental O(n) accumulator drops well below
MIN_TRANSFERS_PER_S = 50_000


def _run_stream(n, chunk_size, seed=4, block_transfers=250_000, g=60.0):
    t0 = time.perf_counter()
    analysis = StreamAnalysis(g=g)
    for chunk in generate_stream("slac-bnl", n, chunk_size, seed=seed,
                                 block_transfers=block_transfers):
        analysis.update(chunk)
    report = analysis.finalize()
    return report, time.perf_counter() - t0


def test_ext_stream_pipeline_throughput(benchmark):
    """Transfers/s through the full chunked pipeline, with a gated floor."""
    n, chunk = 500_000, 100_000
    report = benchmark.pedantic(
        lambda: _run_stream(n, chunk)[0], rounds=1, iterations=1
    )
    wall = benchmark.stats["mean"]
    tps = n / wall

    print()
    print("Ext-S: streaming pipeline, SLAC-BNL x 500k, chunks of 100k")
    print(f"  {report.n_sessions:,} sessions over {report.n_pairs} pairs; "
          f"largest {report.max_transfers_in_session:,} transfers")
    print(f"  wall {wall:.2f} s -> {tps:,.0f} transfers/s "
          f"(floor {MIN_TRANSFERS_PER_S:,})")
    print(f"  peak streaming state {report.peak_state_nbytes / 1e3:.1f} kB")

    assert report.n_transfers == n
    assert report.n_sessions == report.n_single + report.n_multi
    assert tps > MIN_TRANSFERS_PER_S


def test_ext_stream_10m_bounded_state(benchmark):
    """10M transfers through the pipeline: state must not grow with n.

    The carried state (open sessions + accumulators) at 10M transfers is
    compared against a 1M-transfer run with the same chunking; O(chunk)
    means near-identical footprints, O(n) would show a ~10x blowup.
    """
    small_report, _ = _run_stream(1_000_000, 250_000, seed=4)
    report, wall = benchmark.pedantic(
        lambda: _run_stream(10_000_000, 250_000, seed=4),
        rounds=1, iterations=1,
    )
    tps = report.n_transfers / wall

    print()
    print("Ext-S: 10M-transfer run, chunks of 250k")
    print(f"  {report.n_sessions:,} sessions over {report.n_pairs} pairs; "
          f"{report.total_bytes / 1e12:.1f} TB")
    print(f"  wall {wall:.1f} s -> {tps:,.0f} transfers/s")
    print(f"  peak state: 1M run {small_report.peak_state_nbytes / 1e3:.1f} kB, "
          f"10M run {report.peak_state_nbytes / 1e3:.1f} kB")

    assert report.n_transfers == 10_000_000
    assert tps > MIN_TRANSFERS_PER_S
    # 10x the transfers, same carried state (within 2x slack)
    assert report.peak_state_nbytes < 2 * small_report.peak_state_nbytes


def test_ext_group_sessions_vectorized_speedup(benchmark):
    """Vectorized grouping vs the per-pair reference: bit-exact, faster.

    The log is built to be the reference's worst case — many host pairs,
    so its Python loop runs once per pair.
    """
    rng = np.random.default_rng(7)
    n = 200_000
    log = TransferLog(
        {
            "start": np.sort(rng.uniform(0, 2e6, n)),
            "duration": rng.uniform(0, 300, n),
            "size": rng.uniform(1, 1e9, n),
            "local_host": rng.integers(0, 100, n),
            "remote_host": rng.integers(100, 200, n),
        }
    )

    fast = benchmark.pedantic(group_sessions, args=(log, 60.0),
                              rounds=3, iterations=1)
    t0 = time.perf_counter()
    slow = group_sessions_reference(log, 60.0)
    ref_wall = time.perf_counter() - t0
    fast_wall = benchmark.stats["mean"]
    speedup = ref_wall / fast_wall

    print()
    print(f"Ext-S: group_sessions on 200k transfers, "
          f"{len(fast):,} sessions, ~10k host pairs")
    print(f"  reference {ref_wall * 1e3:.0f} ms, vectorized "
          f"{fast_wall * 1e3:.0f} ms -> {speedup:.1f}x")

    for f in ("start", "duration", "total_size", "n_transfers",
              "local_host", "remote_host", "transfer_session"):
        assert np.array_equal(getattr(fast, f), getattr(slow, f)), f
    assert speedup > 2.0
