"""Workload ``analysis_slac``: the paper's log analysis, Tables I-IV.

Set-up writes a SLAC-BNL-shaped usage log.  Each measured pass then
takes the file through ``read_usage_log`` -> ``session_gap_report``
(g = 0, 60, 120 s) -> ``suitability_table`` -> ``path_report``, and runs
a chunked ``generate_stream("slac-bnl")`` -> ``StreamAnalysis`` pass.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .common import PROBE_REFERENCE_S, cpus, derive, median, pin, probe_s
from .tracer import Span, Tracer, group_busy_s, group_calls

NAME = "analysis_slac"
#: rows in the usage log written at set-up
N_LOG = 50_000
#: transfers in the streamed pass (one generation block), and its chunk size
N_STREAM = 250_000
CHUNK = 25_000
G_VALUES = [0.0, 60.0, 120.0]

#: float columns are written with fixed precision; ints are exact
_FLOAT_TOL = {"start": 1e-6, "duration": 1e-6, "size": 0.5}


class Context:
    def __init__(self, seed: int, workdir: str) -> None:
        # every analysis module is imported here, so set-up time covers it
        import repro.core.sessions  # noqa: F401
        import repro.core.streaming  # noqa: F401
        import repro.core.throughput  # noqa: F401
        import repro.core.vc_suitability  # noqa: F401
        from repro.gridftp import logfmt
        from repro.workload import synth

        self.seed = seed
        self.log_path = os.path.join(workdir, "usage.log")
        self.generated = synth.slac_bnl(seed=derive(seed, 1), n_transfers=N_LOG)
        logfmt.write_usage_log(self.generated, self.log_path)
        self.stream_seed = derive(seed, 2)


def _tables_pass(ctx: Context):
    # imported per call: a traced run swaps these module attributes
    from repro.core.sessions import session_gap_report
    from repro.core.throughput import path_report
    from repro.core.vc_suitability import suitability_table
    from repro.gridftp.logfmt import read_usage_log

    log = read_usage_log(ctx.log_path)
    gap = session_gap_report(log, G_VALUES)
    suit = suitability_table(log)
    paths = path_report(log)
    return log, gap, suit, paths


def _stream_pass(ctx: Context):
    from repro.core.streaming import StreamAnalysis
    from repro.workload.synth import generate_stream

    analysis = StreamAnalysis(g=60.0)
    total = 0.0
    for chunk in generate_stream(
        "slac-bnl", N_STREAM, CHUNK, seed=ctx.stream_seed
    ):
        total += float(np.sum(chunk.size))
        analysis.update(chunk)
    return analysis.finalize(), total


def check_tables(ctx: Context, log, gap) -> list[str]:
    """Parsed columns equal the generated log; Table III equals grouping."""
    from repro.core.sessions import group_sessions

    problems = []
    gen = ctx.generated
    if len(log) != len(gen):
        return [f"parsed {len(log)} rows, generated {len(gen)}"]
    for name in ("start", "duration", "size", "transfer_type", "streams",
                 "stripes", "tcp_buffer", "block_size", "local_host",
                 "remote_host"):
        a, b = log.column(name), gen.column(name)
        tol = _FLOAT_TOL.get(name)
        ok = (np.allclose(a, b, rtol=0.0, atol=tol) if tol is not None
              else np.array_equal(a, b))
        if not ok:
            problems.append(f"column {name} differs from the generated log")
    for row in gap:
        s = group_sessions(log, row.g)
        if (row.n_single, row.n_multi) != (s.n_single, s.n_multi):
            problems.append(
                f"g={row.g}: gap report ({row.n_single}, {row.n_multi}) != "
                f"group_sessions ({s.n_single}, {s.n_multi})"
            )
    return problems


def check_stream(report, total_bytes: float) -> list[str]:
    """The stream ledger balances."""
    problems = []
    if report.n_transfers != N_STREAM:
        problems.append(f"stream saw {report.n_transfers} of {N_STREAM} transfers")
    if report.n_single + report.n_multi != report.n_sessions:
        problems.append("n_single + n_multi != n_sessions")
    if not np.isclose(report.total_bytes, total_bytes, rtol=1e-9, atol=0.0):
        problems.append(
            f"summed bytes {total_bytes!r} != total_bytes {report.total_bytes!r}"
        )
    return problems


def measure(ctx: Context, seconds: float, tracer: Tracer | None = None) -> dict:
    # one core for the work and the host-speed probes beside it
    pin(cpus()[:1])
    raw = {"tables": [], "stream": []}
    rates = {"tables": [], "stream": []}
    problems: list[str] = []
    passes = failed = 0
    state_peak = 0
    chunks = 0
    host = probe_s()
    deadline = time.perf_counter() + seconds
    while passes < 2 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        log, gap, _, _ = _tables_pass(ctx)
        t1 = time.perf_counter()
        mid = probe_s()
        t2 = time.perf_counter()
        report, total = _stream_pass(ctx)
        t3 = time.perf_counter()
        after = probe_s()
        for key, rate, bracket in (("tables", len(log) / (t1 - t0), host + mid),
                                   ("stream", report.n_transfers / (t3 - t2), mid + after)):
            raw[key].append(rate)
            rates[key].append(rate * bracket / (2.0 * PROBE_REFERENCE_S))
        host = after
        state_peak = report.peak_state_nbytes
        chunks = report.n_chunks
        # checks run outside the timed regions
        bad = check_stream(report, total)
        if passes == 0:
            bad += check_tables(ctx, log, gap)
        passes += 1
        if bad:
            failed += 1
            problems.extend(bad)
        del log, gap
    return {
        "primary": median(rates["tables"]),
        "secondary": median(rates["stream"]),
        "attempted": passes,
        "failed": failed,
        "problems": problems,
        "detail": {
            "tables_rows_per_s": median(rates["tables"]),
            "stream_transfers_per_s": median(rates["stream"]),
            "raw.tables_rows_per_s": median(raw["tables"]),
            "raw.stream_transfers_per_s": median(raw["stream"]),
            "passes": passes,
            "log_rows": N_LOG,
            "stream_transfers": N_STREAM,
        },
        "layer_untraced": {
            "core.streaming.chunks": chunks,
            "core.streaming.state_peak_kb": state_peak / 1024.0,
        },
    }


def install_tracing(tracer: Tracer) -> None:
    import repro.core.streaming as streaming

    tracer.patch_function("repro.gridftp.logfmt", "read_usage_log")
    tracer.patch_function("repro.core.sessions", "session_gap_report")
    tracer.patch_function("repro.core.sessions", "group_sessions")
    tracer.patch_function("repro.core.vc_suitability", "suitability_table")
    tracer.patch_function("repro.core.vc_suitability", "vc_suitability")
    tracer.patch_function("repro.core.throughput", "path_report")
    tracer.patch_function("repro.workload.synth", "generate_stream")
    tracer.patch_function("repro.workload.synth", "slac_bnl")
    for cls, attrs in (
        (streaming.StreamingSessionizer, ("update", "finalize")),
        (streaming.StreamSummary, ("update", "summary")),
        (streaming.StreamingMoments, ("update",)),
        (streaming.StreamAnalysis, ("update", "finalize")),
    ):
        for attr in attrs:
            tracer.patch_method(cls, attr)


def layer_metrics(spans: list[Span], result: dict) -> dict[str, float]:
    """Span-derived layer numbers, per measured pass."""
    n = result["attempted"]
    out = {
        "gridftp.logfmt.read_s": group_busy_s(spans, ["gridftp.logfmt.read_usage_log"]),
        "core.sessions.gap_report_s": group_busy_s(
            spans, ["core.sessions.session_gap_report"]),
        "core.vc_suitability.table_s": group_busy_s(
            spans, ["core.vc_suitability.suitability_table"]),
        "core.throughput.path_report_s": group_busy_s(
            spans, ["core.throughput.path_report"]),
        "workload.synth.generate_s": group_busy_s(
            spans, ["workload.synth.generate_stream"]),
        "core.streaming.sessionize_s": group_busy_s(spans, [
            "core.streaming.StreamingSessionizer.update",
            "core.streaming.StreamingSessionizer.finalize",
        ]),
        "core.streaming.summarize_s": group_busy_s(spans, [
            "core.streaming.StreamSummary.update",
            "core.streaming.StreamingMoments.update",
        ]),
        "core.streaming.chunks": group_calls(
            spans, ["core.streaming.StreamAnalysis.update"]),
    }
    return {k: v / n for k, v in out.items()}
