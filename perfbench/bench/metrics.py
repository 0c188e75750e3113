"""The benchmark's metric catalogue: names, units and direction.

``BENCHMARK.json`` declares exactly these; ``tests/test_contract.py``
holds the two in step.  End-to-end metrics are reported by every
workload: each workload maps its own headline rates onto the two rate
slots (see ``README.md``), so a run under ``--trace 0`` always prints the
same names.  The rates of the analysis and simulator workloads and of
warm sweep passes are host-speed normalized (``common.PROBE_REFERENCE_S``);
cold sweep passes and the daemon's goodput take the CPU time stolen by
the hypervisor off their wall time (``common.steal_s``).  Per-layer
metrics are the union over workloads; a layer a workload never calls
reads 0 there.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "RATE_SLOTS", "DETAIL_UNITS"]

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "primary_per_s": ("1/s", "higher"),
    "secondary_per_s": ("1/s", "higher"),
}

#: workload -> (primary meaning, secondary meaning), for the printout
RATE_SLOTS: dict[str, tuple[str, str]] = {
    "analysis_slac": ("tables_rows_per_s", "stream_transfers_per_s"),
    "sim_contention": ("sim_flows_per_s", "sim_flow_seconds_per_s"),
    "sweep_campaign": ("cold_cells_per_s", "warm_cells_per_s"),
    "daemon_openloop": ("over.goodput_rps", "served_per_cpu_s"),
}

#: name -> (unit, better); grouped by the workload whose layers produce them
PER_LAYER: dict[str, tuple[str, str]] = {
    # tracing cost, every workload: 1 - traced/untraced rate
    "bench.trace_overhead.primary_frac": ("ratio", "lower"),
    "bench.trace_overhead.secondary_frac": ("ratio", "lower"),
    # analysis_slac
    "gridftp.logfmt.read_s": ("s", "lower"),
    "core.sessions.gap_report_s": ("s", "lower"),
    "core.vc_suitability.table_s": ("s", "lower"),
    "core.throughput.path_report_s": ("s", "lower"),
    "workload.synth.generate_s": ("s", "lower"),
    "core.streaming.sessionize_s": ("s", "lower"),
    "core.streaming.summarize_s": ("s", "lower"),
    "core.streaming.chunks": ("count", "lower"),
    "core.streaming.state_peak_kb": ("kB", "lower"),
    # sim_contention
    "sim.engine.events": ("count", "lower"),
    "sim.engine.flushes": ("count", "lower"),
    "net.allocator.passes": ("count", "lower"),
    "net.allocator.flows_per_pass": ("flows", "lower"),
    "sim.experiment.advance_s": ("s", "lower"),
    "net.snmp.add_bytes_s": ("s", "lower"),
    "net.snmp.deposits": ("count", "lower"),
    "net.allocator.recompute_s": ("s", "lower"),
    "net.topology.path_s": ("s", "lower"),
    "net.topology.path_calls": ("count", "lower"),
    "sim.experiment.self_s": ("s", "lower"),
    # sweep_campaign
    "experiments.cache.put_s": ("s", "lower"),
    "experiments.checkpoint.record_s": ("s", "lower"),
    "experiments.checkpoint.flush_s": ("s", "lower"),
    "experiments.runner.cell_exec_s": ("s", "lower"),
    "experiments.runner.worker_busy_frac": ("ratio", "higher"),
    "service.loadtest.sim_cell_ms.fcfs": ("ms", "lower"),
    "service.loadtest.sim_cell_ms.predictive": ("ms", "lower"),
    "service.loadtest.sim_cell_ms.global": ("ms", "lower"),
    "experiments.cache.get_s": ("s", "lower"),
    "experiments.cache.hit_ratio": ("ratio", "higher"),
    "experiments.spec.expand_s": ("s", "lower"),
    "experiments.runner.self_s": ("s", "lower"),
    "experiments.runner.quarantined": ("count", "lower"),
    # daemon_openloop
    "service.daemon.cpu_ms_per_req": ("ms", "lower"),
    "service.admission.queue_depth_max": ("count", "lower"),
    "service.admission.queue_depth_mean": ("count", "lower"),
    "service.admission.shed": ("count", "lower"),
    "vc.oscars.reserve_ms": ("ms", "lower"),
    "net.routing.path_ms": ("ms", "lower"),
    "vc.scheduler.committed_now_ms": ("ms", "lower"),
    "vc.scheduler.reserve_ms": ("ms", "lower"),
    "vc.scheduler.reserve_growth": ("ratio", "lower"),
    "gridftp.reliability.execute_us": ("us", "lower"),
    "service.api.codec_us": ("us", "lower"),
    "sched.admit_us": ("us", "lower"),
    "service.daemon.loop_lag_p99_ms": ("ms", "lower"),
    "sched.plan_us": ("us", "lower"),
    "sched.dispatch_us": ("us", "lower"),
    "sched.settle_us": ("us", "lower"),
    "service.daemon.vsleep_ms_per_req": ("ms", "lower"),
}

#: units of the workload-specific numbers printed beside the slots
DETAIL_UNITS: dict[str, str] = {
    "tables_rows_per_s": "rows/s",
    "stream_transfers_per_s": "transfers/s",
    "sim_flows_per_s": "flows/s",
    "sim_flow_seconds_per_s": "flow-s/s",
    "cold_cells_per_s": "cells/s",
    "warm_cells_per_s": "cells/s",
    "served_per_cpu_s": "req/cpu-s",
    "max_rate_rps": "req/s",
    "raw.tables_rows_per_s": "rows/s",
    "raw.stream_transfers_per_s": "transfers/s",
    "raw.sim_flows_per_s": "flows/s",
    "raw.cold_cells_per_s": "cells/s",
    "raw.warm_cells_per_s": "cells/s",
    "over.goodput_rps": "req/s",
    "raw.over.goodput_rps": "req/s",
    "low.settle_p50_ms": "ms",
    "low.settle_p99_ms": "ms",
    "high.settle_p50_ms": "ms",
    "high.settle_p99_ms": "ms",
    "high.ack_p99_ms": "ms",
}
