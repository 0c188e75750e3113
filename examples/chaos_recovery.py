#!/usr/bin/env python3
"""Chaos engineering for the VC transfer stack: inject faults, watch recovery.

The paper's measurements assume the control plane behaves: createReservation
succeeds, signalling completes in ~1 minute, circuits stay up.  Production
OSCARS does none of these reliably, so this walkthrough drives the full
stack through injected faults and shows each recovery mechanism doing its
job:

  1. IDC rejections, retried with exponential backoff until the
     reservation lands;
  2. signalling timeouts that blow the setup deadline, triggering
     fallback to the routed IP path (with migration onto the circuit
     once it finally comes up);
  3. mid-transfer circuit flaps, survived through GridFTP restart
     markers (bytes past the last marker are re-sent, nothing more);
  4. a flap-rate sweep showing how availability, goodput and tail
     completion times degrade as the data plane gets flakier.

Everything is seeded: rerunning prints identical numbers.

Run:  python examples/chaos_recovery.py
"""

from repro.faults.injector import FaultInjector
from repro.faults.recovery import BackoffPolicy
from repro.faults.spec import FaultKind, FaultSpec
from repro.experiments.campaigns import ChaosConfig, chaos_sweep, run_chaos
from repro.vc.oscars import OscarsIDC, ReservationRequest
from repro.net.topology import esnet_like


def control_plane_demo() -> None:
    """A single reservation fighting through a 60%-hostile IDC."""
    print("=== 1. reservation retry against injected IDC rejections ===")
    injector = FaultInjector(
        [FaultSpec(FaultKind.IDC_REJECTION, probability=0.6)], seed=8
    )
    idc = OscarsIDC(esnet_like(), fault_injector=injector)
    request = ReservationRequest(
        src="NERSC", dst="ORNL", bandwidth_bps=3e9,
        start_time=100.0, end_time=4000.0,
    )
    backoff = BackoffPolicy(base_s=2.0, multiplier=2.0, max_retries=8)
    vc, waited = idc.create_reservation_with_retry(
        request, request_time=100.0, backoff=backoff, rng=1,
    )
    n_rejected = injector.count(FaultKind.IDC_REJECTION)
    print(f"  {n_rejected} rejection(s) injected; accepted after "
          f"{waited:.1f} s of backoff")
    print(f"  circuit usable at t={vc.start_time:.0f} "
          f"(requested t=100, batch signalling included)\n")


def campaign_demo() -> None:
    """Full campaigns: one per fault family, metrics vs the clean twin."""
    print("=== 2. fallback-to-IP when signalling blows the deadline ===")
    r = run_chaos(ChaosConfig(n_jobs=8, setup_timeout_prob=0.5), seed=3)
    print(f"  setup timeouts injected: {r.n_setup_timeouts}")
    print(f"  per-job modes: {', '.join(r.modes)}")
    print(f"  fallbacks {r.stats.n_fallbacks}, of which migrated back onto "
          f"their circuit: {r.stats.n_migrations}")
    print(f"  all jobs completed: {r.n_completed}/{r.n_jobs}\n")

    print("=== 3. mid-transfer circuit flaps, restart-marker recovery ===")
    r = run_chaos(ChaosConfig(n_jobs=8, flaps_per_hour=40.0), seed=5)
    print(f"  flaps injected {r.n_flaps_injected}, observed by the "
          f"simulator {r.n_circuit_flaps_seen}")
    print(f"  bytes rolled back to markers: "
          f"{r.marker_rollback_bytes / 1e6:.1f} MB "
          f"(vs {8 * 10e9 / 1e6:.0f} MB total — markers save the rest)")
    print(f"  completed {r.n_completed}/{r.n_jobs}, goodput degraded "
          f"{r.goodput_degradation:.1%}, p99 completion x{r.p99_inflation:.2f}\n")


def sweep_demo() -> None:
    print("=== 4. flap-rate sweep (fixed control-plane noise) ===")
    reports = chaos_sweep([0.0, 10.0, 30.0, 60.0], seed=11)
    print(f"  {'flaps/h':>8} {'avail':>6} {'goodput':>9} {'degr':>7} "
          f"{'p50x':>6} {'p99x':>6} {'rollback':>9}")
    for r in reports:
        print(f"  {r.flaps_per_hour:8.1f} {r.availability:6.2f} "
              f"{r.goodput_chaos_bps / 1e9:7.2f} G {r.goodput_degradation:7.1%} "
              f"{r.p50_inflation:6.2f} {r.p99_inflation:6.2f} "
              f"{r.marker_rollback_bytes / 1e6:7.1f} M")
    print("\n  reading: availability collapses well before goodput does —")
    print("  restart markers keep the byte cost of a flap bounded at one")
    print("  marker interval, so the p99 tail inflates long before the mean.")


def main() -> None:
    control_plane_demo()
    campaign_demo()
    sweep_demo()


if __name__ == "__main__":
    main()
