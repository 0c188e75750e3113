#!/usr/bin/env python3
"""Planning createReservation parameters from history (Section VII's goal).

The paper's factor analysis exists partly so that "the data transfer
application [can] estimate the rate and duration it should specify when
requesting a virtual circuit."  This example closes that loop:

  1. learn conditional throughput quantiles from the first half of the
     NCAR--NICS history,
  2. advise rate/duration for upcoming sessions,
  3. score the advice against the held-out second half (throttling vs
     wasted reservation),
  4. submit the advised reservations to the OSCARS IDC and report
     admission outcomes.

Run:  python examples/circuit_rate_planning.py
"""

import numpy as np

from repro.core.rate_advisor import RateAdvisor
from repro.core.sessions import group_sessions
from repro.net.topology import esnet_like
from repro.vc.oscars import OscarsIDC, ReservationRejected, ReservationRequest
from repro.workload.datasets import load


def main() -> None:
    log = load("NCAR-NICS", seed=7).sorted_by_start()
    half = len(log) // 2
    train = log.select(np.arange(half))
    held = log.select(np.arange(half, len(log)))
    print(f"history: {len(train):,} transfers; held out: {len(held):,}")

    advisor = RateAdvisor(train)

    # advise for the held-out *sessions* (what a user would reserve for)
    sessions = group_sessions(held, g=60.0)
    print(f"advising for {len(sessions):,} upcoming sessions...")

    topo = esnet_like()
    idc = OscarsIDC(topo)
    admitted = rejected = throttled = 0
    waste = []
    order = np.argsort(sessions.start)
    for k in order:
        advice = advisor.advise(
            float(sessions.total_size[k]), stripes=2, streams=4,
            rate_quantile=0.75,
        )
        actual = sessions.effective_throughput_bps[k]
        outcome = advisor.outcome_against(advice, float(actual))
        throttled += outcome["throttled"]
        waste.append(outcome["waste_fraction"])
        request = ReservationRequest(
            "NCAR", "NICS",
            bandwidth_bps=advice.rate_bps,
            start_time=float(sessions.start[k]),
            end_time=float(sessions.start[k]) + advice.duration_s + 120.0,
        )
        try:
            vc = idc.create_reservation(request, request_time=float(sessions.start[k]))
            idc.teardown(vc.circuit_id)  # bookkeeping only: free for the next
            admitted += 1
        except (ReservationRejected, ValueError):
            rejected += 1

    n = len(sessions)
    print()
    print(f"admission: {admitted}/{n} admitted, {rejected} rejected")
    print(f"quality at q0.75: {100 * throttled / n:.0f}% of sessions would "
          f"have outrun their circuit; mean reserved-capacity waste "
          f"{100 * float(np.mean(waste)):.0f}%")
    print()
    print("Reading: session-EFFECTIVE rates sit far below per-transfer")
    print("rates (intra-session gaps, disk stalls) -- the same reason the")
    print("paper computed *hypothetical* durations for Table IV rather")
    print("than trusting wall-clock ones.  A per-transfer scoring of the")
    print("same advisor, and the full quantile trade-off, is in")
    print("benchmarks/test_bench_ext_rate_advisor.py.")


if __name__ == "__main__":
    main()
