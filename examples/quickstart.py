#!/usr/bin/env python3
"""Quickstart: generate a GridFTP log, group sessions, test VC suitability.

This walks the paper's central question end to end in ~30 lines of API:
would dynamic virtual circuits, with their setup-delay overhead, have
been usable for the transfers a GridFTP server actually logged?

Run:  python examples/quickstart.py
"""

from repro.core.report import (
    format_gap_report,
    format_suitability_grid,
    format_summary_block,
)
from repro.core.sessions import group_sessions, session_gap_report
from repro.core.stats import six_number_summary
from repro.core.throughput import transfer_throughput_bps
from repro.core.vc_suitability import suitability_table
from repro.workload.datasets import load


def main() -> None:
    # 1. Obtain a transfer log.  The real national-lab logs are
    #    proprietary; the registry generates calibrated synthetic stand-ins
    #    (here a 52,454-transfer NCAR -> NICS workload, 2009-2011).
    log = load("NCAR-NICS", seed=7)
    print(f"loaded {len(log):,} transfers on {len(log.pairs())} host pairs")

    # 2. Group back-to-back transfers into sessions with the gap
    #    parameter g = 1 minute (the paper's Section V definition).
    sessions = group_sessions(log, g=60.0)
    print(f"g = 1 min yields {len(sessions):,} sessions "
          f"({sessions.n_single} single-transfer)")
    print()
    print(
        format_summary_block(
            "Session / transfer characterization (Tables I-style)",
            [
                ("size MB", sessions.size_summary(), 1e-6),
                ("dur s", sessions.duration_summary(), 1.0),
                ("xput Mbps",
                 six_number_summary(transfer_throughput_bps(log)), 1e-6),
            ],
        )
    )

    # 3. How does the choice of g change the picture?  (Table III)
    print()
    print(format_gap_report(
        "Impact of the gap parameter g (Table III-style)",
        session_gap_report(log, [0.0, 60.0, 120.0]),
    ))

    # 4. The headline question (Table IV): what fraction of sessions
    #    amortizes a 1-minute (OSCARS) or 50 ms (hardware) setup delay?
    print()
    print(format_suitability_grid(
        "VC suitability: % sessions (% transfers)  [Table IV-style]",
        suitability_table(log),
    ))
    print()
    print("Reading: even with today's 1-minute setup delay, roughly half of")
    print("all sessions -- carrying ~90% of all transfers -- are long enough")
    print("to justify a dynamic virtual circuit.")


if __name__ == "__main__":
    main()
