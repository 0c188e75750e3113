#!/usr/bin/env python3
"""The usage-stats collection pipeline and what anonymization costs.

The paper got its datasets two ways: local server logs (NCAR, SLAC —
remote endpoints intact) and the Globus usage-stats feed (NERSC — remote
endpoints anonymized).  This example pushes one workload through the
simulated UDP collection path and shows concretely what each treatment
allows downstream:

  * the raw local log supports the full session analysis,
  * the collected (anonymized) log supports only per-transfer statistics,
  * pseudonymization — consistent random remote ids — would have kept
    session analysis possible *without* revealing endpoints, the implicit
    remediation suggested by the paper's Section V predicament.

Run:  python examples/usage_stats_pipeline.py
"""

import numpy as np

from repro.core.sessions import group_sessions
from repro.core.throughput import throughput_summary
from repro.gridftp.anonymize import pseudonymize_remote_hosts
from repro.gridftp.usagestats import simulate_collection
from repro.workload.datasets import load


def main() -> None:
    log = load("NCAR-NICS", seed=7)
    print(f"local server log: {len(log):,} transfers, remote hosts intact")
    sessions = group_sessions(log, g=60.0)
    print(f"  -> session analysis works: {len(sessions):,} sessions")

    # --- through the usage-stats UDP path -------------------------------
    rng = np.random.default_rng(1)
    collected, collector = simulate_collection(
        log, loss_rate=0.02, duplicate_rate=0.01, corrupt_rate=0.005, rng=rng
    )
    print()
    print("usage-stats collection (UDP, 2% loss, 1% dup, 0.5% corruption):")
    print(f"  collector stored {collector.n_records:,} records "
          f"({collector.n_duplicates} duplicates dropped, "
          f"{collector.n_malformed} malformed)")
    print(f"  {len(log) - len(collected):,} transfers silently lost in flight")

    summary = throughput_summary(collected)
    print(f"  per-transfer stats still fine: median "
          f"{summary.median / 1e6:.0f} Mbps over {summary.n:,} transfers")
    try:
        group_sessions(collected, g=60.0)
    except ValueError as exc:
        print(f"  session analysis impossible: {exc}")

    # --- the remediation: pseudonymization -------------------------------
    pseudo, _secret = pseudonymize_remote_hosts(log)
    sessions_pseudo = group_sessions(pseudo, g=60.0)
    print()
    print("with pseudonymized (not scrubbed) remote hosts:")
    print(f"  endpoints hidden, yet session analysis intact: "
          f"{len(sessions_pseudo):,} sessions "
          f"(identical structure: {len(sessions_pseudo) == len(sessions)})")


if __name__ == "__main__":
    main()
