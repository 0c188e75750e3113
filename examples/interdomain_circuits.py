#!/usr/bin/env python3
"""Inter-domain circuits and α-flow redirection (Section IV machinery).

Two smaller demonstrations of the VC substrate:

  * **IDCP daisy chain** — a circuit stitched across two administrative
    domains pays each domain's signalling delay sequentially; worst-case
    setup doubles, which is exactly why the paper worries about setup
    overhead for inter-domain (the scalable) service.

  * **HNTES-style redirection** — replay the NCAR--NICS log, identify α
    flows from their observed rate/size, and redirect subsequent
    transfers of flagged (source, destination) pairs onto circuits.

Run:  python examples/interdomain_circuits.py
"""

from repro.core.alpha_flows import AlphaFlowCriteria, classify_alpha_flows
from repro.net.topology import esnet_like
from repro.vc.circuits import BatchSignalling
from repro.vc.idcp import DomainSegment, IdcpChain
from repro.vc.oscars import OscarsIDC
from repro.vc.policy import AlphaRedirector, SessionHoldPolicy
from repro.workload.datasets import load


def interdomain_demo() -> None:
    topology = esnet_like()
    west = OscarsIDC(topology, setup_delay=BatchSignalling(60.0, 1.0))
    east = OscarsIDC(topology, setup_delay=BatchSignalling(60.0, 1.0))
    chain = IdcpChain(
        [
            DomainSegment("west-net", west, "NERSC", "ANL"),
            DomainSegment("east-net", east, "ANL", "BNL"),
        ]
    )
    print("IDCP chain: NERSC --[west-net]--> ANL --[east-net]--> BNL")
    print(f"  worst-case sequential setup: {chain.worst_case_setup_s():.0f} s")
    circuit = chain.create_circuit(2e9, request_time=10.0, end_time=7200.0)
    print(f"  requested at t=10 s; usable at t={circuit.usable_start:.0f} s")
    for name, vc in circuit.segments:
        print(f"  {name}: {' -> '.join(vc.path)} @ {vc.rate_bps / 1e9:.0f} Gbps")
    chain.teardown(circuit)
    print("  torn down; all segment reservations released")


def redirection_demo() -> None:
    log = load("NCAR-NICS", seed=7)
    criteria = AlphaFlowCriteria(min_rate_bps=1e9, min_size_bytes=1e9)
    n_alpha = int(classify_alpha_flows(log, criteria).sum())
    decision = AlphaRedirector(criteria).decide(log)
    print()
    print("HNTES-style alpha redirection on NCAR-NICS:")
    print(f"  alpha transfers observed: {n_alpha:,} of {len(log):,}")
    print(f"  transfers redirected:     {decision.n_redirected:,}")
    print(f"  byte coverage:            {100 * decision.byte_fraction:.1f}%")

    # what would the circuits cost in idle holding?  run the hold policy
    # over the densest pair
    pair = max(
        map(tuple, log.pairs()),
        key=lambda p: len(log.for_pair(*p)),
    )
    sub = log.for_pair(*pair).sorted_by_start()
    policy = SessionHoldPolicy(g_seconds=60.0)
    for i in range(len(sub)):
        policy.on_transfer(float(sub.start[i]), float(sub.duration[i]))
    episodes = policy.finish()
    idle = sum(e.idle_fraction * e.duration_s for e in episodes)
    busy = sum(e.busy_s for e in episodes)
    print(f"  hold policy on pair {pair}: {len(episodes)} circuit episodes, "
          f"{busy / 3600:.1f} h busy, {idle / 3600:.1f} h held idle")


if __name__ == "__main__":
    interdomain_demo()
    redirection_demo()
