"""Network substrate: topology, TCP model, fair sharing, SNMP, cross traffic.

The paper measured transfers riding the production ESnet backbone; this
package stands in for that backbone at flow-level fidelity:

* :mod:`~repro.net.topology` — ESnet-like site/router graph (10 G links)
* :mod:`~repro.net.tcp` — slow start / window / Mathis throughput model
* :mod:`~repro.net.flows` — weighted max-min fair bandwidth sharing
* :mod:`~repro.net.allocator` — incremental, vectorized max-min kernel
* :mod:`~repro.net.routing` — IP default routes and VC explicit routes
* :mod:`~repro.net.snmp` — 30 s per-interface byte counters
* :mod:`~repro.net.crosstraffic` — background general-purpose flows
* :mod:`~repro.net.tstat` — per-connection loss reporting (tstat-style)
* :mod:`~repro.net.netflow` — router-exported NetFlow-style flow records
* :mod:`~repro.net.queueing` — packet-level queueing and α-burst jitter
"""
