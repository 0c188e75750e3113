"""Discrete-event simulation layer: engine, fluid transfers, service replay.

* :mod:`~repro.sim.engine` — event loop and clock
* :mod:`~repro.sim.experiment` — the fluid transfer simulator (jobs ->
  transfer logs + SNMP counters)
* :mod:`~repro.sim.probe` — pluggable engine instrumentation counters
* :mod:`~repro.sim.replay` — IP-routed vs dynamic-VC service comparison
* :mod:`~repro.sim.scenarios` — prebuilt experiments mirroring the paper's
  measurement setups (Sections VII-C and VII-D)
"""
