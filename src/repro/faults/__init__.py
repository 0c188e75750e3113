"""Fault injection and recovery for the VC + transfer stack.

* :mod:`~repro.faults.spec` — the fault taxonomy (:class:`FaultKind`,
  :class:`FaultSpec`) and the injection audit record
* :mod:`~repro.faults.injector` — :class:`FaultInjector`, the seeded
  deterministic fault source simulations arm themselves with, and
  :func:`storm_injector`, the one mapping from storm knobs to specs
* :mod:`~repro.faults.recovery` — :class:`BackoffPolicy` retries,
  :func:`reserve_with_retry`, and the shared :class:`RecoveryStats`

The design rule: faults are *injected* at the layer that would really
fail (IDC admission, circuit signalling, the circuit itself, links and
endpoints), and *recovered* at the layer that really owns the remedy
(reservation retry in the controllers, fallback-to-IP in the transfer
policy, restart markers in the GridFTP reliability layer).
"""
