"""Pluggable transfer scheduling: one decision seam, three policies.

The paper's economics hinge on *who* gets a circuit and *when*.  This
package gathers every such decision — admit/shed, queue order, the
VC → IP degradation ladder, circuit rate advice, reservation-window
sizing, fallback-vs-wait — behind one :class:`~repro.sched.base.TransferScheduler`
interface (:mod:`~repro.sched.base`), so the daemon, the chaos campaigns, the managed service, and
the load-test sim twin all ask the *same object* and alternatives can
be compared on identical workloads:

* :class:`~repro.sched.fcfs.FcfsScheduler` — the seed behaviour,
  bit-exact: first-come admission, FIFO dispatch, the
  :func:`~repro.service.budget.plan_path` ladder at nominal rates;
* :class:`~repro.sched.predictive.PredictiveScheduler` — Vazhkudai &
  Schopf-style online regression over the observed transfer log feeds
  *predicted* throughput into the ladder and the requested circuit
  rate;
* :class:`~repro.sched.globalsched.GlobalScheduler` — Carpen-Amarie
  et al.-style batch scheduling over the known request set (earliest
  deadline first, then longest-processing-time for makespan).

:func:`~repro.sched.base.make_scheduler` is the single factory every entry point (CLI
``--scheduler``, spec ``scheduler`` params, the sim) resolves names
through; unknown names raise with the valid choices listed.
:mod:`~repro.sched.compare` replays one workload through every policy.
"""
