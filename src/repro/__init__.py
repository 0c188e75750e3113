"""repro: a reproduction of "On using virtual circuits for GridFTP transfers".

(Z. Liu et al., SC 2012.)  The package has seven layers:

* :mod:`repro.core` — the paper's analysis pipeline (sessions, VC
  suitability, throughput factor analyses, SNMP correlation, Eq. 2)
* :mod:`repro.gridftp` — transfer records, log formats, DTN server model
* :mod:`repro.net` — ESnet-like topology, TCP model, fair sharing, SNMP
* :mod:`repro.vc` — OSCARS-like reservations, IDCP chaining, VC policies
* :mod:`repro.workload` — calibrated synthetic datasets (the substitution
  for the proprietary national-lab logs)
* :mod:`repro.sim` — fluid discrete-event simulation and service replay
* :mod:`repro.experiments` — declarative campaign specs, the parallel
  sweep runner, and the content-addressed result cache

``import repro`` loads none of them: import the layer you use, and it
loads only what it needs (an analysis verb never loads the simulator).

Quick start::

    from repro.workload import load
    from repro.core import group_sessions, suitability_table

    log = load("SLAC-BNL", seed=7)
    sessions = group_sessions(log, g=60.0)
    print(len(sessions), "sessions")
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "experiments",
    "gridftp",
    "net",
    "sim",
    "vc",
    "workload",
    "__version__",
]
