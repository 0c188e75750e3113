"""Synthetic-workload substrate standing in for the proprietary GridFTP logs.

* :mod:`~repro.workload.distributions` — heavy-tailed sampling primitives
* :mod:`~repro.workload.synth` — calibrated per-dataset generators
* :mod:`~repro.workload.datasets` — the named registry with provenance
* :mod:`~repro.workload.diurnal` — diurnal/weekly arrival-rate modulation
"""
