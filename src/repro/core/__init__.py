"""The paper's primary contribution: the GridFTP log analysis pipeline.

Submodules map one-to-one to the paper's analyses:

* :mod:`~repro.core.stats` — six-number summaries, CV, quartiles, binned medians
* :mod:`~repro.core.sessions` — gap-``g`` session grouping (Tables I--III)
* :mod:`~repro.core.vc_suitability` — VC setup-delay amortization (Table IV)
* :mod:`~repro.core.throughput` — per-path characterization (Tables V, VI; Fig. 1)
* :mod:`~repro.core.stripes` — stripe/year factor analysis (Tables VII--IX)
* :mod:`~repro.core.streams` — parallel-stream analysis (Figs. 2--5)
* :mod:`~repro.core.timeofday` — time-of-day factor (Fig. 6)
* :mod:`~repro.core.snmp_correlation` — Eq. (1) and Tables X--XIII
* :mod:`~repro.core.concurrency` — Eq. (2) and Figs. 7--8
* :mod:`~repro.core.alpha_flows` — α-flow / elephant classification
* :mod:`~repro.core.burstiness` — link/flow burstiness (Sarvotham motivation)
* :mod:`~repro.core.rate_advisor` — circuit rate/duration estimation
* :mod:`~repro.core.variance` — factor variance decomposition
* :mod:`~repro.core.report` — paper-style text rendering
* :mod:`~repro.core.streaming` — chunked sessionization + mergeable summaries
* :mod:`~repro.core.distfit` — lognormal fit with KS goodness of fit, tail index
* :mod:`~repro.core.interarrival` — session/transfer arrival-process statistics
* :mod:`~repro.core.rng` — the shared seeded-generator convention
"""
