"""Virtual-circuit substrate: OSCARS-like reservations, IDCP, policies.

* :mod:`~repro.vc.circuits` — circuit objects and setup-delay models
* :mod:`~repro.vc.scheduler` — time-bandwidth admission control per link
* :mod:`~repro.vc.oscars` — the single-domain IDC (createReservation API)
* :mod:`~repro.vc.idcp` — sequential inter-domain chaining
* :mod:`~repro.vc.policy` — session-hold and α-redirection policies
* :mod:`~repro.vc.hntes` — offline α identification + firewall filters
* :mod:`~repro.vc.lambdastation` — application-signalled redirection
* :mod:`~repro.vc.provisioner` — the batch automatic-signalling daemon
"""
