"""GridFTP substrate: records, log formats, and the simulated server/client.

The paper's raw material is the log a Globus GridFTP server keeps: one row
per file transferred.  This package defines that record
(:mod:`~repro.gridftp.records`), its on-disk formats
(:mod:`~repro.gridftp.logfmt`), the anonymization applied to usage-stats
feeds (:mod:`~repro.gridftp.anonymize`), and a simulated GridFTP
server/client pair (:mod:`~repro.gridftp.server`,
:mod:`~repro.gridftp.client`) used by the mechanistic experiments.
The GridFTP features of Section II and the Globus services around it:

* :mod:`~repro.gridftp.control` — the control channel and third-party
  transfers
* :mod:`~repro.gridftp.striping` — extended-block mode over striped servers
* :mod:`~repro.gridftp.reliability` — restart markers and fault recovery
* :mod:`~repro.gridftp.transfer_service` — the Globus-Online-style managed
  transfer service
* :mod:`~repro.gridftp.usagestats` — usage-stats UDP packets to a collector
"""
