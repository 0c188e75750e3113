"""Dataset registry: the paper's four datasets by name, with provenance.

Each entry knows which paper experiments it feeds, how the real dataset
was gathered, and how to generate its synthetic stand-in.  The NERSC
datasets are delivered *anonymized* (remote hosts scrubbed), exactly as
the paper received them — which is why session analysis is only possible
on the NCAR and SLAC datasets (Section V).
"""

from __future__ import annotations

import dataclasses
import zlib
from collections.abc import Callable

from ..gridftp.anonymize import scrub_remote_hosts
from ..gridftp.records import TransferLog
from . import synth

__all__ = ["DatasetSpec", "DATASETS", "load"]


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Provenance and generator of one dataset."""

    name: str
    description: str
    period: str
    n_transfers: int
    anonymized: bool
    experiments: tuple[str, ...]
    _generate: Callable[[int], TransferLog]

    def generate(self, seed: int | None = None) -> TransferLog:
        """Produce the synthetic log (scrubbed when the original was)."""
        log = self._generate(seed) if seed is not None else self._generate(self.default_seed)
        return scrub_remote_hosts(log) if self.anonymized else log

    @property
    def default_seed(self) -> int:
        """A seed fixed by the name alone: ``hash()`` of a str is salted
        per process, a CRC of its bytes is not."""
        return zlib.crc32(self.name.encode()) % (2**31)


def _gen_ncar(seed: int) -> TransferLog:
    return synth.ncar_nics(seed=seed)


def _gen_slac(seed: int) -> TransferLog:
    return synth.slac_bnl(seed=seed)


def _gen_ornl(seed: int) -> TransferLog:
    return synth.nersc_ornl_32gb(seed=seed)


def _gen_anl(seed: int) -> TransferLog:
    return synth.nersc_anl_tests(seed=seed).log


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="NCAR-NICS",
            description=(
                "Striped transfers from the NCAR 'frost' GridFTP cluster to "
                "NICS, 2009-2011; remote IPs available (local logs)"
            ),
            period="2009-2011",
            n_transfers=synth.NCAR_NICS_N_TRANSFERS,
            anonymized=False,
            experiments=("T1", "T3", "T4", "T7", "T8", "T9"),
            _generate=_gen_ncar,
        ),
        DatasetSpec(
            name="SLAC-BNL",
            description=(
                "Single-stripe transfers SLAC to BNL, Feb 26 - Apr 26 2012; "
                "remote IPs available (local logs)"
            ),
            period="2012-02-26..2012-04-26",
            n_transfers=synth.SLAC_BNL_N_TRANSFERS,
            anonymized=False,
            experiments=("T2", "T3", "T4", "F2", "F3", "F4", "F5"),
            _generate=_gen_slac,
        ),
        DatasetSpec(
            name="NERSC-ORNL-32GB",
            description=(
                "145 administrative 32 GB test transfers NERSC-ORNL, Sep "
                "2010; usage-stats feed with remote IPs anonymized"
            ),
            period="2010-09",
            n_transfers=145,
            anonymized=True,
            experiments=("T5", "T10", "T11", "T12", "T13", "F6"),
            _generate=_gen_ornl,
        ),
        DatasetSpec(
            name="NERSC-ANL-TEST",
            description=(
                "334 ANL-to-NERSC test transfers in four endpoint categories, "
                "Mar 4 - Apr 22 2012; usage-stats feed, anonymized"
            ),
            period="2012-03-04..2012-04-22",
            n_transfers=334,
            anonymized=True,
            experiments=("T6", "F1", "F7", "F8"),
            _generate=_gen_anl,
        ),
    )
}


def load(name: str, seed: int | None = None) -> TransferLog:
    """Generate a registered dataset by name."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; have {sorted(DATASETS)}")
    return DATASETS[name].generate(seed)
