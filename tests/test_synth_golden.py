"""Golden pin of the calibrated generators' output.

``tests/golden/synth_pins.json`` holds, for four seeded runs, the row
count and each column's dtype and sha256 of its bytes.  Any change to a
generator's draw order, its duration model, its rate clip or the order
its rows are assembled in changes a digest.  The runs:

* ``slac_bnl_50k`` and ``slac_bnl_250k`` — :func:`~repro.workload.synth.slac_bnl`
  at seed 7 with 50k and 250k transfers (one generation block);
* ``ncar_nics`` — :func:`~repro.workload.synth.ncar_nics` at seed 2009,
  full size (52,454 transfers over three yearly placements);
* ``slac_bnl_stream`` — ``generate_stream("slac-bnl", 300_000, 25_000,
  seed=7)``: a 250k and a 50k block, shifted end to end, re-sliced into
  chunks and concatenated back.

Capture (only when a generator's output is meant to change)::

    PYTHONPATH=src:. python -c "import json; from tests.test_synth_golden \\
        import capture_pins; print(json.dumps(capture_pins(), indent=1))" \\
        > tests/golden/synth_pins.json
"""

import hashlib
import json
import pathlib

import pytest

from repro.gridftp.records import _SCHEMA, TransferLog
from repro.workload.synth import generate_stream, ncar_nics, slac_bnl

PINS_PATH = pathlib.Path(__file__).parent / "golden" / "synth_pins.json"


def log_pin(log: TransferLog) -> dict:
    """Row count plus dtype and digest per column."""
    columns = {}
    for name in _SCHEMA:
        col = log.column(name)
        columns[name] = {
            "dtype": col.dtype.str,
            "sha256": hashlib.sha256(col.tobytes()).hexdigest(),
        }
    return {"n_rows": len(log), "columns": columns}


RUNS = {
    "slac_bnl_50k": lambda: slac_bnl(seed=7, n_transfers=50_000),
    "slac_bnl_250k": lambda: slac_bnl(seed=7, n_transfers=250_000),
    "ncar_nics": lambda: ncar_nics(seed=2009),
    "slac_bnl_stream": lambda: TransferLog.concatenate(
        list(generate_stream("slac-bnl", 300_000, 25_000, seed=7))
    ),
}


def capture_pins() -> dict:
    return {name: log_pin(build()) for name, build in RUNS.items()}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_generated_columns_are_bit_exact(pins, name):
    assert log_pin(RUNS[name]()) == pins[name]
