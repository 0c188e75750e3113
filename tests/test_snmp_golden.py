"""Golden pin of the simulator's SNMP counters.

``tests/golden/snmp_pins.json`` holds, for two seeded runs, the order in
which the collector registered its link keys and a sha256 of each
counter's :meth:`~repro.net.snmp.SnmpCounter.series` bytes (bin starts,
then counts) plus its ``total_bytes()``.  Any change to the deposit
arithmetic, the key registration order or the bin layout changes a
digest.  The two runs:

* ``profile`` — :class:`~repro.sim.experiment.FluidSimulator` over the
  60-job, seed-0 profile campaign on the ESnet-like backbone: many
  flows settling over shared intervals;
* ``snmp_experiment`` — the two-day NERSC--ORNL SNMP study, whose cross
  traffic deposits distinct, often multi-bin intervals before the
  simulator runs.

Capture (only when the deposit arithmetic is meant to change)::

    PYTHONPATH=src:. python -c "import json; from tests.test_snmp_golden \\
        import capture_pins; print(json.dumps(capture_pins(), indent=1))" \\
        > tests/golden/snmp_pins.json
"""

import hashlib
import json
import pathlib
from unittest import mock

import pytest

PINS_PATH = pathlib.Path(__file__).parent / "golden" / "snmp_pins.json"


def collector_pin(collector) -> dict:
    """Key order plus a digest and total per counter."""
    counters = []
    for key in collector.keys():
        c = collector.counter(key)
        starts, counts = c.series()
        digest = hashlib.sha256(starts.tobytes() + counts.tobytes()).hexdigest()
        counters.append({
            "key": list(key),
            "n_bins": int(counts.size),
            "sha256": digest,
            "total_bytes": c.total_bytes(),
        })
    return {"n_counters": len(counters), "counters": counters}


def profile_collector():
    from repro.experiments.campaigns import _profile_jobs
    from repro.net.topology import esnet_like
    from repro.sim.experiment import FluidSimulator, default_dtns

    topology = esnet_like()
    sim = FluidSimulator(topology, default_dtns(topology))
    for job in _profile_jobs(60, 0):
        sim.submit(job)
    return sim.run().snmp


def snmp_experiment_collector():
    """The study's collector, caught where cross traffic is deposited."""
    from repro.sim import scenarios

    seen = []
    real = scenarios.generate_cross_traffic

    def spy(*args, **kwargs):
        seen.append(kwargs["collector"])
        return real(*args, **kwargs)

    with mock.patch.object(scenarios, "generate_cross_traffic", spy):
        scenarios.nersc_ornl_snmp_experiment(days=2, n_tests=8)
    (collector,) = seen
    return collector


RUNS = {"profile": profile_collector, "snmp_experiment": snmp_experiment_collector}


def capture_pins() -> dict:
    return {name: collector_pin(build()) for name, build in RUNS.items()}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_snmp_counters_are_bit_exact(pins, name):
    assert collector_pin(RUNS[name]()) == pins[name]
