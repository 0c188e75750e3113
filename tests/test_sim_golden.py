"""Golden pin of the fluid simulator's outputs.

``tests/golden/sim_pins.json`` holds, for each seeded run, everything a
change to the simulator's settle path must leave alone: each
``TransferLog`` column's dtype and sha256 (as in ``synth_pins.json``),
the ``flow_ids`` of the log rows, the SNMP key order and per-counter
series digests (as in ``snmp_pins.json``), and the ``SimProbe`` counters
other than ``n_flushes`` (how many timestamp batches settle is a cost,
not an output).  The runs:

* ``contention_1`` .. ``contention_3`` — 300 all-to-all jobs over seven
  sites, Poisson arrivals at 0.1/s, 2-20 GB with 1/2/4/8 streams, on
  :func:`~repro.net.topology.esnet_like` with
  :func:`~repro.sim.experiment.default_dtns`: tens of flows in flight,
  every job held in slow start before it moves;
* ``chaos`` — both simulator runs of one
  :func:`~repro.experiments.campaigns.run_chaos` campaign (the chaos run,
  then its clean twin) with IDC rejections, setup timeouts, circuit
  flaps and endpoint outages: the circuit pass, guard links, marker
  rollbacks, migrations onto circuits, IP fallbacks and best-effort
  residual capacities;
* ``oracle`` — the first 60 jobs of ``contention_1`` through the
  full-recompute oracle allocator;
* ``profile`` — the simulator run of
  ``profile_campaign(n_jobs=300, seed=0)``, the one production workload
  whose allocator frontiers reach past 128 flows (60 flows per pass on
  average, 204 at most).

Capture (only when the simulator's output is meant to change)::

    PYTHONPATH=src:. python -c "import json; from tests.test_sim_golden \\
        import capture_pins; print(json.dumps(capture_pins(), indent=1))" \\
        > tests/golden/sim_pins.json
"""

import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from repro.experiments.campaigns import ChaosConfig, profile_campaign, run_chaos
from repro.gridftp.client import TransferJob
from repro.net.topology import esnet_like
from repro.sim.engine import EventLoop
from repro.sim.experiment import FluidSimulator, default_dtns
from repro.sim.probe import SimProbe
from tests.test_snmp_golden import collector_pin
from tests.test_synth_golden import log_pin

PINS_PATH = pathlib.Path(__file__).parent / "golden" / "sim_pins.json"

SITES = ("NERSC", "ANL", "ORNL", "SLAC", "BNL", "LANL", "NICS")
#: every fault knob on, jobs 15 s apart so up to ten flows overlap:
#: seed 3 gives circuit, migrated and IP jobs, flaps with marker
#: rollbacks, and an outage of the destination's access link mid-run
CHAOS = ChaosConfig(
    n_jobs=12,
    job_spacing_s=15.0,
    first_submit_s=20.0,
    rejection_prob=0.6,
    setup_timeout_prob=0.3,
    flaps_per_hour=30.0,
    endpoint_outages_per_hour=30.0,
)
#: the probe counters that describe the run rather than its cost
PROBE_COUNTERS = (
    "n_events",
    "n_alloc_passes",
    "n_flows_touched",
    "max_flows_touched",
)


def contention_jobs(seed: int, n: int = 300, rate: float = 0.10) -> list[TransferJob]:
    """All-to-all seven-site jobs with Poisson arrivals at ``rate`` per second."""
    rng = np.random.default_rng(seed)
    t = 0.0
    jobs = []
    for _ in range(n):
        t += float(rng.exponential(1.0 / rate))
        src, dst = rng.choice(len(SITES), size=2, replace=False)
        jobs.append(
            TransferJob(
                submit_time=t,
                src=SITES[int(src)],
                dst=SITES[int(dst)],
                size_bytes=float(rng.uniform(2e9, 20e9)),
                streams=int(rng.choice([1, 2, 4, 8])),
            )
        )
    return jobs


def simulate(jobs, allocator: str = "incremental"):
    topology = esnet_like()
    sim = FluidSimulator(
        topology, default_dtns(topology), allocator=allocator, probe=SimProbe()
    )
    for job in jobs:
        sim.submit(job)
    return sim.run()


def recorded_runs(campaign) -> tuple:
    """``campaign()``'s result and the SimResult of each simulator run in it."""
    seen = []
    real_run = FluidSimulator.run

    def run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        seen.append(result)
        return result

    with mock.patch.object(FluidSimulator, "run", run):
        return campaign(), seen


def chaos_results() -> list:
    """The SimResult of each simulator run inside one chaos campaign."""
    outages = []
    real_outage = FluidSimulator.schedule_link_outage

    def outage(self, *args, **kwargs):
        outages.append(args)
        return real_outage(self, *args, **kwargs)

    with mock.patch.object(FluidSimulator, "schedule_link_outage", outage):
        report, seen = recorded_runs(lambda: run_chaos(CHAOS, seed=3))
    assert {"vc", "migrate", "ip"} <= set(report.modes) and outages
    assert report.n_flaps_injected > 0 and report.marker_rollback_bytes > 0
    assert report.n_idc_rejections > 0 and report.n_setup_timeouts > 0
    return seen


def profile_results() -> list:
    """The SimResult of the 300-job ``profile`` campaign's one run."""
    report, seen = recorded_runs(lambda: profile_campaign(n_jobs=300, seed=0))
    assert report.probe.max_flows_touched >= 128
    return seen


def result_pin(result) -> dict:
    return {
        "log": log_pin(result.log),
        "flow_ids": result.flow_ids.tolist(),
        "snmp": collector_pin(result.snmp),
        "probe": {name: getattr(result.probe, name) for name in PROBE_COUNTERS},
    }


RUNS = {
    "contention_1": lambda: [simulate(contention_jobs(1))],
    "contention_2": lambda: [simulate(contention_jobs(2))],
    "contention_3": lambda: [simulate(contention_jobs(3))],
    "chaos": chaos_results,
    "oracle": lambda: [simulate(contention_jobs(1)[:60], allocator="oracle")],
    "profile": profile_results,
}


def capture_pins() -> dict:
    return {name: [result_pin(r) for r in build()] for name, build in RUNS.items()}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulator_runs_are_bit_exact(pins, name):
    assert [result_pin(r) for r in RUNS[name]()] == pins[name]


def test_held_arrival_settles_at_its_activation():
    """An arrival still in slow-start hold moves no rate, so it is no
    settle point: its activation is.  Every job here is held (each
    schedules an activation, so a run is three events per job) and every
    event falls at its own instant (one batch per event), so every batch
    but the arrivals flushes."""
    jobs = contention_jobs(4)
    batches = []
    real = EventLoop._fire_flush_hooks

    def count(self):
        batches.append(self.now)
        real(self)

    with mock.patch.object(EventLoop, "_fire_flush_hooks", count):
        result = simulate(jobs)
    probe = result.probe
    assert len(result.log) == len(jobs)
    assert probe.n_events == 3 * len(jobs)
    assert len(batches) == probe.n_events
    assert probe.n_flushes == probe.n_events - len(jobs)
