"""Golden-pin bit-exactness tests for the scheduling seam.

``tests/golden/sched_pins.json`` holds four entries.  These tests
assert that the call sites, driven by the ``fcfs`` policy, reproduce
every pinned golden path byte for byte — the chaos campaign, the
managed-service campaign, and the load-test twin (censuses *and*
latency quantiles; wall-clock fields are excluded from the pins by
construction).  The CI ``sched-smoke`` job pins the same smoke cells
through the ``repro-gridftp run`` surface.

* ``chaos`` — captured from the **pre-refactor** code (before the
  :mod:`repro.sched` seam existed), unchanged since;
* ``managed`` — pre-refactor too, except ``report.n_events``, which was
  recaptured alone when a finished task's slot started to free at its
  end clock (one more engine event per task);
* ``loadtest`` and ``sched_smoke`` — recaptured when
  :class:`~repro.service.loadtest.RequestMix` began drawing one column
  per field instead of four scalars per arrival: every seed now offers
  a different (equally distributed) mix, so every twin census moved.

Recapture the two mix entries (only when the offered mix is meant to
change; ``chaos`` and ``managed`` must pass untouched)::

    PYTHONPATH=src:. python -c "import json; from tests.test_sched_golden \\
        import PINS_PATH, recapture_mix_pins; PINS_PATH.write_text( \\
        json.dumps(recapture_mix_pins(json.loads(PINS_PATH.read_text())), \\
        indent=2, sort_keys=True) + '\\n')"
"""

import json
import pathlib

import pytest

PINS_PATH = pathlib.Path(__file__).parent / "golden" / "sched_pins.json"


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def _loadtest_pin(report):
    """The deterministic slice of a LoadTestReport the pins carry."""
    return {
        "census": report.census(),
        "latency_p50_s": report.latency_p50_s,
        "latency_p95_s": report.latency_p95_s,
        "latency_p99_s": report.latency_p99_s,
        "latency_mean_s": report.latency_mean_s,
        "latency_max_s": report.latency_max_s,
        "duration_s": report.duration_s,
        "outstanding_max": report.outstanding_max,
        "n_outstanding_samples": report.n_outstanding_samples,
        "retry_after_max_s": report.retry_after_max_s,
    }


def recapture_mix_pins(pins):
    """``pins`` with its ``loadtest`` and ``sched_smoke`` results re-run.

    Params, seeds and the other entries are kept as they are.
    """
    from repro.service.loadtest import run_loadtest_sim

    out = json.loads(json.dumps(pins))
    for case in out["loadtest"]:
        report = run_loadtest_sim(case["params"], case["seed"])
        case["pin"] = _loadtest_pin(report)
    smoke = out["sched_smoke"]
    smoke["cells"] = {
        cell_seed: run_loadtest_sim(smoke["params"], int(cell_seed)).census()
        for cell_seed in smoke["cells"]
    }
    return out


def test_chaos_campaign_is_bit_exact(pins):
    from repro.experiments.campaigns import (
        chaos_config_from_params,
        report_to_dict,
        run_chaos,
    )

    pin = pins["chaos"]
    config = chaos_config_from_params(pin["params"])
    report = run_chaos(config, seed=pin["seed"])
    assert report_to_dict(report) == pin["report"]
    # an explicit scheduler="fcfs" is the same campaign, not a variant
    explicit = run_chaos(config, seed=pin["seed"], scheduler="fcfs")
    assert report_to_dict(explicit) == pin["report"]


def test_managed_campaign_is_bit_exact(pins):
    from repro.experiments.campaigns import (
        managed_config_from_params,
        run_managed_chaos,
    )

    pin = pins["managed"]
    config = managed_config_from_params(pin["params"])
    report = run_managed_chaos(config, seed=pin["seed"])
    assert report.as_dict() == pin["report"]
    explicit = run_managed_chaos(config, seed=pin["seed"], scheduler="fcfs")
    assert explicit.as_dict() == pin["report"]


@pytest.mark.parametrize("case", [0, 1])
def test_loadtest_twin_is_bit_exact(pins, case):
    from repro.service.loadtest import run_loadtest_sim

    pin = pins["loadtest"][case]
    report = run_loadtest_sim(pin["params"], pin["seed"])
    assert _loadtest_pin(report) == pin["pin"]
    assert report.scheduler == "fcfs"
    # the explicit name routes through the same policy object
    explicit = run_loadtest_sim(
        dict(pin["params"], scheduler="fcfs"), pin["seed"]
    )
    assert _loadtest_pin(explicit) == pin["pin"]


def test_sched_smoke_cells_are_bit_exact(pins):
    """The CI smoke grid's per-cell censuses, pinned at the seed rule."""
    from repro.experiments.spec import derive_seed
    from repro.service.loadtest import run_loadtest_sim

    smoke = pins["sched_smoke"]
    for cell_seed, want in sorted(
        smoke["cells"].items(), key=lambda kv: int(kv[0])
    ):
        assert int(cell_seed) in {
            derive_seed(smoke["spec_seed"], 0),
            derive_seed(smoke["spec_seed"], 1),
        }
        report = run_loadtest_sim(smoke["params"], int(cell_seed))
        assert report.census() == want, f"smoke cell {cell_seed} drifted"


def test_other_policies_share_the_workload_but_may_diverge(pins):
    """predictive/global see the pinned workload; ledgers stay balanced."""
    from repro.service.loadtest import run_loadtest_sim

    pin = pins["loadtest"][0]
    for name in ("predictive", "global"):
        report = run_loadtest_sim(
            dict(pin["params"], scheduler=name), pin["seed"]
        )
        report.validate()
        # n_offered is the workload; everything downstream (including
        # n_invalid — shed-before-validation depends on occupancy) is
        # an outcome the policy is allowed to change
        assert report.n_offered == pin["pin"]["census"]["n_offered"]
