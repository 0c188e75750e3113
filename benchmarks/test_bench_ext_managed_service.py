"""Ext-L: the 32 GB campaign through a Globus-Online-style managed service.

Section V points at Globus Online as the future data source; this bench
runs the paper's NERSC->ORNL test campaign through the managed-transfer
layer under increasing circuit-flap rates and reports what the *service*
delivers: task success rates, wall-time inflation, and recovery counts.

The fault schedules now come from the same
:class:`~repro.faults.injector.FaultInjector` specs the fluid simulator's
chaos campaigns draw from (CIRCUIT_FLAP rate/duration), bound to each
task's ride window — and the sweep itself is an
:class:`~repro.experiments.spec.ExperimentSpec` expanded through the
shared campaign Runner, like every other experiment family.
"""

from repro.experiments.runner import Runner
from repro.experiments.spec import ExperimentSpec

FLAP_RATES = [0.0, 20.0, 60.0]


def _sweep_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="ext-l-managed-chaos",
        scenario="managed_service",
        params={
            "n_tasks": 15,
            "files_per_task": 10,
            "file_bytes": 32e9,
            "rate_bps": 1.6e9,
            "concurrency": 3,
            "submit_spacing_s": 4000.0,
            "flap_duration_s": 25.0,
            "marker_interval_bytes": 64e6,
            "reconnect_s": 5.0,
            "max_attempts_per_file": 200,
        },
        axes={"flaps_per_hour": FLAP_RATES},
        seed=31,
        seed_mode="shared",  # same draw stream: points differ only by rate
    )


def test_ext_managed_service(benchmark):
    campaign = benchmark.pedantic(
        lambda: Runner().run(_sweep_spec()), rounds=1, iterations=1
    )
    reports = campaign.results()
    print()
    print("Ext-L: 150x 32 GB files via the managed transfer service")
    print(f"{'flaps/h':>8} {'succeeded':>10} {'failed':>7} {'inflation':>10} "
          f"{'files':>6} {'flaps':>6} {'recovered':>10}")
    for r in reports:
        print(f"{r['flaps_per_hour']:>8.0f} {r['n_succeeded']:>10} "
              f"{r['n_failed']:>7} {r['inflation']:>9.2f}x {r['n_files_moved']:>6} "
              f"{r['n_flaps_injected']:>6} {r['n_flaps_recovered']:>10}")

    assert campaign.n_failed == 0
    clean, hostile = reports[0], reports[-1]
    # flap-free: everything succeeds with no inflation
    assert clean["n_succeeded"] == 15
    assert clean["inflation"] == 1.0 and clean["n_files_moved"] == 150
    assert clean["n_flaps_injected"] == 0
    # with restart markers, even 60 flaps/hour completes the campaign
    assert hostile["n_succeeded"] == 15
    assert hostile["n_files_moved"] == 150
    assert hostile["n_flaps_injected"] > 0
    assert hostile["n_flaps_recovered"] > 0
    assert 1.0 < hostile["inflation"] < 1.7  # bounded overhead, end to end
    # more chaos, more inflation: monotone across the swept axis
    inflations = [r["inflation"] for r in reports]
    assert inflations == sorted(inflations)
