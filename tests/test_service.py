"""The long-lived transfer daemon: units and in-process integration.

Covers the service package bottom-up — deadline budgets and the
degradation ladder, admission control, loop supervision, health views,
the JSON-lines protocol — then boots real in-process daemons (asyncio
loops, a Unix control socket in a temp dir) and pins the service
contracts: submissions settle, overload sheds explicitly, starved
deadlines degrade to IP, crashed loops restart without losing the
request they held, and a drain checkpoints everything unfinished.

The real killed-subprocess drill (SIGTERM -> exit 75, drain report,
zero lost tasks) lives in ``test_service_daemon.py``.
"""

import asyncio
import json
import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultKind, FaultSpec
from repro.sched.base import make_scheduler
from repro.service.admission import AdmissionController
from repro.service.api import (
    MAX_LINE_BYTES,
    ServiceClient,
    decode_line,
    encode_line,
    error_response,
)
from repro.service.budget import DeadlineBudget, PathChoice, plan_path
from repro.service.core import ServiceCore
from repro.service.daemon import (
    EXIT_DRAINED,
    DaemonConfig,
    TransferDaemon,
    config_from_params,
)
from repro.service.health import HealthMonitor, ServiceMetrics
from repro.service.supervisor import Supervisor
from repro.vc.circuits import BatchSignalling


# ---------------------------------------------------------------------------
# deadline budgets and the degradation ladder


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestDeadlineBudget:
    def test_tracks_elapsed_and_remaining(self):
        clock = FakeClock(100.0)
        budget = DeadlineBudget(60.0, clock)
        assert budget.remaining() == 60.0
        clock.t = 140.0
        assert budget.elapsed() == 40.0
        assert budget.remaining() == 20.0
        assert not budget.expired
        clock.t = 170.0
        assert budget.remaining() == 0.0
        assert budget.expired

    def test_unbounded_budget_never_expires(self):
        budget = DeadlineBudget(None, FakeClock())
        assert budget.remaining() == math.inf
        assert not budget.expired
        assert budget.can_afford(1e12)
        assert budget.snapshot()["remaining_s"] is None

    def test_can_afford(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock)
        assert budget.can_afford(10.0)
        assert not budget.can_afford(10.1)
        with pytest.raises(ValueError):
            budget.can_afford(-1.0)

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_bad_deadlines(self, bad):
        with pytest.raises(ValueError):
            DeadlineBudget(bad, FakeClock())

    def test_snapshot_is_json_safe(self):
        budget = DeadlineBudget(30.0, FakeClock(5.0))
        snap = budget.snapshot()
        json.dumps(snap)
        assert snap == {"deadline_s": 30.0, "elapsed_s": 0.0, "remaining_s": 30.0}


class TestPlanPath:
    def test_vc_when_budget_affords_setup_and_transfer(self):
        budget = DeadlineBudget(200.0, FakeClock())
        plan = plan_path(budget, 8e9, 1.6e9, 4e8, setup_estimate_s=60.0)
        # 60 + 40 * 1.25 = 110 <= 200
        assert plan.choice is PathChoice.VC
        assert plan.setup_estimate_s == 60.0
        assert plan.transfer_estimate_s == pytest.approx(40.0)

    def test_degrades_when_setup_starves_the_deadline(self):
        budget = DeadlineBudget(100.0, FakeClock())
        plan = plan_path(budget, 8e9, 1.6e9, 4e8, setup_estimate_s=60.0)
        # 60 + 50 > 100 -> routed path, whose own estimate is honest
        assert plan.choice is PathChoice.IP_DEGRADED
        assert plan.setup_estimate_s == 0.0
        assert plan.transfer_estimate_s == pytest.approx(160.0)

    def test_safety_factor_tips_the_decision(self):
        budget = DeadlineBudget(100.0, FakeClock())
        base = dict(
            total_bytes=8e9, vc_rate_bps=1.6e9, ip_rate_bps=4e8,
            setup_estimate_s=55.0,
        )
        assert plan_path(budget, **base, safety_factor=1.0).choice is PathChoice.VC
        assert (
            plan_path(budget, **base, safety_factor=1.25).choice
            is PathChoice.IP_DEGRADED
        )

    def test_unbounded_budget_prefers_the_circuit(self):
        budget = DeadlineBudget(None, FakeClock())
        plan = plan_path(budget, 1e12, 1.6e9, 4e8, setup_estimate_s=1e6)
        assert plan.choice is PathChoice.VC

    def test_validation(self):
        budget = DeadlineBudget(None, FakeClock())
        with pytest.raises(ValueError):
            plan_path(budget, 0.0, 1.6e9, 4e8, 1.0)
        with pytest.raises(ValueError):
            plan_path(budget, 1e9, 0.0, 4e8, 1.0)
        with pytest.raises(ValueError):
            plan_path(budget, 1e9, 1.6e9, 4e8, -1.0)
        with pytest.raises(ValueError):
            plan_path(budget, 1e9, 1.6e9, 4e8, 1.0, safety_factor=0.5)


# ---------------------------------------------------------------------------
# admission control


class TestAdmissionController:
    def test_admits_until_queue_limit(self):
        adm = AdmissionController(queue_limit=2, tenant_quota=10)
        assert adm.try_admit("a").admitted
        assert adm.try_admit("b").admitted
        decision = adm.try_admit("c")
        assert not decision.admitted
        assert decision.reason == "queue-full"
        assert decision.retry_after_s > 0
        assert adm.shed["queue-full"] == 1
        assert adm.n_shed == 1

    def test_tenant_quota_sheds_the_noisy_tenant_only(self):
        adm = AdmissionController(queue_limit=10, tenant_quota=2)
        assert adm.try_admit("noisy").admitted
        assert adm.try_admit("noisy").admitted
        decision = adm.try_admit("noisy")
        assert not decision.admitted and decision.reason == "tenant-quota"
        assert adm.try_admit("polite").admitted
        assert adm.usage() == {"noisy": 2, "polite": 1}

    def test_draining_rejects_everything(self):
        adm = AdmissionController()
        adm.draining = True
        decision = adm.try_admit("a")
        assert not decision.admitted and decision.reason == "draining"

    def test_lifecycle_bookkeeping(self):
        adm = AdmissionController(queue_limit=4)
        adm.try_admit("a")
        adm.try_admit("a")
        assert (adm.queued, adm.in_flight, adm.outstanding) == (2, 0, 2)
        adm.on_start("a")
        assert (adm.queued, adm.in_flight, adm.outstanding) == (1, 1, 2)
        adm.on_settle("a", started=True)
        assert adm.outstanding == 1
        adm.on_settle("a", started=False)  # settled straight from the queue
        assert adm.outstanding == 0
        assert adm.usage() == {}

    def test_requeue_moves_in_flight_back_to_queued(self):
        adm = AdmissionController()
        adm.try_admit("a")
        adm.on_start("a")
        adm.on_requeue("a")
        assert (adm.queued, adm.in_flight) == (1, 0)
        assert adm.usage() == {"a": 1}  # the quota unit is still held
        with pytest.raises(RuntimeError):
            adm.on_requeue("a")

    def test_bookkeeping_guards(self):
        adm = AdmissionController()
        with pytest.raises(RuntimeError):
            adm.on_start("a")
        with pytest.raises(RuntimeError):
            adm.on_settle("a")
        adm.try_admit("a")
        with pytest.raises(RuntimeError):
            adm.on_settle("ghost", started=False)

    def test_retry_after_scales_with_backlog(self):
        adm = AdmissionController(queue_limit=100, tenant_quota=100, workers=2)
        adm.note_service_s(10.0)
        idle = adm.retry_after_s()
        for _ in range(8):
            adm.try_admit("a")
        assert adm.retry_after_s() > idle
        assert adm.retry_after_s() == pytest.approx((8 / 2 + 1) * 10.0)

    def test_retry_after_has_a_floor(self):
        adm = AdmissionController()
        adm.note_service_s(0.0)
        assert adm.retry_after_s() >= 1.0

    def test_ewma_folds_observations(self):
        adm = AdmissionController()
        adm.note_service_s(10.0)
        adm.note_service_s(20.0, alpha=0.5)
        assert adm.retry_after_s() == pytest.approx((0 / 4 + 1) * 15.0)
        with pytest.raises(ValueError):
            adm.note_service_s(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=0)
        with pytest.raises(ValueError):
            AdmissionController(tenant_quota=0)
        with pytest.raises(ValueError):
            AdmissionController(workers=0)


# ---------------------------------------------------------------------------
# supervision


def _fast_supervisor(max_retries: int = 3) -> Supervisor:
    from repro.faults.recovery import BackoffPolicy

    return Supervisor(
        backoff=BackoffPolicy(
            base_s=0.005, max_backoff_s=0.02, max_retries=max_retries,
            jitter=0.0,
        ),
        healthy_after_s=10.0,
    )


class TestSupervisor:
    def test_restarts_a_crashing_loop(self):
        async def scenario():
            sup = _fast_supervisor()
            crashes = 0
            done = asyncio.Event()

            async def loop():
                nonlocal crashes
                if crashes < 2:
                    crashes += 1
                    raise RuntimeError(f"boom {crashes}")
                done.set()
                await asyncio.sleep(30)

            sup.supervise("w", loop)
            await asyncio.wait_for(done.wait(), timeout=5)
            status = sup.loops["w"]
            assert status.restarts == 2
            assert status.last_error == "RuntimeError: boom 2"
            assert sup.dead_loops() == []
            await sup.stop()

        asyncio.run(scenario())

    def test_crash_storm_declares_the_loop_dead(self):
        async def scenario():
            sup = _fast_supervisor(max_retries=2)
            seen = []
            sup.on_crash = lambda name, exc: seen.append(str(exc))

            async def loop():
                raise RuntimeError("always")

            task = sup.supervise("w", loop)
            await asyncio.wait_for(task, timeout=5)
            assert sup.dead_loops() == ["w"]
            assert sup.loops["w"].dead and not sup.loops["w"].alive
            # max_retries consecutive restarts, plus the final crash
            assert sup.loops["w"].restarts == 3
            assert seen == ["always"] * 3

        asyncio.run(scenario())

    def test_clean_return_is_done_not_dead(self):
        async def scenario():
            sup = _fast_supervisor()

            async def loop():
                return None

            task = sup.supervise("w", loop)
            await asyncio.wait_for(task, timeout=5)
            assert not sup.loops["w"].alive
            assert not sup.loops["w"].dead
            assert sup.dead_loops() == []
            assert sup.n_restarts == 0

        asyncio.run(scenario())

    def test_healthy_run_resets_the_crash_count(self):
        async def scenario():
            sup = _fast_supervisor(max_retries=2)
            sup.healthy_after_s = 0.0  # every iteration counts as healthy
            crashes = 0
            done = asyncio.Event()

            async def loop():
                nonlocal crashes
                crashes += 1
                if crashes <= 4:  # more crashes than max_retries allows...
                    raise RuntimeError("flaky")
                done.set()
                await asyncio.sleep(30)

            sup.supervise("w", loop)
            # ...yet the loop survives, because each run reset the count
            await asyncio.wait_for(done.wait(), timeout=5)
            assert sup.dead_loops() == []
            await sup.stop()

        asyncio.run(scenario())

    def test_duplicate_name_rejected(self):
        async def scenario():
            sup = _fast_supervisor()

            async def loop():
                await asyncio.sleep(30)

            sup.supervise("w", loop)
            with pytest.raises(RuntimeError):
                sup.supervise("w", loop)
            await sup.stop()

        asyncio.run(scenario())

    def test_status_is_json_safe(self):
        async def scenario():
            sup = _fast_supervisor()

            async def loop():
                await asyncio.sleep(30)

            sup.supervise("w", loop)
            json.dumps(sup.status())
            await sup.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# health and metrics


class TestHealth:
    def _monitor(self, **kwargs) -> tuple[HealthMonitor, Supervisor]:
        sup = _fast_supervisor()
        monitor = HealthMonitor(
            AdmissionController(), sup, ServiceMetrics(),
            __import__("repro.faults.recovery", fromlist=["RecoveryStats"])
            .RecoveryStats(),
            **kwargs,
        )
        return monitor, sup

    def test_fresh_daemon_is_healthy(self):
        monitor, _ = self._monitor()
        health = monitor.health()
        assert health["ok"] and health["problems"] == []

    def test_dead_loop_degrades_health(self):
        async def scenario():
            monitor, sup = self._monitor()
            sup.backoff = __import__(
                "repro.faults.recovery", fromlist=["BackoffPolicy"]
            ).BackoffPolicy(base_s=0.001, max_retries=0, jitter=0.0)

            async def loop():
                raise RuntimeError("dead on arrival")

            task = sup.supervise("w", loop)
            await asyncio.wait_for(task, timeout=5)
            health = monitor.health()
            assert not health["ok"]
            assert any("dead loops: w" in p for p in health["problems"])

        asyncio.run(scenario())

    def test_stale_heartbeat_degrades_health(self):
        monitor, _ = self._monitor(heartbeat_timeout_s=1e-9)
        health = monitor.health()
        assert not health["ok"]
        assert any("stale heartbeat" in p for p in health["problems"])
        monitor.heartbeat_timeout_s = 60.0
        monitor.beat()
        assert monitor.health()["ok"]

    def test_status_shape(self):
        monitor, _ = self._monitor()
        status = monitor.status()
        json.dumps(status)
        for key in (
            "health", "queue_depth", "in_flight", "outstanding",
            "queue_limit", "tenant_quota", "tenants", "shed",
            "retry_after_s", "metrics", "recovery", "loops",
        ):
            assert key in status

    def test_metrics_ledger(self):
        m = ServiceMetrics(
            n_accepted=10, n_completed=5, n_failed=2, n_expired=1,
            n_checkpointed=1,
        )
        assert m.n_settled == 9
        assert m.n_lost == 1
        as_dict = m.as_dict()
        assert as_dict["n_settled"] == 9 and as_dict["n_lost"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            self._monitor(heartbeat_timeout_s=0.0)


# ---------------------------------------------------------------------------
# the wire protocol


class TestProtocol:
    def test_roundtrip(self):
        msg = {"op": "submit", "file_sizes": [1.0, 2.0], "wait": True}
        assert decode_line(encode_line(msg).rstrip(b"\n")) == msg

    def test_encode_is_strict_json(self):
        with pytest.raises(ValueError):
            encode_line({"bad": math.nan})

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError):
            decode_line(b"not json")
        with pytest.raises(ValueError):
            decode_line(b"[1, 2]")
        with pytest.raises(ValueError):
            decode_line(b"\xff\xfe")
        with pytest.raises(ValueError):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_error_response(self):
        resp = error_response("nope", reason="queue-full")
        assert resp == {"ok": False, "error": "nope", "reason": "queue-full"}


# ---------------------------------------------------------------------------
# daemon config


class TestDaemonConfig:
    def test_checkpoint_path_defaults_beside_the_socket(self):
        config = DaemonConfig(socket_path="/tmp/x.sock")
        assert config.effective_checkpoint_path == "/tmp/x.sock.ckpt.jsonl"
        override = DaemonConfig(socket_path="/tmp/x.sock", checkpoint_path="/tmp/c")
        assert override.effective_checkpoint_path == "/tmp/c"

    def test_as_dict_roundtrips(self):
        config = DaemonConfig(socket_path="/tmp/x.sock", workers=2)
        assert DaemonConfig(**config.as_dict()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"socket_path": ""},
            {"socket_path": "/tmp/x", "workers": 0},
            {"socket_path": "/tmp/x", "time_scale": 0.0},
            {"socket_path": "/tmp/x", "vc_rate_bps": -1.0},
            {"socket_path": "/tmp/x", "vc_safety_factor": 0.9},
            {"socket_path": "/tmp/x", "drain_grace_s": -1.0},
            {"socket_path": "/tmp/x", "status_interval_s": 0.0},
            {"socket_path": "/tmp/x", "max_crash_requeues": -1},
            {"socket_path": "/tmp/x", "default_deadline_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DaemonConfig(**kwargs)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("time_scale", math.nan),
            ("time_scale", math.inf),
            ("vc_rate_bps", math.nan),
            ("ip_rate_bps", math.inf),
            ("reject_prob", math.nan),
            ("reject_prob", 2.0),
            ("setup_timeout_prob", -1.0),
            ("setup_extra_delay_s", -1.0),
            ("flaps_per_hour", math.nan),
            ("flaps_per_hour", -5.0),
            ("flap_duration_s", -1.0),
            ("flap_duration_s", 0.0),
            ("batch_window_s", 0.0),
            ("default_deadline_s", math.nan),
            ("vc_safety_factor", math.nan),
            ("drain_grace_s", math.nan),
            ("marker_interval_bytes", math.inf),
        ],
    )
    def test_refuses_what_the_two_drivers_read_differently(self, field, value):
        # left to the drivers, each is refused by the live daemon's
        # FaultSpec, read as "off", or ridden by the twin as given
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DaemonConfig(socket_path="/tmp/x", **{field: value})
        if field in ("time_scale", "reject_prob", "flaps_per_hour"):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                config_from_params({field: value}, seed=0)

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["serve", "--socket", "/tmp/never.sock", "--time-scale", "nan"],
             "error: time_scale must be finite, got nan"),
            # left to the twin, 18 of its 20 accepted requests ride
            # ip-fallback here, while the live daemon refuses the config
            (["loadtest", "--mode", "sim", "--n", "30", "--reject-prob", "2"],
             "error: reject_prob must be in [0, 1], got 2.0"),
        ],
        ids=["serve", "loadtest-sim"],
    )
    def test_cli_refuses_a_bad_config_in_one_line(self, capsys, argv, message):
        from repro.cli import main

        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [message]

    @pytest.mark.parametrize(
        "endpoints",
        [{"src": "NOPE"}, {"src": "ANL", "dst": "ANL"}, {"dst": "rt-chic"}],
        ids=["unknown-node", "same-site", "router"],
    )
    def test_endpoints_must_be_two_distinct_sites(self, endpoints):
        with pytest.raises(ValueError, match="NERSC, ANL, ORNL"):
            DaemonConfig(socket_path="/tmp/x", **endpoints)

    def test_fault_knobs_build_the_storm_specs_in_order(self):
        daemon = TransferDaemon(DaemonConfig(
            socket_path="/tmp/x.sock", reject_prob=0.3,
            setup_timeout_prob=0.2, setup_extra_delay_s=90.0,
            flaps_per_hour=12.0, flap_duration_s=40.0, seed=5,
        ))
        want = (
            FaultSpec(FaultKind.IDC_REJECTION, probability=0.3),
            FaultSpec(FaultKind.VC_SETUP_TIMEOUT, probability=0.2,
                      extra_delay_s=90.0),
            FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=12.0,
                      duration_s=40.0),
        )
        assert daemon.injector.specs == want
        assert daemon.idc.fault_injector is daemon.injector
        # seeded from the config: the same draws as the specs at seed 5
        ref = FaultInjector(want, seed=5)
        assert [daemon.injector.reservation_fault(0.0) for _ in range(20)] == [
            ref.reservation_fault(0.0) for _ in range(20)
        ]

    def test_no_fault_knob_means_no_injector(self):
        daemon = TransferDaemon(DaemonConfig(socket_path="/tmp/x.sock"))
        assert daemon.injector is None
        assert daemon.idc.fault_injector is None


# ---------------------------------------------------------------------------
# in-process daemon integration


def _run_with_daemon(config: DaemonConfig, scenario):
    """Boot a daemon, run ``scenario(daemon, call)``, drain, return both.

    ``call`` runs a blocking ServiceClient method in an executor so the
    daemon's event loop keeps turning underneath it.
    """

    async def body():
        daemon = TransferDaemon(config)
        ready = asyncio.Event()
        serve = asyncio.create_task(
            daemon.serve(ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=10)
        loop = asyncio.get_running_loop()

        def call(fn, *args, **kwargs):
            return loop.run_in_executor(None, lambda: fn(*args, **kwargs))

        try:
            result = await asyncio.wait_for(
                scenario(daemon, call), timeout=60
            )
        finally:
            daemon.request_drain()
            exit_code = await asyncio.wait_for(serve, timeout=30)
        return result, exit_code, daemon

    return asyncio.run(body())


def _config(tmp_path, **overrides) -> DaemonConfig:
    defaults = dict(
        socket_path=str(tmp_path / "svc.sock"),
        workers=2,
        time_scale=3000.0,
        status_interval_s=0.05,
        drain_grace_s=10.0,
        seed=0,
    )
    defaults.update(overrides)
    return DaemonConfig(**defaults)


class TestDaemonIntegration:
    def test_submit_and_complete_over_the_socket(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                resp = await call(
                    client.submit, [4e9, 2e9], tenant="t", wait=True
                )
            finally:
                await call(client.close)
            return resp

        resp, exit_code, daemon = _run_with_daemon(config, scenario)
        assert exit_code == EXIT_DRAINED
        assert resp["ok"] and resp["state"] == "succeeded"
        assert resp["files_done"] == 2 and resp["n_files"] == 2
        assert resp["path"] == "vc"  # unbounded budget rides the circuit
        assert daemon.metrics.n_completed == 1
        assert daemon.metrics.n_lost == 0

    def test_invalid_submissions_do_not_leak_admission_slots(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                bad = [
                    await call(client.request, {"op": "submit",
                                                "file_sizes": []}),
                    await call(client.request, {"op": "submit",
                                                "file_sizes": [0.0]}),
                    await call(client.request, {"op": "submit",
                                                "file_sizes": [-5.0]}),
                    await call(client.request, {"op": "submit",
                                                "file_sizes": "nope"}),
                    await call(client.request, {"op": "submit",
                                                "file_sizes": [1e9],
                                                "deadline_s": -3.0}),
                    await call(client.request, {"op": "submit",
                                                "file_sizes": [1e9],
                                                "tenant": ""}),
                    await call(client.request, {"op": "nonsense"}),
                ]
                status = (await call(client.status))["status"]
            finally:
                await call(client.close)
            return bad, status

        (bad, status), _, daemon = _run_with_daemon(config, scenario)
        assert all(not resp["ok"] for resp in bad)
        assert daemon.admission.outstanding == 0
        assert daemon.admission.usage() == {}
        assert daemon.metrics.n_accepted == 0
        # refused submissions land in their own census, visible on
        # /status — the ledger accounts for every submission seen
        # (the "nonsense" op is not a submission and counts nowhere)
        assert daemon.metrics.n_submitted == 6
        assert daemon.metrics.n_invalid == 6
        assert status["metrics"]["n_invalid"] == 6
        assert (
            daemon.metrics.n_accepted
            + daemon.admission.n_shed
            + daemon.metrics.n_invalid
            == daemon.metrics.n_submitted
        )

    def _submit_raw(self, tmp_path, body):
        """One raw submit to a fresh daemon; its response and the daemon."""
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                return await call(client.request, {"op": "submit", **body})
            finally:
                await call(client.close)

        resp, _, daemon = _run_with_daemon(config, scenario)
        return resp, daemon

    # JSON booleans are Python ints (float(True) == 1.0): without an
    # explicit refusal `true` passes as a 1-byte file, a 1 s deadline,
    # or request id 1

    def test_boolean_file_size_is_invalid(self, tmp_path):
        resp, daemon = self._submit_raw(tmp_path, {"file_sizes": [True]})
        assert not resp["ok"]
        assert resp["error"].startswith("invalid submission")
        assert daemon.metrics.n_invalid == 1
        assert daemon.metrics.n_accepted == 0
        assert daemon.admission.usage() == {}

    def test_boolean_deadline_is_invalid(self, tmp_path):
        resp, daemon = self._submit_raw(
            tmp_path, {"file_sizes": [1e9], "deadline_s": True}
        )
        assert not resp["ok"]
        assert resp["error"].startswith("invalid submission")
        assert daemon.metrics.n_invalid == 1
        assert daemon.metrics.n_accepted == 0
        assert daemon.admission.usage() == {}

    def test_boolean_request_id_is_unknown(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                first = await call(client.submit, [1e9], tenant="t", wait=True)
                waited = await call(
                    client.request, {"op": "wait", "request_id": True}
                )
            finally:
                await call(client.close)
            return first, waited

        (first, waited), _, _ = _run_with_daemon(config, scenario)
        assert first["ok"] and first["request_id"] == 1
        assert not waited["ok"]
        assert waited["error"] == "unknown request_id True"

    def test_malformed_lines_get_error_responses(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                def raw(payload: bytes):
                    client._sock.sendall(payload)
                    return decode_line(client._read_line())

                garbage = await call(raw, b"this is not json\n")
                array = await call(raw, b"[1,2,3]\n")
                # the connection survived both: a real op still works
                health = await call(client.health)
            finally:
                await call(client.close)
            return garbage, array, health

        (garbage, array, health), _, _ = _run_with_daemon(config, scenario)
        assert not garbage["ok"] and "malformed" in garbage["error"]
        assert not array["ok"]
        assert health["ok"] and health["health"]["ok"]

    def test_overload_sheds_with_retry_after(self, tmp_path):
        config = _config(
            tmp_path, workers=1, queue_limit=2, tenant_quota=10,
            time_scale=100.0,  # slow transfers: the queue actually fills
        )

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                responses = [
                    await call(client.submit, [4e9], tenant="t")
                    for _ in range(6)
                ]
            finally:
                await call(client.close)
            return responses

        responses, _, daemon = _run_with_daemon(config, scenario)
        admitted = [r for r in responses if r["ok"]]
        shed = [r for r in responses if not r["ok"]]
        assert len(admitted) == 2 and len(shed) == 4
        for r in shed:
            assert r["status"] == "rejected"
            assert r["reason"] == "queue-full"
            assert r["retry_after_s"] > 0
        assert daemon.metrics.n_shed == 4
        assert daemon.admission.shed["queue-full"] == 4
        # everything admitted still settled
        assert daemon.metrics.n_lost == 0

    def test_tenant_quota_protects_other_tenants(self, tmp_path):
        config = _config(
            tmp_path, workers=1, queue_limit=10, tenant_quota=1,
            time_scale=100.0,
        )

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                first = await call(client.submit, [4e9], tenant="noisy")
                second = await call(client.submit, [4e9], tenant="noisy")
                other = await call(client.submit, [4e9], tenant="polite")
            finally:
                await call(client.close)
            return first, second, other

        (first, second, other), _, daemon = _run_with_daemon(config, scenario)
        assert first["ok"] and other["ok"]
        assert not second["ok"] and second["reason"] == "tenant-quota"
        assert daemon.metrics.n_lost == 0

    def test_starved_deadline_degrades_to_ip_and_succeeds(self, tmp_path):
        # 80 GB at circuit rate is 400 s; with the 1.25 safety factor and
        # >= 1 s signalling the VC plan needs > 501 s, so a 490 s budget
        # always degrades — and the routed path (457 s) makes the deadline
        config = _config(tmp_path, ip_rate_bps=1.4e9)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                resp = await call(
                    client.submit, [80e9], tenant="t",
                    deadline_s=490.0, wait=True,
                )
            finally:
                await call(client.close)
            return resp

        resp, _, daemon = _run_with_daemon(config, scenario)
        assert resp["ok"], resp
        assert resp["state"] == "succeeded"
        assert resp["path"] == PathChoice.IP_DEGRADED.value
        assert daemon.metrics.n_degraded == 1
        assert daemon.stats.n_fallbacks == 1

    def test_reservation_storm_falls_back_to_ip(self, tmp_path):
        # every createReservation rejected: retries exhaust, and the
        # request recovers on the routed path instead of failing
        config = _config(
            tmp_path, reject_prob=1.0, backoff_max_retries=2,
        )

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                resp = await call(
                    client.submit, [1e9], tenant="t", wait=True
                )
            finally:
                await call(client.close)
            return resp

        resp, _, daemon = _run_with_daemon(config, scenario)
        assert resp["state"] == "succeeded"
        assert resp["path"] == PathChoice.IP_FALLBACK.value
        assert daemon.stats.n_gave_up >= 1 or daemon.stats.n_retries >= 1

    def test_crash_op_restarts_the_loop_and_work_continues(self, tmp_path):
        config = _config(tmp_path, workers=1, chaos_ops=True)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                assert (await call(client.crash))["ok"]
                # give the panic + supervised restart a moment
                await asyncio.sleep(0.3)
                resp = await call(
                    client.submit, [2e9], tenant="t", wait=True
                )
                health = await call(client.health)
            finally:
                await call(client.close)
            return resp, health

        (resp, health), _, daemon = _run_with_daemon(config, scenario)
        assert resp["state"] == "succeeded"
        assert daemon.supervisor.n_restarts == 1
        assert daemon.supervisor.dead_loops() == []
        assert health["health"]["ok"]  # restarting is not unhealthy

    def test_crash_op_disabled_by_default(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                resp = await call(client.crash)
            finally:
                await call(client.close)
            return resp

        resp, _, _ = _run_with_daemon(config, scenario)
        assert not resp["ok"] and "disabled" in resp["error"]

    def test_wait_op_and_unknown_request_id(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                sub = await call(client.submit, [1e9], tenant="t")
                settled = await call(client.wait, sub["request_id"])
                unknown = await call(client.wait, 999)
            finally:
                await call(client.close)
            return settled, unknown

        (settled, unknown), _, _ = _run_with_daemon(config, scenario)
        assert settled["state"] == "succeeded"
        assert not unknown["ok"] and "unknown request_id" in unknown["error"]

    def test_status_reports_queue_and_tenants(self, tmp_path):
        config = _config(
            tmp_path, workers=1, queue_limit=5, time_scale=100.0,
        )

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                for _ in range(3):
                    await call(client.submit, [4e9], tenant="t")
                status = (await call(client.status))["status"]
            finally:
                await call(client.close)
            return status

        status, _, _ = _run_with_daemon(config, scenario)
        assert status["outstanding"] == 3
        assert status["queue_limit"] == 5
        assert status["tenants"] == {"t": 3}
        assert status["metrics"]["n_accepted"] == 3

    def test_drain_checkpoints_unfinished_requests(self, tmp_path):
        # one worker, glacial clock: the transfers cannot finish inside
        # the tiny grace window, so drain must checkpoint all of them
        config = _config(
            tmp_path, workers=1, time_scale=1.0, drain_grace_s=0.1,
        )

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                a = await call(client.submit, [8e9], tenant="t")
                b = await call(client.submit, [8e9], tenant="t")
                await asyncio.sleep(0.2)  # a is active, b still queued
            finally:
                await call(client.close)
            return a, b

        (a, b), exit_code, daemon = _run_with_daemon(config, scenario)
        assert exit_code == EXIT_DRAINED
        assert a["ok"] and b["ok"]
        assert daemon.metrics.n_checkpointed == 2
        assert daemon.metrics.n_lost == 0
        assert daemon.admission.outstanding == 0
        path = config.effective_checkpoint_path
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        assert lines[0]["kind"] == "service-checkpoint"
        entries = {e["request_id"]: e for e in lines[1:]}
        assert set(entries) == {a["request_id"], b["request_id"]}
        assert entries[a["request_id"]]["state"] == "active"
        assert entries[b["request_id"]]["state"] == "queued"
        report = daemon.drain_report
        assert report["n_checkpointed"] == 2
        assert report["checkpoint_path"] == path
        assert report["metrics"]["n_lost"] == 0

    def test_drain_report_settles_the_ledger(self, tmp_path):
        config = _config(tmp_path)

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                for _ in range(3):
                    await call(client.submit, [1e9], tenant="t", wait=True)
            finally:
                await call(client.close)

        _, exit_code, daemon = _run_with_daemon(config, scenario)
        assert exit_code == EXIT_DRAINED
        report = daemon.drain_report
        assert report["exit_code"] == EXIT_DRAINED
        m = report["metrics"]
        assert m["n_accepted"] == m["n_settled"] == 3
        assert m["n_lost"] == 0
        assert report["checkpoint_path"] is None


# ---------------------------------------------------------------------------
# crash-requeue bookkeeping (the supervisor hook, driven directly)


class TestCrashRequeue:
    def _daemon_with_active_request(self, tmp_path):
        config = _config(tmp_path, max_crash_requeues=1)
        daemon = TransferDaemon(config)
        daemon._queue = asyncio.Queue()
        # the request's lifecycle up to "a worker holds it", as the
        # daemon's submit op and work loop drive it through the core
        req = daemon.core.submit("t", [1e9], None)
        req.settled = asyncio.Event()
        assert daemon.core.start() is req
        daemon._current["worker-0"] = req
        return daemon, req

    def test_first_crash_requeues_the_held_request(self, tmp_path):
        async def scenario():
            daemon, req = self._daemon_with_active_request(tmp_path)
            daemon._on_loop_crash("worker-0", RuntimeError("boom"))
            assert req.state == "queued"
            assert req.crash_requeues == 1
            assert req.admission_stage == "queued"
            assert daemon.admission.queued == 1
            assert daemon.admission.in_flight == 0
            assert daemon._queue.qsize() == 1
            assert daemon._current["worker-0"] is None
            assert not req.settled.is_set()

        asyncio.run(scenario())

    def test_requeue_budget_exhausts_into_failure(self, tmp_path):
        async def scenario():
            daemon, req = self._daemon_with_active_request(tmp_path)
            daemon._on_loop_crash("worker-0", RuntimeError("boom"))
            # the request goes back in flight and the loop dies again
            assert daemon.core.start() is req
            daemon._current["worker-0"] = req
            daemon._on_loop_crash("worker-0", RuntimeError("boom again"))
            assert req.state == "failed"
            assert "crashed" in req.error
            assert req.settled.is_set()
            assert daemon.admission.outstanding == 0
            assert daemon.metrics.n_failed == 1
            assert daemon.metrics.n_lost == 0

        asyncio.run(scenario())

    def test_crash_with_no_held_request_is_a_no_op(self, tmp_path):
        async def scenario():
            daemon, req = self._daemon_with_active_request(tmp_path)
            daemon._current["worker-0"] = None
            daemon._on_loop_crash("worker-0", RuntimeError("idle crash"))
            assert req.state == "active"
            assert daemon.admission.in_flight == 1

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# retry-after lives in wall seconds (the clock-domain regression)


class TestRetryAfterClockDomain:
    def _settled_request(self, queue_wait_wall_s, exec_wall_s):
        """Settle one request through the service core on a hand-cranked
        virtual clock (time_scale 3000) whose queue-wait and execution
        phases last the given wall seconds; return the admission
        controller after."""
        time_scale = 3000.0
        clock = FakeClock()
        sched = make_scheduler("fcfs")
        core = ServiceCore(sched, clock, time_scale, BatchSignalling())
        req = core.submit("t", [1e9], None)
        clock.t += queue_wait_wall_s * time_scale  # queue wait passes
        assert core.start() is req
        clock.t += exec_wall_s * time_scale  # execution passes
        core.settle(req, "succeeded")
        assert req.state == "succeeded"
        return sched.admission

    def test_hint_is_wall_seconds_under_a_scaled_clock(self):
        # 0.05 real s of execution is 150 *virtual* seconds at
        # time_scale=3000.  The pre-fix code fed budget.elapsed()
        # (virtual seconds since submit) straight into the EWMA, so the
        # hint a client would sleep on its wall clock came out hundreds
        # of seconds instead of ~1.
        admission = self._settled_request(
            queue_wait_wall_s=0.2, exec_wall_s=0.05
        )
        assert admission._ewma_service_s is not None
        assert admission._ewma_service_s < 0.1  # wall, not virtual
        assert admission.retry_after_s() < 2.0

    def test_ewma_measures_execution_not_queue_wait(self):
        # queue wait (0.2 real s) dwarfs execution (0.05 real s): the
        # EWMA must see only the execution phase.  Measuring from submit
        # would read ~0.25 and compound every backlogged rejection.
        admission = self._settled_request(
            queue_wait_wall_s=0.2, exec_wall_s=0.05
        )
        assert abs(admission._ewma_service_s - 0.05) < 0.02

    def test_rejection_hint_over_the_socket_stays_wall_small(self, tmp_path):
        # end to end: settle a slow request under time_scale=3000, then
        # overflow the queue and read the hint a real client receives
        config = _config(
            tmp_path, workers=1, queue_limit=2, tenant_quota=2
        )

        async def scenario(daemon, call):
            client = await call(ServiceClient, config.socket_path)
            try:
                first = await call(
                    client.submit, [4e9], tenant="t", wait=True
                )
                assert first["ok"] and first["state"] == "succeeded"
                a = await call(client.submit, [8e9, 8e9], tenant="t")
                b = await call(client.submit, [8e9, 8e9], tenant="t")
                assert a["ok"] and b["ok"]
                rej = await call(client.submit, [4e9], tenant="t")
            finally:
                await call(client.close)
            return rej

        rej, exit_code, daemon = _run_with_daemon(config, scenario)
        assert exit_code == EXIT_DRAINED
        assert rej["status"] == "rejected"
        assert rej["reason"] == "queue-full"
        # the settled request ran for tens of *virtual* seconds (batch
        # signalling alone is up to 61); its wall footprint was tens of
        # milliseconds.  The hint must be in the client's clock domain.
        assert 0 < rej["retry_after_s"] < 5.0
