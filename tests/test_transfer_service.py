"""Unit tests for the managed transfer service (Globus-Online layer)."""

import numpy as np
import pytest

from repro.gridftp.reliability import FaultModel, RestartPolicy
from repro.gridftp.transfer_service import (
    ManagedTransferService,
    TaskState,
    TransferTask,
)


def flat_rate(_src, _dst):
    return 1e9


class TestTaskValidation:
    def test_empty_task_rejected(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (), 0.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (0.0,), 0.0)

    def test_bad_deadline(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (1.0,), 0.0, deadline_s=0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (1e9, -5.0), 0.0)

    def test_non_finite_size_rejected(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (float("nan"),), 0.0)
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (float("inf"),), 0.0)

    def test_bad_submitted_at_rejected(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (1e9,), -1.0)
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (1e9,), float("nan"))

    def test_non_finite_deadline_rejected(self):
        with pytest.raises(ValueError):
            TransferTask(0, 1, 2, (1e9,), 0.0, deadline_s=float("inf"))


class TestSubmitValidation:
    """`submit` refuses malformed requests before they reach the queue."""

    def test_empty_file_list(self):
        svc = ManagedTransferService(flat_rate)
        with pytest.raises(ValueError, match="at least one file"):
            svc.submit(1, 2, [])

    @pytest.mark.parametrize("sizes", [[0.0], [-1e9], [1e9, 0.0], [float("nan")]])
    def test_non_positive_sizes(self, sizes):
        svc = ManagedTransferService(flat_rate)
        with pytest.raises(ValueError):
            svc.submit(1, 2, sizes)

    def test_negative_submitted_at(self):
        svc = ManagedTransferService(flat_rate)
        with pytest.raises(ValueError):
            svc.submit(1, 2, [1e9], submitted_at=-0.5)

    def test_rejected_submission_leaves_no_trace(self):
        svc = ManagedTransferService(flat_rate)
        with pytest.raises(ValueError):
            svc.submit(1, 2, [-1.0])
        tid = svc.submit(1, 2, [1e9])
        log = svc.run()
        # the failed submit queued nothing; the service works normally
        assert svc.task(tid).state is TaskState.SUCCEEDED
        assert len(log) == 1


class TestHappyPath:
    def test_single_task_completes(self):
        svc = ManagedTransferService(flat_rate)
        tid = svc.submit(1, 2, [1e9, 2e9], submitted_at=100.0)
        log = svc.run()
        assert svc.task(tid).state is TaskState.SUCCEEDED
        assert len(log) == 2
        assert log.start[0] == 100.0
        assert log.duration[0] == pytest.approx(8.0)
        # second file starts when the first ends
        assert log.start[1] == pytest.approx(108.0)

    def test_log_hosts(self):
        svc = ManagedTransferService(flat_rate)
        svc.submit(3, 7, [1e9])
        log = svc.run()
        assert log.local_host[0] == 3
        assert log.remote_host[0] == 7

    def test_event_audit_trail(self):
        svc = ManagedTransferService(flat_rate)
        tid = svc.submit(1, 2, [1e9])
        svc.run()
        kinds = [e.event for e in svc.events_for(tid)]
        assert kinds == ["submitted", "activated", "succeeded"]

    def test_states_dashboard(self):
        svc = ManagedTransferService(flat_rate)
        svc.submit(1, 2, [1e9])
        svc.submit(1, 2, [1e9])
        svc.run()
        assert svc.states()[TaskState.SUCCEEDED] == 2
        assert svc.states()[TaskState.QUEUED] == 0


class TestConcurrencyAndFairness:
    def test_concurrency_cap_queues_excess(self):
        svc = ManagedTransferService(flat_rate, concurrency=1)
        a = svc.submit(1, 2, [1e9], submitted_at=0.0)
        b = svc.submit(1, 2, [1e9], submitted_at=0.0)
        svc.run()
        # both succeed; with one slot, task b only activates after a ends
        events_b = svc.events_for(b)
        assert [e.event for e in events_b] == ["submitted", "activated", "succeeded"]
        assert svc.task(a).state is TaskState.SUCCEEDED

    def test_waiting_task_starts_when_its_slot_frees(self):
        svc = ManagedTransferService(flat_rate, concurrency=1)
        a = svc.submit(1, 2, [1e9], submitted_at=0.0)
        b = svc.submit(1, 2, [1e9], submitted_at=0.0)
        log = svc.run()
        assert list(log.start) == [0.0, 8.0]
        (done_a,) = [e.time for e in svc.events_for(a) if e.event == "succeeded"]
        (start_b,) = [e.time for e in svc.events_for(b) if e.event == "activated"]
        assert done_a == start_b == 8.0
        # a task submitted after the slot frees starts at its submit time
        svc = ManagedTransferService(flat_rate, concurrency=1)
        svc.submit(1, 2, [1e9], submitted_at=0.0)
        svc.submit(1, 2, [1e9], submitted_at=20.0)
        assert list(svc.run().start) == [0.0, 20.0]

    def test_slots_go_to_the_queue_in_the_order_they_free(self):
        """The head of the queue takes the earliest slot to free, even
        when the loop reaches the other slot's last file first."""
        svc = ManagedTransferService(lambda _s, _d: 8e9, concurrency=2)
        svc.submit(1, 2, [100e9], submitted_at=0.0)  # ends at 100.0
        svc.submit(1, 2, [10e9], submitted_at=5.0)  # ends at 15.0
        first = svc.submit(1, 2, [1e9], submitted_at=6.0)
        second = svc.submit(1, 2, [1e9], submitted_at=7.0)
        svc.run()
        activated = {e.task_id: e.time for e in svc.events if e.event == "activated"}
        assert activated[first] == 15.0
        # the slot the first queued task frees, not the one at 100.0
        assert activated[second] == 16.0

    def test_round_robin_interleaves_files(self):
        """A long task does not starve a short one sharing the endpoint."""
        svc = ManagedTransferService(flat_rate, concurrency=2)
        long_task = svc.submit(1, 2, [1e9] * 10, submitted_at=0.0)
        short = svc.submit(1, 2, [1e9], submitted_at=0.0)
        svc.run()
        done = {e.task_id: e.time for e in svc.events if e.event == "succeeded"}
        assert done[short] < done[long_task]

    def test_bad_concurrency(self):
        with pytest.raises(ValueError):
            ManagedTransferService(flat_rate, concurrency=0)


class TestFaultsAndDeadlines:
    def test_faulty_files_retry_and_finish(self):
        svc = ManagedTransferService(
            flat_rate,
            fault_model=FaultModel(faults_per_hour=120.0),
            restart_policy=RestartPolicy(marker_interval_bytes=32e6),
            max_attempts_per_file=1000,
        )
        tid = svc.submit(1, 2, [4e9] * 5)
        log = svc.run(rng=np.random.default_rng(1))
        assert svc.task(tid).state is TaskState.SUCCEEDED
        assert len(log) == 5
        # faults inflate durations beyond the clean 32 s
        assert log.duration.sum() > 5 * 32.0

    def test_retry_exhaustion_fails_task(self):
        svc = ManagedTransferService(
            flat_rate,
            fault_model=FaultModel(faults_per_hour=50_000.0),
            restart_policy=RestartPolicy(marker_interval_bytes=None),
            max_attempts_per_file=2,
        )
        tid = svc.submit(1, 2, [10e9])
        svc.run(rng=np.random.default_rng(0))
        assert svc.task(tid).state is TaskState.FAILED

    def test_deadline_expiry_mid_batch(self):
        svc = ManagedTransferService(flat_rate)
        # 5 files x 8 s at 1 Gbps; 20 s budget -> expires partway
        tid = svc.submit(1, 2, [1e9] * 5, deadline_s=20.0)
        log = svc.run()
        task = svc.task(tid)
        assert task.state is TaskState.EXPIRED
        assert 1 <= task.files_done < 5
        assert len(log) == task.files_done

    def test_failed_task_keeps_partial_log(self):
        svc = ManagedTransferService(
            flat_rate,
            fault_model=FaultModel(faults_per_hour=50_000.0),
            restart_policy=RestartPolicy(marker_interval_bytes=None),
            max_attempts_per_file=2,
        )
        svc.submit(1, 2, [1e5, 10e9])  # tiny file succeeds, big one cannot
        log = svc.run(rng=np.random.default_rng(0))
        assert len(log) == 1
        assert log.size[0] == 1e5

    def test_failed_task_holds_its_slot_until_its_attempts_end(self):
        """A failed task settles when its last attempt ends, not at its
        failed file's start, so the next task activates no earlier."""
        svc = ManagedTransferService(
            flat_rate,
            concurrency=1,
            fault_model=FaultModel(3600.0),
            max_attempts_per_file=1,
        )
        big = svc.submit(1, 2, [32e9])
        small = svc.submit(1, 2, [1e9])
        svc.run(rng=np.random.default_rng(0))
        assert svc.task(big).state is TaskState.FAILED
        (failed_at,) = [e.time for e in svc.events_for(big) if e.event == "failed"]
        (activated_at,) = [
            e.time for e in svc.events_for(small) if e.event == "activated"
        ]
        assert failed_at > 0.0
        assert activated_at == failed_at


class TestRateCallable:
    def test_per_pair_rates_respected(self):
        def rate_for(src, dst):
            return 2e9 if (src, dst) == (1, 2) else 0.5e9

        svc = ManagedTransferService(rate_for, concurrency=2)
        fast = svc.submit(1, 2, [1e9])
        slow = svc.submit(3, 4, [1e9])
        log = svc.run()
        durations = {
            int(log.local_host[i]): float(log.duration[i]) for i in range(2)
        }
        assert durations[1] == pytest.approx(4.0)
        assert durations[3] == pytest.approx(16.0)
        assert svc.task(fast).state is svc.task(slow).state is TaskState.SUCCEEDED
