"""The crash-safe spool: claims, leases, dedupe, cancel, recovery.

These tests drive :class:`JobStore` directly (no HTTP, no workers) and
poke at its on-disk state to simulate crashes: torn records, expired
leases, stale markers.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import JobStore
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING

FAKE_RUN = {
    "candidates_total": 4,
    "evaluated": 4,
    "cache_hits": 0,
    "wall_s": 0.1,
    "ranking": [],
}


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "spool")


class TestSubmitAndLookup:
    def test_submit_round_trip(self, store, sweep_request):
        record = store.submit(sweep_request)
        assert record.state == QUEUED
        assert store.queued_count() == 1
        loaded = store.get(record.id)
        assert loaded.to_json_dict() == record.to_json_dict()
        assert loaded.digest == sweep_request.digest()

    def test_get_unknown_is_404(self, store):
        with pytest.raises(ServiceError) as excinfo:
            store.get("j0000000000000000-deadbeef")
        assert excinfo.value.status == 404

    def test_list_in_submission_order(self, store, sweep_request):
        ids = [store.submit(sweep_request).id for _ in range(3)]
        assert [record.id for record in store.list()] == ids
        assert [r.id for r in store.list(state=QUEUED)] == ids
        assert store.list(state=DONE) == []

    def test_submit_finished_fast_path(self, store, sweep_request):
        record = store.submit_finished(
            sweep_request, DONE, run_json=FAKE_RUN, served="cache"
        )
        assert record.terminal
        assert store.queued_count() == 0
        assert store.result(record.id) == FAKE_RUN
        assert store.get(record.id).summary["evaluated"] == 4


class TestClaimLifecycle:
    def test_claim_runs_oldest_first(self, store, sweep_request):
        first = store.submit(sweep_request)
        store.submit(sweep_request)
        claimed = store.claim_next("w0", lease_s=30.0)
        assert claimed.id == first.id
        assert claimed.state == RUNNING
        assert claimed.attempts == 1
        assert claimed.owner == "w0"
        assert store.running_count() == 1
        lease = store.lease_of(first.id)
        assert lease["owner"] == "w0"
        assert lease["expires"] > time.time()

    def test_heartbeat_extends_and_counts(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=30.0)
        before = store.lease_of(record.id)
        store.heartbeat(record.id, "w0", lease_s=30.0)
        after = store.lease_of(record.id)
        assert after["heartbeats"] == before["heartbeats"] + 1
        assert after["expires"] >= before["expires"]

    def test_finish_done_publishes_result_first(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=30.0)
        final = store.finish(
            record.id, DONE, run_json=FAKE_RUN, served="evaluated"
        )
        assert final.state == DONE
        assert final.summary["candidates"] == 4
        assert store.result(record.id) == FAKE_RUN
        assert store.queued_count() == store.running_count() == 0
        assert store.lease_of(record.id) is None
        # terminal jobs are not claimable
        assert store.claim_next("w1", lease_s=30.0) is None

    def test_result_of_unfinished_job_conflicts(self, store, sweep_request):
        record = store.submit(sweep_request)
        with pytest.raises(ServiceError) as excinfo:
            store.result(record.id)
        assert excinfo.value.status == 409
        store.claim_next("w0", lease_s=30.0)
        store.finish(record.id, FAILED, error="boom")
        with pytest.raises(ServiceError) as excinfo:
            store.result(record.id)
        assert excinfo.value.status == 404

    def test_release_requeues_keeping_attempts(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=30.0)
        released = store.release(record.id)
        assert released.state == QUEUED
        assert released.attempts == 1
        reclaimed = store.claim_next("w1", lease_s=30.0)
        assert reclaimed.id == record.id
        assert reclaimed.attempts == 2


class TestDigestDedupe:
    def test_same_digest_never_runs_concurrently(self, store, sweep_request):
        first = store.submit(sweep_request)
        second = store.submit(sweep_request)
        assert first.digest == second.digest
        assert store.claim_next("w0", lease_s=30.0).id == first.id
        # the twin is skipped while the primary is in flight
        assert store.claim_next("w1", lease_s=30.0) is None
        store.finish(first.id, DONE, run_json=FAKE_RUN, served="evaluated")
        follower = store.claim_next("w1", lease_s=30.0)
        assert follower.id == second.id

    def test_racing_claims_of_one_digest_run_one_job(self, tmp_path, sweep_request):
        """Threads claiming twins at once: exactly one job may run.

        A twin must never read the primary's digest marker before the
        primary's id is in it (it would take the marker for stale).
        """
        threads_n = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(15):
                store = JobStore(tmp_path / f"spool{round_}")
                for _ in range(threads_n):
                    store.submit(sweep_request)
                barrier = threading.Barrier(threads_n)
                claimed = []

                def claim(worker):
                    barrier.wait(timeout=10.0)
                    claimed.append(store.claim_next(worker, lease_s=30.0))

                threads = [
                    threading.Thread(target=claim, args=(f"w{i}",))
                    for i in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert len(claimed) == threads_n
                assert sum(record is not None for record in claimed) == 1
        finally:
            sys.setswitchinterval(previous)

    def test_distinct_digests_run_concurrently(self, store, sweep_request):
        from tests.service.conftest import request_with_duration

        store.submit(sweep_request)
        store.submit(request_with_duration(4_000))
        assert store.claim_next("w0", lease_s=30.0) is not None
        assert store.claim_next("w1", lease_s=30.0) is not None
        assert store.running_count() == 2


class TestCancel:
    def test_cancel_queued_is_immediate(self, store, sweep_request):
        record = store.submit(sweep_request)
        final, disposition = store.cancel(record.id)
        assert disposition == "cancelled"
        assert final.state == CANCELLED
        assert store.claim_next("w0", lease_s=30.0) is None

    def test_cancel_running_is_cooperative(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=30.0)
        current, disposition = store.cancel(record.id)
        assert disposition == "requested"
        assert current.state == RUNNING
        assert store.cancel_requested(record.id)
        final = store.finish(record.id, CANCELLED)
        assert final.state == CANCELLED
        assert not store.cancel_requested(record.id)

    def test_cancel_terminal_is_noop(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=30.0)
        store.finish(record.id, DONE, run_json=FAKE_RUN)
        final, disposition = store.cancel(record.id)
        assert disposition == "terminal"
        assert final.state == DONE


class TestRecovery:
    def test_expired_lease_requeues(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=0.01)
        time.sleep(0.05)
        stats = store.recover()
        assert stats["requeued"] == 1
        assert store.get(record.id).state == QUEUED
        assert store.claim_next("w1", lease_s=30.0).id == record.id

    def test_fresh_lease_survives_recovery(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=60.0)
        stats = store.recover()
        assert stats["requeued"] == 0
        assert store.get(record.id).state == RUNNING

    def test_reap_expired_is_the_online_recovery(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=0.01)
        time.sleep(0.05)
        assert store.reap_expired() == 1
        assert store.get(record.id).state == QUEUED
        # a live lease is never reaped
        store.claim_next("w1", lease_s=60.0)
        assert store.reap_expired(grace_s=60.0) == 0
        assert store.get(record.id).state == RUNNING

    def test_torn_record_is_reported_not_fatal(self, store, sweep_request):
        good = store.submit(sweep_request)
        torn = store.jobs_dir / "j0000000000000000-torntorn.json"
        torn.write_text('{"id": "j0000', encoding="utf-8")
        stats = store.recover()
        assert len(stats["unreadable"]) == 1
        assert store.get(good.id).state == QUEUED
        assert [record.id for record in store.list()] == [good.id]

    def test_stale_markers_are_rebuilt(self, store, sweep_request):
        record = store.submit(sweep_request)
        # simulate a crash that left a bogus running marker + orphans
        (store.running_dir / record.id).touch()
        (store.queued_dir / "j0000000000000000-orphaned").touch()
        (store.active_dir / "deadbeef").write_text("gone", encoding="ascii")
        store.recover()
        assert store.running_count() == 0
        assert store.queued_count() == 1
        assert not (store.active_dir / "deadbeef").exists()

    def test_stale_claim_of_queued_job_is_released(self, store, sweep_request):
        record = store.submit(sweep_request)
        (store.claims_dir / record.id).touch()  # claimant died pre-running
        assert store.claim_next("w0", lease_s=30.0) is None
        store.recover()
        assert store.claim_next("w0", lease_s=30.0).id == record.id

    def test_every_spool_file_is_valid_json(self, store, sweep_request):
        record = store.submit(sweep_request)
        store.claim_next("w0", lease_s=30.0)
        store.finish(record.id, DONE, run_json=FAKE_RUN, served="evaluated")
        for path in store.root.rglob("*.json"):
            json.loads(path.read_text(encoding="utf-8"))
