"""Persistent, crash-safe job spool shared by servers and workers.

The spool is a plain directory tree — no database, no broker — so any
number of worker processes (on any number of machines, when the spool
and the result cache sit on a shared filesystem) can cooperate with any
number of HTTP frontends, and a killed process loses nothing::

    <spool>/
      jobs/<id>.json       job records (atomic temp-file + os.replace)
      results/<id>.json    full campaign result JSON per finished job
      index/queued/<id>    empty state-marker files: O(1) queue depth,
      index/running/<id>   claim scans without reading job records
      claims/<id>          O_EXCL claim files — exactly one owner may
                           transition a job out of ``queued``
      leases/<id>.json     worker heartbeat leases for running jobs
      active/<digest>      in-flight request-digest markers (dedupe)
      cancel/<id>          cooperative cancel-request markers

Every write goes through :func:`repro.util.fsio.write_json_atomic` (or
is an empty marker file), so a reader never sees torn JSON and a crash
at any instant leaves either the old or the new state.  The markers are
best-effort acceleration — the job record is always the source of
truth — and :meth:`JobStore.recover` reconciles them after a crash.

Concurrency contract:

* **Claims** serialise state transitions per job: ``O_CREAT|O_EXCL`` on
  ``claims/<id>`` has exactly one winner across processes and machines.
* **Leases** make crashes detectable: a running job whose lease expired
  is returned to ``queued`` by :meth:`recover` (and by any worker that
  finds it), so a SIGKILL-ed worker forfeits only its in-flight attempt.
* **Digest markers** prevent *concurrent duplicate evaluation*: while a
  job for digest D runs, other queued jobs with digest D are skipped;
  once it finishes they run against a warm content-addressed cache and
  evaluate nothing.  The marker is an optimisation, never a correctness
  requirement — a stale marker is stolen, and the worst case of every
  race is duplicated work against an idempotent cache, never a wrong or
  torn result.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobRequest,
    job_sort_key,
    run_summary,
    validate_job_id,
)
from repro.util.fsio import ensure_parent, write_json_atomic

import json


class JobStore:
    """One spool directory (see module docstring for the layout)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.queued_dir = self.root / "index" / "queued"
        self.running_dir = self.root / "index" / "running"
        self.claims_dir = self.root / "claims"
        self.leases_dir = self.root / "leases"
        self.active_dir = self.root / "active"
        self.cancel_dir = self.root / "cancel"
        for directory in (
            self.jobs_dir,
            self.results_dir,
            self.queued_dir,
            self.running_dir,
            self.claims_dir,
            self.leases_dir,
            self.active_dir,
            self.cancel_dir,
        ):
            # ensure_parent is the repo-wide invariant for artefact
            # writers; pointing it at a file inside the directory creates
            # the directory itself (nested spool paths included)
            ensure_parent(directory / ".keep")

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    @staticmethod
    def new_job_id() -> str:
        """Time-prefixed unique id — lexicographic order ~ submission order."""
        return f"j{time.time_ns():016x}-{uuid.uuid4().hex[:8]}"

    # ------------------------------------------------------------------
    # submission and lookup
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobRecord:
        """Spool a new queued job; returns its record."""
        record = JobRecord(
            id=self.new_job_id(),
            state=QUEUED,
            request=request.to_json_dict(),
            digest=request.digest(),
            submitted=time.time(),
        )
        write_json_atomic(self.job_path(record.id), record.to_json_dict())
        self._touch(self.queued_dir / record.id)
        return record

    def submit_finished(
        self,
        request: JobRequest,
        state: str,
        run_json: Optional[Dict[str, object]] = None,
        served: Optional[str] = None,
        error: Optional[str] = None,
    ) -> JobRecord:
        """Spool a job that is already terminal (the cache fast path)."""
        now = time.time()
        record = JobRecord(
            id=self.new_job_id(),
            state=state,
            request=request.to_json_dict(),
            digest=request.digest(),
            submitted=now,
            started=now,
            finished=now,
            served=served,
            error=error,
            summary=run_summary(run_json) if run_json is not None else None,
        )
        if run_json is not None:
            write_json_atomic(self.result_path(record.id), run_json)
        write_json_atomic(self.job_path(record.id), record.to_json_dict())
        return record

    def get(self, job_id: str) -> JobRecord:
        """The job's record (raises ``ServiceError(status=404)`` if absent)."""
        validate_job_id(job_id)
        try:
            with open(self.job_path(job_id), "r", encoding="utf-8") as handle:
                return JobRecord.from_json_dict(json.load(handle))
        except FileNotFoundError:
            raise ServiceError(f"no such job: {job_id}", status=404)
        except (OSError, ValueError, KeyError) as exc:
            raise ServiceError(f"unreadable job record {job_id}: {exc}")

    def result(self, job_id: str) -> Dict[str, object]:
        """A finished job's full campaign result JSON."""
        record = self.get(job_id)
        if record.state != DONE:
            raise ServiceError(
                f"job {job_id} has no result (state: {record.state})",
                status=409 if not record.terminal else 404,
            )
        try:
            with open(self.result_path(job_id), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"unreadable result for {job_id}: {exc}")

    def list(self, state: Optional[str] = None) -> List[JobRecord]:
        """Every readable job record, in submission order."""
        records = []
        for name in os.listdir(self.jobs_dir):
            if not name.endswith(".json"):
                continue
            try:
                records.append(self.get(name[: -len(".json")]))
            except ServiceError:
                continue  # torn/foreign file: skip, recover() reports it
        if state is not None:
            records = [record for record in records if record.state == state]
        return sorted(records, key=job_sort_key)

    def queued_count(self) -> int:
        return self._count(self.queued_dir)

    def running_count(self) -> int:
        return self._count(self.running_dir)

    # ------------------------------------------------------------------
    # worker protocol: claim -> heartbeat -> finish | release
    # ------------------------------------------------------------------

    def claim_next(
        self, owner: str, lease_s: float
    ) -> Optional[JobRecord]:
        """Claim the oldest runnable queued job for ``owner``.

        Skips jobs whose request digest is already being evaluated by a
        live job (the dedupe that turns N identical concurrent
        submissions into one evaluation plus N cache serves).  Returns
        None when nothing is claimable right now.
        """
        for job_id in sorted(os.listdir(self.queued_dir)):
            if not self._try_claim(job_id):
                continue
            try:
                record = self.get(job_id)
            except ServiceError:
                self._remove(self.queued_dir / job_id)
                self._release_claim(job_id)
                continue
            if record.state != QUEUED:
                self._sync_markers(record)
                self._release_claim(job_id)
                continue
            if self.cancel_requested(job_id):
                self.finish(job_id, CANCELLED)
                continue
            if not self._acquire_digest(record):
                self._release_claim(job_id)
                continue
            record.state = RUNNING
            record.started = time.time()
            record.owner = owner
            record.attempts += 1
            self.heartbeat(job_id, owner, lease_s, _reset=True)
            write_json_atomic(self.job_path(job_id), record.to_json_dict())
            self._touch(self.running_dir / job_id)
            self._remove(self.queued_dir / job_id)
            return record
        return None

    def heartbeat(
        self, job_id: str, owner: str, lease_s: float, _reset: bool = False
    ) -> None:
        """Extend the worker's lease on a running job."""
        beats = 0
        if not _reset:
            lease = self._read_lease(job_id)
            beats = int(lease.get("heartbeats", 0)) if lease else 0
        write_json_atomic(
            self.leases_dir / f"{job_id}.json",
            {
                "owner": owner,
                "expires": time.time() + lease_s,
                "heartbeats": beats + (0 if _reset else 1),
            },
        )

    def lease_of(self, job_id: str) -> Optional[Dict[str, object]]:
        """The job's current lease (owner, expiry, heartbeat count)."""
        return self._read_lease(job_id)

    def finish(
        self,
        job_id: str,
        state: str,
        run_json: Optional[Dict[str, object]] = None,
        served: Optional[str] = None,
        error: Optional[str] = None,
    ) -> JobRecord:
        """Transition a claimed job to a terminal state.

        The result file is published *before* the record flips to
        ``done``, so a crash between the two writes re-runs the job and
        atomically overwrites the result with byte-identical content
        (the campaign is deterministic) — a reader that sees ``done``
        always finds a complete result.
        """
        record = self.get(job_id)
        if state not in (DONE, FAILED, CANCELLED):
            raise ServiceError(f"finish() needs a terminal state, got {state}")
        if run_json is not None:
            write_json_atomic(self.result_path(job_id), run_json)
            record.summary = run_summary(run_json)
        record.state = state
        record.finished = time.time()
        record.served = served
        record.error = error
        write_json_atomic(self.job_path(job_id), record.to_json_dict())
        self._remove(self.queued_dir / job_id)
        self._remove(self.running_dir / job_id)
        self._remove(self.leases_dir / f"{job_id}.json")
        self._remove(self.cancel_dir / job_id)
        self._release_digest(record)
        self._release_claim(job_id)
        return record

    def release(self, job_id: str) -> JobRecord:
        """Return a claimed/running job to the queue (drain, crash repair).

        The attempt count is kept — a job endlessly bounced by crashing
        workers stays visible in its record.
        """
        record = self.get(job_id)
        record.state = QUEUED
        record.owner = ""
        write_json_atomic(self.job_path(job_id), record.to_json_dict())
        self._touch(self.queued_dir / job_id)
        self._remove(self.running_dir / job_id)
        self._remove(self.leases_dir / f"{job_id}.json")
        self._release_claim(job_id)
        return record

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------

    def cancel(self, job_id: str) -> Tuple[JobRecord, str]:
        """Cancel a job; returns ``(record, disposition)``.

        Dispositions: ``"cancelled"`` (a queued job, cancelled here and
        now), ``"requested"`` (a running job — the worker aborts at its
        next candidate boundary), ``"terminal"`` (nothing to do).
        """
        record = self.get(job_id)
        if record.terminal:
            return record, "terminal"
        if self._try_claim(job_id):
            record = self.get(job_id)
            if record.terminal:  # finished between the read and the claim
                self._release_claim(job_id)
                return record, "terminal"
            return self.finish(job_id, CANCELLED), "cancelled"
        # a worker holds the claim: leave a cooperative cancel request
        self._touch(self.cancel_dir / job_id)
        return record, "requested"

    def cancel_requested(self, job_id: str) -> bool:
        return (self.cancel_dir / job_id).exists()

    def reap_expired(self, grace_s: float = 0.0) -> int:
        """Requeue running jobs whose worker stopped heartbeating.

        The lease expiry already encodes one lease period past the last
        heartbeat; ``grace_s`` adds slack on top (callers typically pass
        another lease period, so a worker must go silent for two periods
        — i.e. across two candidate boundaries — before its job is taken
        away).  If the worker was merely slow, the worst case is a
        duplicate evaluation against the idempotent cache: the record
        ends ``done`` either way, with identical bytes.  Returns the
        number of jobs requeued.
        """
        requeued = 0
        now = time.time()
        for job_id in sorted(os.listdir(self.running_dir)):
            try:
                record = self.get(job_id)
            except ServiceError:
                self._remove(self.running_dir / job_id)
                continue
            if record.state != RUNNING:
                self._sync_markers(record)
                continue
            lease = self._read_lease(job_id)
            expires = float(lease["expires"]) if lease else 0.0
            if expires + grace_s >= now:
                continue
            self.release(job_id)
            requeued += 1
        return requeued

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def recover(self, lease_grace_s: float = 0.0) -> Dict[str, object]:
        """Reconcile the spool after a crash or unclean shutdown.

        Re-queues running jobs whose lease expired more than
        ``lease_grace_s`` ago (their worker is gone), removes stale
        claims and digest markers, rebuilds the state-marker index from
        the job records, and reports unreadable records instead of
        failing on them.  Safe to run while live workers hold fresh
        leases — their jobs are left alone.
        """
        stats = {"requeued": 0, "unreadable": [], "stale_markers": 0}
        now = time.time()
        seen = set()
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            job_id = name[: -len(".json")]
            seen.add(job_id)
            try:
                record = self.get(job_id)
            except ServiceError as exc:
                stats["unreadable"].append(f"{job_id}: {exc}")
                continue
            if record.state == RUNNING:
                lease = self._read_lease(job_id)
                expires = float(lease["expires"]) if lease else 0.0
                if expires + lease_grace_s < now:
                    self.release(job_id)
                    stats["requeued"] += 1
                    continue
            elif record.state == QUEUED:
                # a claim without a live lease is a worker that died
                # between claiming and running; free the job again
                claim = self.claims_dir / job_id
                if claim.exists() and self._read_lease(job_id) is None:
                    self._release_claim(job_id)
                    stats["stale_markers"] += 1
            self._sync_markers(record)
        # markers pointing at deleted/foreign jobs
        for directory in (self.queued_dir, self.running_dir):
            for job_id in os.listdir(directory):
                if job_id not in seen:
                    self._remove(directory / job_id)
                    stats["stale_markers"] += 1
        # digest markers whose owning job is gone or terminal
        for digest in os.listdir(self.active_dir):
            owner_id = self._read_text(self.active_dir / digest)
            stale = True
            if owner_id and owner_id in seen:
                try:
                    stale = self.get(owner_id).terminal
                except ServiceError:
                    stale = True
            if stale:
                self._remove(self.active_dir / digest)
                stats["stale_markers"] += 1
        return stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _try_claim(self, job_id: str) -> bool:
        try:
            fd = os.open(
                self.claims_dir / job_id,
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def _release_claim(self, job_id: str) -> None:
        self._remove(self.claims_dir / job_id)

    def _acquire_digest(self, record: JobRecord) -> bool:
        """Own the in-flight marker for this request digest, or back off."""
        marker = self.active_dir / record.digest
        # the marker appears with its owner id already in it (a hard link
        # of a written temp file), so a twin never reads an empty marker
        # and mistakes it for a stale one
        tmp = marker.with_name(marker.name + f".{record.id}.tmp")
        tmp.write_text(record.id, encoding="ascii")
        try:
            os.link(tmp, marker)
            return True
        except FileExistsError:
            pass
        finally:
            self._remove(tmp)
        owner_id = self._read_text(marker)
        if owner_id == record.id:
            return True  # re-claim after a crash mid-run
        try:
            owner = self.get(owner_id) if owner_id else None
        except ServiceError:
            owner = None
        if owner is not None and not owner.terminal:
            return False  # live twin in flight: wait for its cache
        # stale marker: steal it (atomic replace)
        tmp.write_text(record.id, encoding="ascii")
        os.replace(tmp, marker)
        return True

    def _release_digest(self, record: JobRecord) -> None:
        marker = self.active_dir / record.digest
        if self._read_text(marker) == record.id:
            self._remove(marker)

    def _sync_markers(self, record: JobRecord) -> None:
        """Make the marker index agree with the record (truth wins)."""
        wanted = {
            QUEUED: self.queued_dir,
            RUNNING: self.running_dir,
        }.get(record.state)
        for directory in (self.queued_dir, self.running_dir):
            if directory is wanted:
                self._touch(directory / record.id)
            else:
                self._remove(directory / record.id)

    def _read_lease(self, job_id: str) -> Optional[Dict[str, object]]:
        try:
            with open(
                self.leases_dir / f"{job_id}.json", "r", encoding="utf-8"
            ) as handle:
                lease = json.load(handle)
            return lease if isinstance(lease, dict) else None
        except (OSError, ValueError):
            return None

    @staticmethod
    def _read_text(path: Path) -> Optional[str]:
        try:
            return path.read_text(encoding="ascii").strip()
        except OSError:
            return None

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            fd = os.open(path, os.O_CREAT | os.O_WRONLY)
            os.close(fd)
        except OSError:
            pass

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def _count(directory: Path) -> int:
        try:
            return len(os.listdir(directory))
        except OSError:
            return 0
