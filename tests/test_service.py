"""Exploration service: admission, journaling, recovery, sharing, isolation.

The contracts under test (DESIGN.md "Service"):

* **Admission** verdicts are concrete and decided at submit time —
  draining, queue-full, and memory-budget refusals raise
  :class:`~repro.errors.JobRejected` with the reason; invalid specs are
  :class:`~repro.errors.ExplorationError`, never a queue slot.
* **Journal** appends survive torn tails: replay stops at the first
  corrupt line and keeps everything before it; compaction is atomic.
* **Recovery** is byte-identical: a job interrupted by shutdown (or a
  simulated crash) finishes with exactly the trajectory of an
  uninterrupted run.
* **Sharing**: concurrent jobs profile through one cache (the second
  identical job factorizes nothing) and lease one shard pool.
* **Isolation**: one job's deadline expiry or crash fails that job
  alone; its neighbors complete untouched.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench import get_benchmark
from repro.circuit.simulate import words_for
from repro.core.explorer import ExplorerConfig, explore
from repro.errors import ExplorationError, JobRejected
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    ExplorationScheduler,
    JobJournal,
    JobRecord,
    JobSpec,
    ServiceClient,
    estimate_job_bytes,
    serve,
)

#: Small-but-real search: butterfly, 4 windows, ~21 committed iterations.
BASE = dict(n_samples=700, max_inputs=8, max_outputs=8, strategy="full",
            chunk_words=3)


def _spec(**over) -> JobSpec:
    config = dict(BASE)
    config.update(over.pop("config", {}))
    return JobSpec(bench="but", config=config, **over)


def _key(result_or_record):
    """Canonical trajectory key, from an ExplorationResult or JobRecord."""
    if isinstance(result_or_record, JobRecord):
        return result_or_record.trajectory_key()
    return [
        (p.iteration, p.window_index, p.f, float(p.qor), float(p.est_area),
         tuple(p.fs))
        for p in result_or_record.trajectory
    ]


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted in-process run every service result must match."""
    circuit = get_benchmark("but").factory()
    return explore(circuit, ExplorerConfig(**BASE))


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        events = [{"op": "submit", "n": i} for i in range(3)]
        for e in events:
            journal.append(e)
        assert JobJournal(tmp_path / "j.jsonl").replay() == events

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.append({"op": "submit", "n": 0})
        journal.append({"op": "submit", "n": 1})
        with open(path, "ab") as fh:  # a crash mid-append: no newline
            fh.write(b'{"rec": {"op": "subm')
        replayed = JobJournal(path)
        with pytest.warns(RuntimeWarning, match="dropping"):
            records = replayed.replay()
        assert records == [
            {"op": "submit", "n": 0}, {"op": "submit", "n": 1},
        ]
        assert replayed.dropped == 1

    def test_checksum_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        for i in range(3):
            journal.append({"op": "submit", "n": i})
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip payload bytes in the middle record; its CRC no longer
        # matches, so replay keeps record 0 and drops 1..end (a record
        # after a corrupt one cannot be trusted to be causally intact).
        lines[1] = lines[1].replace(b'"n":1', b'"n":9')
        path.write_bytes(b"".join(lines))
        replayed = JobJournal(path)
        with pytest.warns(RuntimeWarning, match="dropping"):
            records = replayed.replay()
        assert records == [{"op": "submit", "n": 0}]
        assert replayed.dropped == 2

    def test_compact_rewrites_atomically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        for i in range(10):
            journal.append({"op": "submit", "n": i})
        journal.compact([{"op": "submit", "n": 9}])
        assert JobJournal(path).replay() == [{"op": "submit", "n": 9}]
        assert not list(tmp_path.glob("*.tmp"))


class TestSpecValidation:
    def test_needs_exactly_one_circuit_source(self):
        with pytest.raises(ExplorationError, match="exactly one"):
            JobSpec(bench="but", blif=".model x\n.end\n").validate()
        with pytest.raises(ExplorationError, match="exactly one"):
            JobSpec().validate()

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ExplorationError, match="unknown config keys"):
            JobSpec(bench="but", config={"not_a_knob": 1}).validate()

    def test_checkpoint_keys_are_service_managed(self):
        # Clients cannot place checkpoints: the scheduler keys them off
        # the job id so recovery can find them.
        with pytest.raises(ExplorationError, match="unknown config keys"):
            JobSpec(bench="but", config={"checkpoint_path": "/x"}).validate()

    def test_bad_deadline_rejected(self):
        with pytest.raises(ExplorationError, match="deadline"):
            JobSpec(bench="but", deadline_s=0.0).validate()

    def test_estimate_matches_engine_budget_math(self):
        circuit = get_benchmark("but").factory()
        n_nodes = circuit.n_nodes
        resident = estimate_job_bytes(
            JobSpec(bench="but", config={"n_samples": 700}), circuit
        )
        assert resident == 8 * n_nodes * words_for(700)
        streaming = estimate_job_bytes(
            JobSpec(bench="but", config={
                "n_samples": 700, "chunk_words": 3, "shard_jobs": 2,
                "chunk_cache_chunks": 1,
            }),
            circuit,
        )
        assert streaming == (2 + 1) * 8 * n_nodes * 3 * 2


class TestAdmission:
    def test_queue_full_rejects_with_reason(self, tmp_path):
        sched = ExplorationScheduler(tmp_path, max_queue=1)
        sched.submit(_spec())
        with pytest.raises(JobRejected, match="queue full"):
            sched.submit(_spec())
        assert sched.stats.jobs_admitted == 1
        assert sched.stats.jobs_rejected == 1

    def test_memory_budget_rejects_with_reason(self, tmp_path):
        sched = ExplorationScheduler(tmp_path, max_memory_bytes=1)
        with pytest.raises(JobRejected, match="memory budget"):
            sched.submit(_spec())

    def test_draining_service_rejects(self, tmp_path):
        sched = ExplorationScheduler(tmp_path)
        sched.shutdown()
        with pytest.raises(JobRejected, match="shutting down"):
            sched.submit(_spec())

    def test_invalid_spec_is_not_an_admission_verdict(self, tmp_path):
        sched = ExplorationScheduler(tmp_path, max_queue=1)
        with pytest.raises(ExplorationError):
            sched.submit(JobSpec(bench="but", config={"bogus": 1}))
        # The refusal consumed no queue slot and no rejection counter.
        assert sched.stats.jobs_rejected == 0
        sched.submit(_spec())  # the slot is still free


class TestSchedulerJobs:
    def test_cross_job_cache_sharing_byte_identical(self, tmp_path, reference):
        # Two identical jobs through one scheduler and one shared cache:
        # the first populates it, the second profiles entirely from it —
        # zero new factorizations — and both trajectories are
        # byte-identical to the serial in-process reference.
        sched = ExplorationScheduler(tmp_path, max_concurrent=1)
        first = sched.submit(_spec())
        second = sched.submit(_spec())
        sched.start()
        try:
            rec1 = sched.wait(first, timeout=300)
            rec2 = sched.wait(second, timeout=300)
        finally:
            sched.shutdown(drain=True)
        assert rec1.state == DONE and rec2.state == DONE
        assert _key(rec1) == _key(reference)
        assert _key(rec2) == _key(reference)
        # 4 windows: 4 cold misses+stores from job 1, 4 warm hits for
        # job 2 — and the factorization total across BOTH jobs equals
        # one cold run's count.
        assert sched.cache.misses == sched.cache.stores == 4
        assert sched.cache.hits == 4
        assert (
            sched.stats.n_factorizations
            == reference.runtime_stats.n_factorizations
        )
        assert sched.stats.jobs_completed == 2

    def test_deadline_fails_in_isolation(self, tmp_path, reference):
        # An impossible deadline fails *that* job with the concrete
        # reason; the concurrent healthy job completes byte-identically.
        sched = ExplorationScheduler(tmp_path, max_concurrent=2)
        doomed = sched.submit(_spec(deadline_s=1e-4))
        healthy = sched.submit(_spec())
        sched.start()
        try:
            rec_doomed = sched.wait(doomed, timeout=300)
            rec_healthy = sched.wait(healthy, timeout=300)
        finally:
            sched.shutdown(drain=True)
        assert rec_doomed.state == FAILED
        assert "deadline exceeded" in rec_doomed.error
        assert rec_healthy.state == DONE
        assert _key(rec_healthy) == _key(reference)
        assert sched.stats.jobs_failed == 1
        assert sched.stats.jobs_completed == 1

    def test_crash_isolation(self, tmp_path, reference, monkeypatch):
        # A job whose exploration raises is FAILED with the exception;
        # nothing leaks into the next job on the same worker.
        import repro.service.scheduler as scheduler_mod

        real_explore = scheduler_mod.explore

        def exploding(circuit, config, *args, **kwargs):
            if config.seed == 999:  # the crasher's marker
                raise RuntimeError("injected job crash")
            return real_explore(circuit, config, *args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "explore", exploding)
        sched = ExplorationScheduler(tmp_path, max_concurrent=1)
        crasher = sched.submit(_spec(name="boom", config={"seed": 999}))
        healthy = sched.submit(_spec())
        sched.start()
        try:
            rec_crash = sched.wait(crasher, timeout=300)
            rec_ok = sched.wait(healthy, timeout=300)
        finally:
            sched.shutdown(drain=True)
        assert rec_crash.state == FAILED
        assert "RuntimeError: injected job crash" in rec_crash.error
        assert rec_ok.state == DONE and _key(rec_ok) == _key(reference)

    def test_cancel_queued_job(self, tmp_path, reference):
        sched = ExplorationScheduler(tmp_path, max_concurrent=1)
        keep = sched.submit(_spec())
        drop = sched.submit(_spec())
        # Workers have not started: both jobs are queued; cancelling the
        # second must not disturb the first.
        rec = sched.cancel(drop)
        assert rec.state == CANCELLED and "before start" in rec.error
        sched.start()
        try:
            rec_keep = sched.wait(keep, timeout=300)
        finally:
            sched.shutdown(drain=True)
        assert rec_keep.state == DONE and _key(rec_keep) == _key(reference)
        assert sched.stats.jobs_cancelled == 1

    def test_shared_pool_across_concurrent_jobs(self, tmp_path, reference):
        # Two concurrent jobs with identical streaming contexts lease
        # ONE shard pool (content-keyed), and sharing changes nothing:
        # both trajectories match the serial reference.
        sched = ExplorationScheduler(tmp_path, max_concurrent=2)
        a = sched.submit(_spec(config={"shard_jobs": 2}))
        b = sched.submit(_spec(config={"shard_jobs": 2}))
        sched.start()
        try:
            rec_a = sched.wait(a, timeout=600)
            rec_b = sched.wait(b, timeout=600)
        finally:
            sched.shutdown(drain=True)
        assert rec_a.state == DONE and rec_b.state == DONE
        assert _key(rec_a) == _key(reference)
        assert _key(rec_b) == _key(reference)
        assert sched.registry.pools_built == 1
        assert sched.registry.leases == 2
        # No fault was injected, so no shard may have been retried or
        # rerun in-process: the pooled workers handled both jobs' scans.
        assert sched.stats.n_shard_retries == 0
        assert sched.stats.n_shard_fallbacks == 0

    def test_worker_budget_degrades_to_in_process(self, tmp_path, reference):
        # A shard-worker budget below the request degrades the job to
        # in-process streaming — same bytes, no pool.
        sched = ExplorationScheduler(tmp_path, max_pool_workers=1)
        with pytest.warns(RuntimeWarning, match="budget"):
            job = sched.submit(_spec(config={"shard_jobs": 2}))
            sched.start()
            try:
                rec = sched.wait(job, timeout=300)
            finally:
                sched.shutdown(drain=True)
        assert rec.state == DONE and _key(rec) == _key(reference)
        assert sched.registry.pools_built == 0
        assert sched.registry.rejected_leases >= 1


class TestRecovery:
    def test_shutdown_checkpoints_then_restart_resumes(self, tmp_path, reference):
        # Graceful shutdown mid-job: the job stays non-terminal with a
        # flushed checkpoint; a new scheduler on the same journal
        # recovers it and the finished trajectory is byte-identical.
        sched = ExplorationScheduler(tmp_path)
        job = sched.submit(_spec())
        ckpt = sched._checkpoint_path(job)
        sched.start()
        deadline = time.monotonic() + 120
        while not ckpt.exists():
            if time.monotonic() > deadline:
                pytest.fail("checkpoint never appeared")
            if sched.status(job).terminal:
                pytest.skip("job finished before shutdown could interrupt")
            time.sleep(0.002)
        sched.shutdown(drain=False)
        if sched.status(job).terminal:  # pragma: no cover - tiny race
            pytest.skip("job finished before shutdown could interrupt")

        revived = ExplorationScheduler(tmp_path)
        assert revived.recover() == 1
        record = revived.status(job)
        assert record.state == QUEUED and record.resumed
        revived.start()
        try:
            finished = revived.wait(job, timeout=300)
        finally:
            revived.shutdown(drain=True)
        assert finished.state == DONE
        assert _key(finished) == _key(reference)
        assert revived.stats.jobs_recovered == 1
        assert not ckpt.exists()  # completion reclaims the checkpoint

    def test_recover_from_simulated_crash_journal(self, tmp_path, reference):
        # A journal that ends with a job in RUNNING and no result event
        # is exactly what kill -9 leaves behind; recovery re-runs the
        # job from scratch (no checkpoint was flushed) to the same bytes.
        journal = JobJournal(tmp_path / "journal.jsonl")
        record = JobRecord("job-0001", _spec(), state=QUEUED, seq=1)
        journal.append({"op": "submit", "job": record.to_dict()})
        journal.append({"op": "state", "job_id": "job-0001", "state": "running"})

        sched = ExplorationScheduler(tmp_path)
        assert sched.recover() == 1
        rec = sched.status("job-0001")
        assert rec.state == QUEUED and not rec.resumed
        sched.start()
        try:
            finished = sched.wait("job-0001", timeout=300)
        finally:
            sched.shutdown(drain=True)
        assert finished.state == DONE
        assert _key(finished) == _key(reference)

    def test_terminal_jobs_survive_restart_without_rerun(self, tmp_path, reference):
        sched = ExplorationScheduler(tmp_path)
        job = sched.submit(_spec())
        sched.start()
        try:
            done = sched.wait(job, timeout=300)
        finally:
            sched.shutdown(drain=True)
        assert done.state == DONE

        revived = ExplorationScheduler(tmp_path)
        assert revived.recover() == 0  # nothing to re-enqueue
        kept = revived.status(job)
        assert kept.state == DONE
        assert _key(kept) == _key(reference)  # result replayed, not re-run


class TestServer:
    def test_socket_roundtrip(self, tmp_path, reference):
        socket_path = str(tmp_path / "b.sock")
        journal_dir = str(tmp_path / "jobs")
        rc = []
        daemon = threading.Thread(
            target=lambda: rc.append(
                serve(socket_path, journal_dir, max_concurrent=2, quiet=True)
            ),
        )
        daemon.start()
        try:
            client = ServiceClient(socket_path, timeout=300.0)
            client.wait_ready(timeout=30.0)
            job_id = client.submit(_spec())
            record = client.wait(job_id)
            assert record.state == DONE
            assert record.trajectory_key() == _key(reference)
            assert [r.job_id for r in client.list_jobs()] == [job_id]
            stats = client.stats()
            assert stats["jobs"] == 1 and stats["running"] == 0
            with pytest.raises(ExplorationError, match="unknown job"):
                client.status("job-9999")
        finally:
            try:
                ServiceClient(socket_path, timeout=10.0).shutdown()
            except ExplorationError:
                pass
            daemon.join(timeout=60)
        assert rc == [0]  # client shutdown, not a signal

    def test_rejection_travels_as_job_rejected(self, tmp_path):
        socket_path = str(tmp_path / "b.sock")
        rc = []
        daemon = threading.Thread(
            target=lambda: rc.append(
                serve(socket_path, str(tmp_path / "jobs"),
                      max_queue=1, max_concurrent=1, quiet=True)
            ),
        )
        daemon.start()
        try:
            client = ServiceClient(socket_path, timeout=60.0)
            client.wait_ready(timeout=30.0)
            client.submit(_spec())
            with pytest.raises(JobRejected, match="queue full"):
                client.submit(_spec())
        finally:
            try:
                ServiceClient(socket_path, timeout=10.0).shutdown(drain=True)
            except ExplorationError:
                pass
            daemon.join(timeout=120)
        assert rc == [0]
