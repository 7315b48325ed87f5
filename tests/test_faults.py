"""Chaos suite: deterministic fault injection across the parallel runtime.

The contract under test (DESIGN.md "Fault tolerance"): any *recoverable*
injected fault — worker crash, hung worker, broken pool, corrupt cache
entry, retry exhaustion — changes **nothing** observable about an
exploration except the resilience counters in ``RuntimeStats``:
trajectories stay byte-identical to the fault-free run, and the
retry/fallback/rebuild counters match exactly what the injected
``FaultPlan`` implies.  Checkpoint/resume is held to the same bar: a run
interrupted at *any* iteration and resumed must reproduce the exact
final trajectory of an uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from contextlib import contextmanager
from typing import Optional

import numpy as np
import pytest

from repro.bench import butterfly, ripple_adder
from repro.circuit import random_input_words
from repro.core.explorer import ExplorerConfig, _search_fingerprint, explore
from repro.core.profile import profile_windows
from repro.errors import (
    CheckpointError,
    ExplorationError,
    FaultSpecError,
    ShardFailure,
)
from repro.partition import decompose
from repro.runtime import (
    ExploreCheckpoint,
    FaultPlan,
    ProfileCache,
    RetryPolicy,
    RuntimeStats,
    faults_enabled,
    load_checkpoint,
    run_tasks,
    save_checkpoint,
    supervised_map,
)
from repro.runtime.executor import ProcessShardExecutor, ScanShard, StreamContext

from explore_fixtures import trajectory_key

#: Shard counts the chaos matrix sweeps (1 = in-process: no pool exists,
#: so shard faults have nothing to hit and counters must stay zero).
SHARD_COUNTS = (1, 2, 3)

#: Zero-backoff policy so retry rounds don't sleep in tests.
FAST = RetryPolicy(max_retries=2, backoff=0.0)


#: The RuntimeWarnings recoveries emit: a discarded (broken or hung) pool
#: and a shard falling back in-process.  A retry on a healthy pool and a
#: task's in-process fallback are silent; only the counters record them.
POOL_DISCARDED = "pool compromised"
SHARD_FALLBACK = "exhausted pool attempts"


@contextmanager
def expect_warning(match: Optional[str]):
    """Assert the RuntimeWarning a recovery emits (``match``), or none."""
    if match is not None:
        with pytest.warns(RuntimeWarning, match=match):
            yield
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------------------
# Fault-spec grammar
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_defaults_and_fields(self):
        plan = FaultPlan.parse(
            "crash:shard=1;hang:shard=0,seconds=0.25,scan=3;"
            "pool:scan=2;cache:put=4;task:index=1,attempt=2"
        )
        crash, hang, pool, cache, task = plan.clauses
        assert crash.kind == "crash" and crash.shard == 1
        assert crash.attempt == 0 and crash.scan is None  # defaults
        assert hang.seconds == 0.25 and hang.scan == 3
        assert pool.scan == 2
        assert cache.put == 4
        assert task.index == 1 and task.attempt == 2

    def test_concrete_clause_fires_exactly_once(self):
        plan = FaultPlan.parse("crash:shard=1,attempt=0,scan=0")
        assert plan.shard_fault(0, 1, 0) is not None
        assert plan.shard_fault(0, 1, 0) is None
        # Non-matching probes never consume the clause.
        plan2 = FaultPlan.parse("crash:shard=1,attempt=0,scan=5")
        assert plan2.shard_fault(0, 1, 0) is None
        assert plan2.shard_fault(5, 1, 0) is not None

    def test_wildcard_clause_fires_every_match(self):
        plan = FaultPlan.parse("crash:shard=0,attempt=*,scan=2")
        for attempt in range(4):
            assert plan.shard_fault(2, 0, attempt) is not None
        assert plan.shard_fault(3, 0, 0) is None

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:shard=1",  # unknown kind
            "crash:shard=x",  # non-integer value
            "crash:shard",  # malformed pair
            "crash",  # missing required field
            "pool",  # missing required scan
            "crash:scan=1",  # missing required shard
            "crash:shard=1,put=0",  # field of another kind
            "hang:shard=0,seconds=fast",  # non-numeric seconds
            "",  # empty spec
            " ; ; ",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_faults_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults_enabled() is None
        plan = FaultPlan.parse("pool:scan=0")
        assert faults_enabled(plan) is plan  # instance passthrough keeps state
        assert faults_enabled("pool:scan=1").clauses[0].scan == 1
        monkeypatch.setenv("REPRO_FAULTS", "crash:shard=0")
        assert faults_enabled().clauses[0].kind == "crash"
        monkeypatch.setenv("REPRO_FAULTS", "bogus")
        with pytest.raises(FaultSpecError):
            faults_enabled()

    def test_explorer_config_validates_fault_knobs(self):
        with pytest.raises(FaultSpecError):
            ExplorerConfig(faults="nonsense:x=1")
        with pytest.raises(ExplorationError):
            ExplorerConfig(checkpoint_every=0)
        with pytest.raises(ExplorationError):
            ExplorerConfig(shard_retries=-1)
        with pytest.raises(ExplorationError):
            ExplorerConfig(shard_timeout=0.0)


# ----------------------------------------------------------------------
# Supervised task driver
# ----------------------------------------------------------------------
class TestSupervisedTasks:
    def test_injected_task_fault_retries_byte_identical(self):
        serial = [abs(x) for x in (-1, -2, -3, -4)]
        stats = RuntimeStats()
        with expect_warning(None):
            out = supervised_map(
                abs, [-1, -2, -3, -4], jobs=2, policy=FAST,
                faults=FaultPlan.parse("task:index=1,attempt=0"), stats=stats,
            )
        assert out == serial
        assert stats.n_task_retries == 1
        assert stats.n_task_fallbacks == 0

    def test_retry_exhaustion_falls_back_in_process(self):
        stats = RuntimeStats()
        with expect_warning(None):
            out = supervised_map(
                abs, [-5, -6], jobs=2, policy=FAST,
                faults=FaultPlan.parse("task:index=0,attempt=*"), stats=stats,
            )
        assert out == [5, 6]
        assert stats.n_task_retries == FAST.max_retries
        assert stats.n_task_fallbacks == 1

    def test_run_tasks_threads_policy_and_faults(self):
        baseline, _ = run_tasks(list(range(-8, 0)), abs, jobs=1)
        stats = RuntimeStats()
        with expect_warning(None):
            chaotic, _ = run_tasks(
                list(range(-8, 0)), abs, jobs=2, stats=stats, policy=FAST,
                faults=FaultPlan.parse("task:index=3,attempt=0"),
            )
        assert chaotic == baseline
        assert stats.n_task_retries == 1

    def test_serial_dispatch_never_injects(self):
        # jobs=1 is the plain loop: no pool exists, so there is nothing
        # to crash — the plan goes unconsulted by design.
        plan = FaultPlan.parse("task:index=0,attempt=0")
        stats = RuntimeStats()
        out = supervised_map(abs, [-1, -2], jobs=1, faults=plan, stats=stats)
        assert out == [1, 2]
        assert stats.n_task_retries == 0


# ----------------------------------------------------------------------
# Cache hardening
# ----------------------------------------------------------------------
class TestCacheHardening:
    def test_corrupt_entry_is_miss_and_quarantined(self, tmp_path):
        cache = ProfileCache(tmp_path)
        key = cache.key_of(b"token")
        cache.put(key, {"x": np.arange(4)})
        # Garbage bytes: UnpicklingError path.
        with open(cache._file(key), "wb") as fh:
            fh.write(b"not a pickle at all")
        assert cache.get(key) is None
        assert cache.stats.cache_corrupt == 1 and cache.stats.cache_misses == 1
        assert (tmp_path / f"{key}.pkl.corrupt").exists()
        assert not cache._file(key).exists()
        # A fresh put re-populates the slot and serves again.
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"

    def test_unresolvable_payload_is_miss(self, tmp_path):
        # Protocol-0 GLOBAL opcode naming an attribute this build does not
        # define: unpickling raises AttributeError, which must be a miss.
        cache = ProfileCache(tmp_path)
        key = cache.key_of(b"gone")
        with open(cache._file(key), "wb") as fh:
            fh.write(b"crepro.runtime.cache\nNoSuchClass\n.")
        assert cache.get(key) is None
        assert cache.stats.cache_corrupt == 1
        assert (tmp_path / f"{key}.pkl.corrupt").exists()

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = ProfileCache(tmp_path)
        key = cache.key_of(b"short")
        cache.put(key, list(range(100)))
        raw = cache._file(key).read_bytes()
        cache._file(key).write_bytes(raw[: len(raw) // 2])
        assert cache.get(key) is None
        assert cache.stats.cache_corrupt == 1

    def test_injected_cache_fault_corrupts_nth_store(self, tmp_path):
        cache = ProfileCache(tmp_path, faults=FaultPlan.parse("cache:put=1"))
        k0, k1 = cache.key_of(b"a"), cache.key_of(b"b")
        cache.put(k0, "a")
        cache.put(k1, "b")  # store ordinal 1: corrupted post-write
        assert cache.get(k0) == "a"
        assert cache.get(k1) is None
        assert cache.stats.cache_corrupt == 1


# ----------------------------------------------------------------------
# Chaos matrix over explore()
# ----------------------------------------------------------------------
#: Streaming base config: words_for(700) = 11, chunk_words=3 -> 4 chunks.
BASE = dict(
    n_samples=700, max_inputs=8, max_outputs=8, strategy="full", chunk_words=3
)




@pytest.fixture(scope="module")
def reference_run(butterfly_profiled):
    circuit, windows, profiles = butterfly_profiled
    result = explore(
        circuit, ExplorerConfig(**BASE), windows=windows, profiles=profiles
    )
    assert len(result.trajectory) > 3
    return trajectory_key(result)


def _chaos_explore(butterfly_profiled, warns, **overrides):
    """Explore under ``overrides``, asserting the recovery's warning."""
    circuit, windows, profiles = butterfly_profiled
    with expect_warning(warns):
        result = explore(
            circuit,
            ExplorerConfig(**BASE, **overrides),
            windows=windows,
            profiles=profiles,
        )
    return trajectory_key(result), result.runtime_stats


class TestChaosMatrix:
    @pytest.mark.parametrize("shard_jobs", SHARD_COUNTS)
    def test_worker_crash_retried(
        self, shard_jobs, butterfly_profiled, reference_run
    ):
        """One injected crash costs exactly one retry — or nothing at all
        in-process, where no pool exists to crash."""
        spec = "crash:shard=%d,attempt=0,scan=0" % (min(1, shard_jobs - 1),)
        key, stats = _chaos_explore(
            butterfly_profiled, None, shard_jobs=shard_jobs, faults=spec,
            shard_retries=2,
        )
        assert key == reference_run
        if shard_jobs == 1:
            assert stats.n_shard_retries == 0
        else:
            assert stats.n_shard_retries == 1
        assert stats.n_shard_fallbacks == 0
        assert stats.n_pool_rebuilds == 0

    @pytest.mark.parametrize("shard_jobs", SHARD_COUNTS)
    def test_pool_break_rebuilds(
        self, shard_jobs, butterfly_profiled, reference_run
    ):
        key, stats = _chaos_explore(
            butterfly_profiled, None if shard_jobs == 1 else POOL_DISCARDED,
            shard_jobs=shard_jobs, faults="pool:scan=1",
        )
        assert key == reference_run
        if shard_jobs == 1:
            assert stats.n_pool_rebuilds == 0
        else:
            assert stats.n_pool_rebuilds == 1
        # An injected dispatch-time break charges no shard a retry.
        assert stats.n_shard_retries == 0
        assert stats.n_shard_fallbacks == 0

    @pytest.mark.parametrize("shard_jobs", SHARD_COUNTS)
    def test_retry_exhaustion_falls_back(
        self, shard_jobs, butterfly_profiled, reference_run
    ):
        """A shard crashing on *every* pool attempt of scan 0 burns the
        full retry budget and then re-runs in-process — with the other
        shards' pool outcomes kept."""
        key, stats = _chaos_explore(
            butterfly_profiled, None if shard_jobs == 1 else SHARD_FALLBACK,
            shard_jobs=shard_jobs,
            faults="crash:shard=0,attempt=*,scan=0", shard_retries=2,
        )
        assert key == reference_run
        if shard_jobs == 1:
            assert stats.n_shard_retries == 0
            assert stats.n_shard_fallbacks == 0
        else:
            assert stats.n_shard_retries == 2
            assert stats.n_shard_fallbacks == 1

    def test_hung_shard_timed_out_and_recovered(
        self, butterfly_profiled, reference_run
    ):
        """Acceptance criterion: a hung shard can no longer block forever.
        The 30s injected hang is cut off by the 1s attempt timeout, the
        compromised pool is rebuilt, and the run finishes promptly with
        an identical trajectory."""
        t0 = time.time()
        key, stats = _chaos_explore(
            butterfly_profiled, POOL_DISCARDED, shard_jobs=2, shard_timeout=1.0,
            faults="hang:shard=0,attempt=0,scan=0,seconds=30",
        )
        elapsed = time.time() - t0
        assert key == reference_run
        assert elapsed < 20  # a fraction of the injected 30s hang
        assert stats.n_pool_rebuilds == 1
        assert stats.n_shard_retries >= 1

    def test_combined_crash_and_pool_break(
        self, butterfly_profiled, reference_run
    ):
        key, stats = _chaos_explore(
            butterfly_profiled, POOL_DISCARDED, shard_jobs=2,
            faults="crash:shard=1,attempt=0,scan=0;pool:scan=1",
        )
        assert key == reference_run
        assert stats.n_shard_retries == 1
        assert stats.n_pool_rebuilds == 1

    def test_resilience_counters_surface_in_summary(self, butterfly_profiled):
        _, stats = _chaos_explore(
            butterfly_profiled, None, shard_jobs=2,
            faults="crash:shard=1,attempt=0,scan=0",
        )
        assert "recovered:" in stats.summary()
        assert "1 shard retries" in stats.summary()

    def test_cache_corruption_recovered_warm(self, tmp_path):
        """A corrupt persistent-cache entry is quarantined, recomputed,
        and the warm trajectory still matches the cold one."""
        circuit = butterfly(6)
        windows = decompose(circuit, 8, 8)
        cold = explore(
            circuit,
            ExplorerConfig(cache_dir=str(tmp_path), faults="cache:put=0", **BASE),
            windows=windows,
        )
        warm = explore(
            circuit,
            ExplorerConfig(cache_dir=str(tmp_path), **BASE),
            windows=windows,
        )
        assert trajectory_key(warm) == trajectory_key(cold)
        stats = warm.runtime_stats
        assert stats.cache_corrupt == 1
        assert any(
            name.endswith(".corrupt") for name in os.listdir(tmp_path)
        )
        assert "1 corrupt cache entries quarantined" in stats.summary()


# ----------------------------------------------------------------------
# Shard executor failure attribution
# ----------------------------------------------------------------------
class TestShardFailureAttribution:
    def test_app_level_failure_raises_shard_failure_with_traceback(
        self, butterfly_profiled, rng
    ):
        """An exception the shard itself raises is a bug, not a fault:
        it raises ShardFailure at once, carrying the worker traceback,
        with no pool retry and no in-process fallback."""
        circuit, windows, _ = butterfly_profiled
        n = 700
        words = random_input_words(circuit.n_inputs, n, rng)
        from repro.circuit.simulate import simulate_outputs

        context = StreamContext(
            circuit=circuit,
            windows=tuple(windows),
            input_words=words,
            n_samples=n,
            chunk_words=3,
            exact_outputs=simulate_outputs(circuit, words, n_samples=n),
        )
        # A shard referencing a window index no profile/window defines:
        # every attempt raises the same app-level exception.
        bad = ScanShard(
            chunks=((0, 3),),
            requests=((9999, (np.zeros((2, 2), dtype=np.uint8),)),),
            committed=(),
            metric="mre",
        )
        stats = RuntimeStats()
        executor = ProcessShardExecutor(context, 2, policy=FAST, stats=stats)
        try:
            with expect_warning(None), pytest.raises(ShardFailure) as exc_info:
                executor.run([bad])
            message = str(exc_info.value)
            assert "shard 0" in message
            assert "Traceback" in message  # worker-side traceback preserved
        finally:
            executor.close()
        assert stats.n_shard_retries == 0
        assert stats.n_shard_fallbacks == 0

    def test_app_level_task_failure_is_not_retried(self):
        """supervised_map holds the same line: a task that raises in its
        worker fails the batch at once, unretried."""
        stats = RuntimeStats()
        with expect_warning(None), pytest.raises(ShardFailure) as exc_info:
            supervised_map(
                _raise_value_error, [0, 1], jobs=2, policy=FAST, stats=stats
            )
        message = str(exc_info.value)
        assert "task " in message
        assert "ValueError: task bug" in message
        assert stats.n_task_retries == 0
        assert stats.n_task_fallbacks == 0


def _raise_value_error(x):
    raise ValueError(f"task bug {x}")


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("strategy", ["full", "lazy"])
    def test_interrupt_every_iteration_resumes_identically(
        self, strategy, tmp_path, butterfly_profiled
    ):
        """Property test: kill the run after iteration k for *every* k and
        resume — each continuation must reproduce the uninterrupted final
        trajectory byte for byte (lazy includes heap/counter state)."""
        circuit, windows, profiles = butterfly_profiled
        cfg = dict(BASE, strategy=strategy)
        full = explore(
            circuit, ExplorerConfig(**cfg), windows=windows, profiles=profiles
        )
        reference = trajectory_key(full)
        n_iter = len(reference) - 1
        assert n_iter >= 3
        for k in range(1, n_iter + 1):
            ck = tmp_path / f"{strategy}-{k}.ckpt"
            interrupted = explore(
                circuit,
                ExplorerConfig(
                    checkpoint_path=str(ck), max_iterations=k, **cfg
                ),
                windows=windows,
                profiles=profiles,
            )
            assert interrupted.runtime_stats.n_checkpoints == k
            resumed = explore(
                circuit,
                ExplorerConfig(resume=str(ck), **cfg),
                windows=windows,
                profiles=profiles,
            )
            assert trajectory_key(resumed) == reference, f"iteration {k}"
            assert resumed.n_evaluations == full.n_evaluations

    def test_resumed_result_realizes_same_pareto_front(
        self, tmp_path, butterfly_profiled
    ):
        """Beyond the trajectory: chosen-variant bookkeeping survives the
        round trip, so best_point/realize agree with the full run."""
        circuit, windows, profiles = butterfly_profiled
        full = explore(
            circuit, ExplorerConfig(**BASE), windows=windows, profiles=profiles
        )
        ck = tmp_path / "mid.ckpt"
        explore(
            circuit,
            ExplorerConfig(checkpoint_path=str(ck), max_iterations=2, **BASE),
            windows=windows,
            profiles=profiles,
        )
        resumed = explore(
            circuit, ExplorerConfig(resume=str(ck), **BASE),
            windows=windows, profiles=profiles,
        )
        thr = full.trajectory[-1].qor + 1e-9
        p_full, p_res = full.best_point(thr), resumed.best_point(thr)
        assert (p_full.iteration, p_full.est_area) == (
            p_res.iteration, p_res.est_area,
        )
        assert sorted(full.chosen) == sorted(resumed.chosen)

    def test_checkpoint_every_limits_writes(
        self, tmp_path, butterfly_profiled
    ):
        circuit, windows, profiles = butterfly_profiled
        ck = tmp_path / "sparse.ckpt"
        result = explore(
            circuit,
            ExplorerConfig(
                checkpoint_path=str(ck), checkpoint_every=3,
                max_iterations=7, **BASE,
            ),
            windows=windows,
            profiles=profiles,
        )
        assert result.runtime_stats.n_checkpoints == 2  # iterations 3, 6
        # The snapshot on disk is the *last periodic* one.
        assert load_checkpoint(ck).iteration == 6

    def test_fingerprint_mismatch_refuses_resume(
        self, tmp_path, butterfly_profiled
    ):
        circuit, windows, profiles = butterfly_profiled
        ck = tmp_path / "seed7.ckpt"
        explore(
            circuit,
            ExplorerConfig(checkpoint_path=str(ck), max_iterations=1, **BASE),
            windows=windows,
            profiles=profiles,
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            explore(
                circuit,
                ExplorerConfig(resume=str(ck), seed=8, **BASE),
                windows=windows,
                profiles=profiles,
            )

    def test_stop_knobs_do_not_bind_the_fingerprint(
        self, tmp_path, butterfly_profiled
    ):
        """max_iterations/threshold are stop conditions, not search
        definition — resuming with different ones must be allowed (that
        is exactly how an interrupted run continues)."""
        circuit, windows, profiles = butterfly_profiled
        ck = tmp_path / "stop.ckpt"
        explore(
            circuit,
            ExplorerConfig(checkpoint_path=str(ck), max_iterations=2, **BASE),
            windows=windows,
            profiles=profiles,
        )
        resumed = explore(
            circuit,
            ExplorerConfig(resume=str(ck), max_iterations=4, **BASE),
            windows=windows,
            profiles=profiles,
        )
        assert resumed.trajectory[-1].iteration == 4

    def test_fingerprint_is_pinned(self):
        """Checkpoints written by earlier versions must keep resuming: a
        config field added to or dropped from the fingerprint changes
        these digests and fails here instead of silently refusing resume.
        Execution knobs (here ``chunk_words``) never bind it."""
        pinned = (
            "98c8b3734b1643028555fe29769d439d73b82e6b628b4a641954ad1f24fb83a3"
        )
        circuit = ripple_adder(4)
        assert _search_fingerprint(circuit, ExplorerConfig()) == pinned
        assert (
            _search_fingerprint(circuit, ExplorerConfig(chunk_words=2))
            == pinned
        )

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_version_and_type_mismatch_raise(self, tmp_path):
        path = tmp_path / "old.ckpt"
        ckpt = ExploreCheckpoint(
            fingerprint="f", iteration=0, current_qor=0.0, n_evaluations=0,
            fs={}, chosen={}, trajectory=[], version=0,
        )
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
        with open(path, "wb") as fh:
            pickle.dump({"not": "a checkpoint"}, fh)
        with pytest.raises(CheckpointError, match="ExploreCheckpoint"):
            load_checkpoint(path)

    def test_save_is_atomic_over_existing(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        first = ExploreCheckpoint(
            fingerprint="f", iteration=1, current_qor=0.5, n_evaluations=3,
            fs={0: 2}, chosen={}, trajectory=[(0, -1, 0, 0.0, 1.0, (2,))],
        )
        save_checkpoint(path, first)
        second = ExploreCheckpoint(
            fingerprint="f", iteration=2, current_qor=0.75, n_evaluations=6,
            fs={0: 1}, chosen={}, trajectory=[(0, -1, 0, 0.0, 1.0, (2,))],
        )
        save_checkpoint(path, second)
        loaded = load_checkpoint(path, expect_fingerprint="f")
        assert loaded.iteration == 2 and loaded.current_qor == 0.75
        assert not list(tmp_path.glob("*.tmp"))  # no temp litter


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCliPlumbing:
    def test_new_flags_reach_the_config(self):
        from repro.cli import _config, build_parser

        args = build_parser().parse_args(
            [
                "run", "--bench", "mult8", "--chunk-words", "3",
                "--faults", "pool:scan=0", "--shard-timeout", "2.5",
                "--shard-retries", "1", "--checkpoint", "/tmp/x.ckpt",
                "--checkpoint-every", "5", "--resume", "/tmp/y.ckpt",
            ]
        )
        config = _config(args)
        assert config.faults == "pool:scan=0"
        assert config.shard_timeout == 2.5
        assert config.shard_retries == 1
        assert config.checkpoint_path == "/tmp/x.ckpt"
        assert config.checkpoint_every == 5
        assert config.resume == "/tmp/y.ckpt"
