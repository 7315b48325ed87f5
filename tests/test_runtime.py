"""Tests for the parallel, cache-backed profiling runtime."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.bench import butterfly, ripple_adder
from repro.core.explorer import ExplorerConfig, explore
from repro.core.profile import WindowTask, profile_windows
from repro.errors import ShutdownRequested
from repro.flow import run_blasys
from repro.partition import decompose
from repro.runtime import (
    CancelToken,
    ProfileCache,
    RuntimeStats,
    ShutdownGuard,
    parallel_map,
    resolve_jobs,
    run_tasks,
)
from repro.runtime.cache import canonical_circuit_bytes


def _square(x):
    return x * x


def _assert_profiles_identical(pa, pb):
    """Byte-level equality of two profile lists (same windows, same bits)."""
    assert len(pa) == len(pb)
    for a, b in zip(pa, pb):
        assert a.window == b.window
        np.testing.assert_array_equal(a.table, b.table)
        assert a.exact_area == b.exact_area
        if a.weights is None:
            assert b.weights is None
        else:
            assert a.weights.tobytes() == b.weights.tobytes()
        assert set(a.variants) == set(b.variants)
        for f in a.variants:
            va, vb = a.variants[f], b.variants[f]
            assert len(va) == len(vb)
            for x, y in zip(va, vb):
                assert (x.f, x.kind, x.area, x.bmf_error) == (
                    y.f, y.kind, y.area, y.bmf_error
                )
                assert x.table.tobytes() == y.table.tobytes()
                assert x.B.tobytes() == y.B.tobytes()
                assert x.C.tobytes() == y.C.tobytes()
                assert type(x.replacement) is type(y.replacement)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestRunTasks:
    def test_results_in_task_order(self):
        results, stats = run_tasks([3, 1, 2], _square)
        assert results == [9, 1, 4]
        assert stats.n_tasks == 3 and stats.tasks_computed == 3

    def test_dedup_computes_unique_tasks_once(self):
        results, stats = run_tasks([2, 2, 3, 2], _square, key_fn=str)
        assert results == [4, 4, 9, 4]
        assert stats.tasks_computed == 2
        assert stats.dedup_hits == 2

    def test_cache_round_trip(self, tmp_path):
        cache = ProfileCache(tmp_path / "c")
        r1, s1 = run_tasks([4, 5], _square, key_fn=str, cache=cache)
        assert r1 == [16, 25] and s1.cache_misses == 2 and cache.stores == 2
        cache2 = ProfileCache(tmp_path / "c")
        r2, s2 = run_tasks([4, 5], _square, key_fn=str, cache=cache2)
        assert r2 == [16, 25]
        assert s2.cache_hits == 2 and s2.tasks_computed == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ProfileCache(tmp_path)
        run_tasks([7], _square, key_fn=str, cache=cache)
        for f in cache.path.glob("*.pkl"):
            f.write_bytes(b"garbage")
        results, stats = run_tasks([7], _square, key_fn=str,
                                   cache=ProfileCache(tmp_path))
        assert results == [49] and stats.tasks_computed == 1


class TestCanonicalCircuitBytes:
    def test_names_do_not_matter(self):
        a = ripple_adder(4)
        b = ripple_adder(4)
        b.name = "renamed"
        assert canonical_circuit_bytes(a) == canonical_circuit_bytes(b)

    def test_structure_matters(self):
        assert canonical_circuit_bytes(ripple_adder(4)) != canonical_circuit_bytes(
            ripple_adder(5)
        )


@pytest.fixture(scope="module")
def adder_windows():
    circuit = ripple_adder(8)
    return circuit, decompose(circuit, 8, 8)


class TestParallelProfiling:
    def test_jobs_do_not_change_profiles(self, adder_windows):
        """jobs=1 and jobs=4 must produce byte-identical WindowProfiles."""
        circuit, windows = adder_windows
        serial = profile_windows(
            circuit, windows, weight_mode="significance", jobs=1
        )
        parallel = profile_windows(
            circuit, windows, weight_mode="significance", jobs=4
        )
        _assert_profiles_identical(serial, parallel)

    def test_identical_windows_deduped(self, adder_windows):
        """Structurally identical windows (adder slices) compute once."""
        circuit, windows = adder_windows
        tables = {w.table(circuit).tobytes() for w in windows}
        stats = RuntimeStats()
        # estimate_area off: keys then depend only on table + parameters,
        # so equal-table windows must collapse onto one task.
        profile_windows(
            circuit, windows, weight_mode="uniform", estimate_area=False,
            runtime_stats=stats,
        )
        assert stats.n_tasks == len(windows)
        if len(tables) < len(windows):
            assert stats.dedup_hits > 0
            assert stats.tasks_computed < len(windows)

    def test_cache_key_independent_of_window_identity(self, adder_windows):
        circuit, windows = adder_windows
        profiles = profile_windows(circuit, windows, estimate_area=False)
        assert [p.window for p in profiles] == list(windows)


class TestProfileCacheWarmRuns:
    def test_warm_run_does_zero_bmf_work(self, adder_windows, tmp_path):
        circuit, windows = adder_windows
        cold_stats = RuntimeStats()
        cold = profile_windows(
            circuit, windows, weight_mode="significance",
            cache=ProfileCache(tmp_path), runtime_stats=cold_stats,
        )
        assert cold_stats.n_factorizations > 0
        assert cold_stats.n_syntheses > 0
        warm_stats = RuntimeStats()
        warm = profile_windows(
            circuit, windows, weight_mode="significance",
            cache=ProfileCache(tmp_path), runtime_stats=warm_stats,
        )
        assert warm_stats.tasks_computed == 0
        assert warm_stats.n_factorizations == 0
        assert warm_stats.n_syntheses == 0
        assert warm_stats.cache_hits + warm_stats.dedup_hits == len(windows)
        _assert_profiles_identical(cold, warm)

    def test_parameter_changes_miss(self, adder_windows, tmp_path):
        circuit, windows = adder_windows
        profile_windows(circuit, windows, cache=ProfileCache(tmp_path))
        stats = RuntimeStats()
        profile_windows(
            circuit, windows, selection="cone",
            cache=ProfileCache(tmp_path), runtime_stats=stats,
        )
        assert stats.cache_hits == 0


class TestExplorerIntegration:
    def test_explore_records_runtime_stats(self, tmp_path):
        circuit = butterfly(6)
        config = ExplorerConfig(
            n_samples=512, max_inputs=8, max_outputs=8, max_iterations=2,
            jobs=2, cache_dir=str(tmp_path),
        )
        result = explore(circuit, config)
        assert result.runtime_stats is not None
        assert result.runtime_stats.n_tasks == len(result.windows)

    def test_explore_jobs_deterministic_trajectory(self):
        circuit = ripple_adder(6)
        base = dict(n_samples=512, max_inputs=6, max_outputs=6, max_iterations=4)
        serial = explore(circuit, ExplorerConfig(jobs=1, **base))
        parallel = explore(circuit, ExplorerConfig(jobs=4, **base))
        assert [
            (p.window_index, p.f, p.qor, p.est_area) for p in serial.trajectory
        ] == [
            (p.window_index, p.f, p.qor, p.est_area) for p in parallel.trajectory
        ]

    def test_passed_in_profiles_skip_runtime(self, adder_windows):
        circuit, windows = adder_windows
        profiles = profile_windows(circuit, windows)
        result = explore(
            circuit,
            ExplorerConfig(
                n_samples=512, max_inputs=8, max_outputs=8, max_iterations=1
            ),
            windows=windows,
            profiles=profiles,
        )
        # Profiling was skipped entirely (no tasks, no factorizations);
        # the stats still account for the exploration engine's sweeps.
        stats = result.runtime_stats
        assert stats.n_tasks == 0
        assert stats.tasks_computed == 0
        assert stats.n_factorizations == 0
        assert stats.n_preview_sweeps > 0


class TestFlowWarmCache:
    def test_warm_run_blasys_reuses_everything(self, tmp_path):
        """A warm-cache run on a Table-2 benchmark (butterfly) performs zero
        factorizations and zero variant syntheses."""
        from repro.bench import get_benchmark

        circuit = get_benchmark("but").factory()
        config = ExplorerConfig(
            n_samples=512, max_inputs=8, max_outputs=8,
            cache_dir=str(tmp_path), jobs=1,
        )
        cold = run_blasys(
            circuit, thresholds=[0.2], config=config, final_samples=2048
        )
        warm = run_blasys(
            circuit, thresholds=[0.2], config=config, final_samples=2048
        )
        stats = warm.exploration.runtime_stats
        assert stats.tasks_computed == 0
        assert stats.n_factorizations == 0
        assert stats.n_syntheses == 0
        assert cold.designs.keys() == warm.designs.keys()
        for thr in cold.designs:
            assert (
                cold.designs[thr].metrics.area_um2
                == warm.designs[thr].metrics.area_um2
            )
        assert "runtime:" in warm.summary()

    def test_cache_key_material_covers_task_fields(self, adder_windows):
        circuit, windows = adder_windows
        w = windows[0]
        from repro.core.profile import ProfileParams

        params = ProfileParams()
        table = w.table(circuit)
        sub = w.subcircuit(circuit)
        base = WindowTask(table, None, sub, params).cache_key()
        flipped = table.copy()
        flipped[0, 0] = not flipped[0, 0]
        assert WindowTask(flipped, None, sub, params).cache_key() != base
        weights = np.ones(w.n_outputs)
        assert WindowTask(table, weights, sub, params).cache_key() != base
        assert (
            WindowTask(
                table, None, sub, ProfileParams(selection="cone")
            ).cache_key()
            != base
        )
        # library cell contents matter, not just the library name
        from dataclasses import replace as dc_replace

        from repro.synth.library import Library

        lib = params.library
        cells = list(lib.cells)
        bumped = [dc_replace(cells[0], area=cells[0].area * 2)] + cells[1:]
        relibbed = ProfileParams(library=Library(lib.name, bumped))
        assert WindowTask(table, None, sub, relibbed).cache_key() != base


class TestCorruptQuarantineRetention:
    """S2: quarantined ``*.pkl.corrupt`` files are bounded, not hoarded."""

    @staticmethod
    def _plant_corrupt(cache, n, t0=1_000_000.0):
        """Create n quarantined files with strictly increasing mtimes."""
        import os

        paths = []
        for i in range(n):
            p = cache.path / f"{i:02d}deadbeef.pkl.corrupt"
            p.write_bytes(b"garbage")
            os.utime(p, (t0 + i, t0 + i))
            paths.append(p)
        return paths

    def test_negative_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="corrupt_keep"):
            ProfileCache(tmp_path, corrupt_keep=-1)
        with pytest.raises(ValueError, match="corrupt_max_age_s"):
            ProfileCache(tmp_path, corrupt_max_age_s=-0.5)

    def test_count_bound_deletes_oldest_first(self, tmp_path):
        cache = ProfileCache(tmp_path, corrupt_keep=2)
        paths = self._plant_corrupt(cache, 5)
        assert cache.purge_corrupt() == 3
        assert cache.corrupt_purged == 3
        survivors = sorted(p.name for p in cache.path.glob("*.pkl.corrupt"))
        assert survivors == [paths[3].name, paths[4].name]  # the newest two
        # Idempotent once within bound.
        assert cache.purge_corrupt() == 0

    def test_mtime_ties_break_by_name_deterministically(self, tmp_path):
        import os

        cache = ProfileCache(tmp_path, corrupt_keep=1)
        for name in ("cc.pkl.corrupt", "aa.pkl.corrupt", "bb.pkl.corrupt"):
            p = cache.path / name
            p.write_bytes(b"garbage")
            os.utime(p, (1_000_000.0, 1_000_000.0))  # identical mtimes
        cache.purge_corrupt()
        survivors = [p.name for p in cache.path.glob("*.pkl.corrupt")]
        assert survivors == ["cc.pkl.corrupt"]  # largest name survives a tie

    def test_age_bound(self, tmp_path):
        cache = ProfileCache(tmp_path, corrupt_keep=None,
                             corrupt_max_age_s=3600.0)
        old = self._plant_corrupt(cache, 2)  # mtimes around t=1e6, ancient
        fresh = cache.path / "fresh.pkl.corrupt"
        fresh.write_bytes(b"garbage")  # mtime = now, within the hour
        assert cache.purge_corrupt() == 2
        assert not old[0].exists() and not old[1].exists()
        assert fresh.exists()

    def test_unbounded_mode_keeps_everything(self, tmp_path):
        cache = ProfileCache(tmp_path, corrupt_keep=None)
        self._plant_corrupt(cache, 4)
        assert cache.purge_corrupt() == 0
        assert len(list(cache.path.glob("*.pkl.corrupt"))) == 4

    def test_quarantine_triggers_sweep(self, tmp_path):
        # corrupt_keep=0: a corrupt entry is quarantined and immediately
        # reclaimed — get() stays a plain miss either way.
        cache = ProfileCache(tmp_path, corrupt_keep=0)
        key = cache.key_of(b"token")
        cache.put(key, {"x": 1})
        cache._file(key).write_bytes(b"garbage")
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert cache.corrupt_purged == 1
        assert not list(cache.path.glob("*.pkl.corrupt"))

    def test_run_tasks_folds_purged_into_stats(self, tmp_path):
        cache = ProfileCache(tmp_path, corrupt_keep=0)
        run_tasks([7], _square, key_fn=str, cache=cache)
        for f in cache.path.glob("*.pkl"):
            f.write_bytes(b"garbage")
        results, stats = run_tasks([7], _square, key_fn=str, cache=cache)
        assert results == [49]
        assert stats.cache_corrupt == 1
        assert stats.cache_corrupt_purged == 1
        assert "1 purged" in stats.resilience_summary()


class TestShutdownGuard:
    def test_first_signal_cancels_second_falls_through(self):
        """The first SIGINT only cancels the token; a second one reaches
        the handler the guard replaced; both handlers are restored."""
        received = []

        def previous(signum, frame):
            received.append(signum)

        saved_int = signal.signal(signal.SIGINT, previous)
        saved_term = signal.getsignal(signal.SIGTERM)
        try:
            token = CancelToken()
            guard = ShutdownGuard(token)
            with guard:
                os.kill(os.getpid(), signal.SIGINT)
                with pytest.raises(ShutdownRequested, match="SIGINT"):
                    token.check()
                assert guard.signum == signal.SIGINT
                assert received == []
                os.kill(os.getpid(), signal.SIGINT)
                assert received == [signal.SIGINT]
            assert signal.getsignal(signal.SIGINT) is previous
            assert signal.getsignal(signal.SIGTERM) is saved_term
        finally:
            signal.signal(signal.SIGINT, saved_int)
