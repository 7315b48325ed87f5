"""Sharded streaming executor vs. serial streaming vs. resident execution.

The contract under test (DESIGN.md "Parallel streaming"): fanning the
streaming engine's chunk loop across shard workers — and/or caching
per-chunk base slices across iterations — changes **nothing** observable:
per-candidate error floats, dirty-row sets, committed outputs, and whole
exploration trajectories are byte-identical to serial streaming (and
therefore to resident execution) for every shard count and cache
capacity, including mid-run commits that invalidate cached chunk epochs.
Shard counts sweep the shapes that break naive fan-out: one shard, two,
a prime count, and more shards than chunks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import butterfly, ripple_adder
from repro.circuit import CircuitBuilder, random_input_words
from repro.circuit.simulate import plan_chunks, words_for
from repro.core.engine import CompiledEvaluator, make_evaluator
from repro.core.explorer import ExplorerConfig, explore
from repro.core.profile import profile_windows
from repro.core.qor import QoREvaluator, QoRSpec
from repro.core.streaming import (
    ChunkBaseCache,
    ShardWorker,
    StreamingEvaluator,
    auto_chunk_words,
)
from repro.errors import ExplorationError, SimulationError
from repro.partition import decompose
from repro.runtime import RuntimeStats, effective_jobs
from repro.runtime.executor import (
    ScanShard,
    StreamContext,
    merge_accumulator,
    new_accumulator,
    plan_shards,
)

from explore_fixtures import trajectory_key

#: Shard counts every identity test sweeps: in-process, two, a prime,
#: and more shards than the chunk plan holds.
SHARD_COUNTS = (1, 2, 3, 97)


class TestJobsResolution:
    def test_effective_jobs_policy(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(0) >= 1
        assert effective_jobs(-1) >= 1
        # Item clamp: never more workers than work items.
        assert effective_jobs(8, n_items=3) == 3
        assert effective_jobs(2, n_items=10) == 2
        assert effective_jobs(4, n_items=0) == 1

    def test_plan_shards_contiguous_balanced(self):
        items = list(range(10))
        shards = plan_shards(items, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert [x for s in shards for x in s] == items  # contiguity
        # More shards than items: one item per shard, no empties.
        shards = plan_shards(items[:2], 97)
        assert shards == [(0,), (1,)]
        assert plan_shards([], 4) == []

    def test_merge_accumulator_algebra(self):
        a, b = new_accumulator(), new_accumulator()
        a["rows"] |= {1}
        a["slices"][0] = [(0, 2, np.ones(2))]
        a["deltas"][1] = 3
        b["rows"] |= {2}
        b["slices"][0] = [(2, 4, np.zeros(2))]
        b["slices"][1] = [(0, 2, np.ones(2))]
        b["deltas"][1] = -1
        b["deltas"][2] = 5
        merge_accumulator(a, b)
        assert a["rows"] == {1, 2}
        assert [s[:2] for s in a["slices"][0]] == [(0, 2), (2, 4)]
        assert list(a["slices"][1][0][:2]) == [0, 2]
        assert a["deltas"] == {1: 2, 2: 5}


class TestAutoChunkWordsBudgetPerWorker:
    def test_single_worker_unchanged(self):
        assert auto_chunk_words(100, 10**9, 64) is None
        assert auto_chunk_words(100, 1, 64) == 1
        assert auto_chunk_words(100, 16 * 100 * 7, 64) == 7

    def test_budget_divides_across_shards(self):
        """Regression (J=4): with J shard workers the sample-matrix
        working set is ~J x the per-process bound, so the budget must
        divide across the shards."""
        budget = 16 * 100 * 8  # fits 8 chunk words at one worker
        assert auto_chunk_words(100, budget, 64) == 8
        assert auto_chunk_words(100, budget, 64, jobs=2) == 4
        assert auto_chunk_words(100, budget, 64, jobs=4) == 2
        assert auto_chunk_words(100, budget, 64, jobs=16) == 1  # floor

    def test_cache_slices_count_against_the_budget(self):
        budget = 16 * 100 * 8
        # Each cached slice is one more chunk of base state per process.
        assert auto_chunk_words(100, budget, 64, cache_chunks=2) == 4
        assert auto_chunk_words(100, budget, 64, jobs=2, cache_chunks=2) == 2

    def test_multi_worker_never_falls_back_to_resident(self):
        # Budget covers the resident matrix, but only the streaming
        # engine shards — a multi-worker request always chunks.
        resident = 8 * 100 * 64
        assert auto_chunk_words(100, resident, 64) is None
        assert auto_chunk_words(100, resident, 64, jobs=4) == 100 * 64 // 800

    def test_generous_budget_keeps_enough_chunks_to_shard(self):
        # A huge budget must not collapse the plan to fewer chunks than
        # workers — that would silently drop the requested parallelism.
        assert auto_chunk_words(100, 10**12, 64, jobs=4) == 16
        assert auto_chunk_words(100, 10**12, 64, jobs=2) == 32
        assert auto_chunk_words(100, 10**12, 7, jobs=4) == 2


class TestChunkBaseCache:
    def test_pinned_admission_and_bytes(self):
        """Admission pins the first `capacity` chunks: under the cyclic
        chunk walks of scan/commit passes LRU rotation would yield zero
        hits whenever capacity < n_chunks, so a full cache refuses new
        chunks instead of evicting pinned ones."""
        cache = ChunkBaseCache(2)
        a, b, c = (np.zeros((4, 2), dtype=np.uint64) for _ in range(3))
        cache.put(0, 0, a)
        cache.put(2, 0, b)
        cache.put(4, 0, c)  # full: streamed through, not admitted
        assert cache.get(4, 0) is None
        assert cache.get(0, 0) is a and cache.get(2, 0) is b
        assert cache.nbytes == a.nbytes + b.nbytes
        assert cache.holds_array(a) and not cache.holds_array(c)
        # Refreshing an admitted chunk replaces its slice in place.
        cache.put(0, 1, c)
        assert cache.get(0, 1) is c
        assert cache.nbytes == b.nbytes + c.nbytes

    def test_epoch_watermark_invalidates(self):
        cache = ChunkBaseCache(2)
        a = np.zeros((4, 2), dtype=np.uint64)
        cache.put(0, 3, a)
        assert cache.get(0, 3) is a
        assert cache.get(0, 4) is None  # dirtied after computation
        assert len(cache) == 0  # stale entries evict on sight

    def test_retag_keeps_entry_servable(self):
        cache = ChunkBaseCache(1)
        a = np.zeros((4, 2), dtype=np.uint64)
        cache.put(0, 0, a)
        cache.retag(0, 5)
        assert cache.get(0, 5) is a

    def test_drop_outside_repins_to_new_range(self):
        """A worker handed a different shard range evicts unreachable
        chunks so its slots serve the range it actually walks."""
        cache = ChunkBaseCache(2)
        a, b = (np.zeros((4, 2), dtype=np.uint64) for _ in range(2))
        cache.put(0, 0, a)
        cache.put(2, 0, b)
        cache.drop_outside({2, 4})
        assert cache.get(0, 0) is None and cache.get(2, 0) is b
        assert cache.nbytes == b.nbytes
        c = np.zeros((4, 2), dtype=np.uint64)
        cache.put(4, 0, c)  # freed slot admits the new range's chunk
        assert cache.get(4, 0) is c

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            ChunkBaseCache(0)


def _random_circuit(rng, n_inputs=6, n_gates=40, n_outputs=5):
    b = CircuitBuilder("fuzz")
    sigs = [b.input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        op = rng.integers(0, 8)
        picks = rng.choice(len(sigs), size=3, replace=True)
        x, y, z = (sigs[int(p)] for p in picks)
        sigs.append(
            [
                lambda: b.and_(x, y),
                lambda: b.or_(x, y),
                lambda: b.xor_(x, y),
                lambda: b.not_(x),
                lambda: b.mux(x, y, z),
                lambda: b.nand_(x, y),
                lambda: b.nor_(x, y),
                lambda: b.xnor_(x, y),
            ][int(op)]()
        )
    for i, s in enumerate(sigs[-n_outputs:]):
        b.output(f"o{i}", s)
    return b.build()


def _shard_scan_in_process(stream, requests, metric="mre"):
    """Emulate the sharded path without a pool: a fresh ShardWorker per
    shard (cold caches, pickled-equivalent context), merged in shard
    order — exactly what ProcessShardExecutor does across processes."""
    context = StreamContext(
        circuit=stream.circuit,
        windows=tuple(stream.windows),
        input_words=stream.input_words,
        n_samples=stream.n,
        chunk_words=stream._chunk_words,
        exact_outputs=stream.exact_outputs,
        cache_chunks=stream._cache_chunks,
    )
    results = {}
    for n_shards in SHARD_COUNTS[1:]:
        shard_chunks = plan_shards(stream._chunks, n_shards)
        accs = [
            [new_accumulator() for _ in tables] for _, tables in requests
        ]
        for chs in shard_chunks:
            worker = ShardWorker(context)
            outcome = worker.run(
                ScanShard(
                    chunks=chs,
                    requests=tuple(
                        (i, tuple(np.asarray(t, dtype=bool) for t in ts))
                        for i, ts in requests
                    ),
                    committed=tuple(stream._committed.items()),
                    epoch=stream._epoch,
                    chunk_epochs=tuple(stream._chunk_epoch.items()),
                    metric=metric,
                    lineage=stream._lineage,
                )
            )
            for acc_list, add_list in zip(accs, outcome.accumulators):
                for acc, add in zip(acc_list, add_list):
                    merge_accumulator(acc, add)
        results[n_shards] = accs
    return results


class TestShardTaskIdentity:
    def test_shard_accumulators_merge_to_serial_floats(self, rng):
        """ShardWorker outcomes, merged across every shard split, yield
        the exact floats and dirty rows of the serial streaming scan and
        the resident delta-QoR path — including after a commit that
        invalidates cached chunk epochs."""
        circuit = _random_circuit(rng)
        windows = decompose(circuit, 5, 5)
        n = 300  # words_for = 5 -> chunk_words=2 gives 3 chunks
        words = random_input_words(circuit.n_inputs, n, rng)
        res = CompiledEvaluator(circuit, windows, words, n)
        stream = StreamingEvaluator(circuit, windows, words, n, chunk_words=2)
        q_res = QoREvaluator(circuit, res.exact_outputs, n)
        q_str = QoREvaluator(circuit, stream.exact_outputs, n)
        q_res.rebase(res.exact_outputs)
        q_str.rebase(stream.exact_outputs)
        for round_ in range(2):
            requests = [
                (
                    w.index,
                    [
                        rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                        for _ in range(2)
                    ],
                )
                for w in windows
            ]
            serial = stream.scan_errors(requests, q_str)
            for (index, tables), got in zip(requests, serial):
                expect = res.preview_batch_delta(index, tables)
                for (err, rows), (out, dirty) in zip(got, expect):
                    assert err == q_res.evaluate_delta(out, dirty)
                    assert rows == tuple(sorted(dirty))
            by_shards = _shard_scan_in_process(stream, requests)
            for n_shards, accs in by_shards.items():
                for (index, tables), got, acc_list in zip(
                    requests, serial, accs
                ):
                    for (err, rows), acc in zip(got, acc_list):
                        assert rows == tuple(sorted(acc["rows"])), n_shards
                        payload = {
                            wpos: q_str.splice_partials(wpos, slices)
                            for wpos, slices in acc["slices"].items()
                        }
                        assert err == q_str.evaluate_spliced(payload), n_shards
            # Mid-run commit: dirties chunk epochs, reshapes schedules.
            w = windows[int(rng.integers(0, len(windows)))]
            table = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
            res.commit(w.index, table)
            stream.commit(w.index, table)
            q_res.rebase(res.current_outputs())
            q_str.rebase(stream.current_outputs())

    @pytest.mark.parametrize("metric", ["hamming"])
    def test_shard_hamming_deltas_merge_exactly(self, metric, rng):
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 300
        words = random_input_words(circuit.n_inputs, n, rng)
        stream = StreamingEvaluator(circuit, windows, words, n, chunk_words=2)
        qor = QoREvaluator(circuit, stream.exact_outputs, n, QoRSpec(metric))
        qor.rebase(stream.exact_outputs)
        requests = [
            (w.index, [~w.table(circuit)]) for w in windows
        ]
        serial = stream.scan_errors(requests, qor)
        base_tot = qor.base_row_hamming()
        for n_shards, accs in _shard_scan_in_process(
            stream, requests, metric
        ).items():
            for got, acc_list in zip(serial, accs):
                for (err, rows), acc in zip(got, acc_list):
                    payload = {
                        row: int(base_tot[row]) + d
                        for row, d in acc["deltas"].items()
                    }
                    assert err == qor.evaluate_spliced_hamming(payload)
                    assert rows == tuple(sorted(acc["rows"]))


def _accumulator_key(acc):
    return (
        sorted(acc["rows"]),
        [
            (wpos, [(s, e, p.tobytes()) for s, e, p in slices])
            for wpos, slices in sorted(acc["slices"].items())
        ],
        sorted(acc["deltas"].items()),
    )


class TestWorkerStateAcrossJobs:
    """A pooled worker shared by two jobs (the service leases one pool
    to jobs with equal streaming contexts) alternates between their
    scans.  Whatever it kept from one job must not leak into the
    other's: every scan matches what a fresh worker computes."""

    @staticmethod
    def _jobs_and_context(rng, cache_chunks):
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 300
        words = random_input_words(circuit.n_inputs, n, rng)
        jobs = [
            StreamingEvaluator(
                circuit, windows, words, n, chunk_words=2,
                cache_chunks=cache_chunks,
            )
            for _ in range(2)
        ]
        context = StreamContext(
            circuit=circuit,
            windows=tuple(windows),
            input_words=words,
            n_samples=n,
            chunk_words=2,
            exact_outputs=jobs[0].exact_outputs,
            cache_chunks=cache_chunks,
        )
        return circuit, windows, jobs, context

    @staticmethod
    def _scan_shard(job, circuit, windows):
        return ScanShard(
            chunks=tuple(job._chunks),
            requests=tuple(
                (v.index, (~v.table(circuit),)) for v in windows
            ),
            committed=tuple(job._committed.items()),
            epoch=job._epoch,
            chunk_epochs=tuple(job._chunk_epoch.items()),
            metric="mre",
            lineage=job._lineage,
        )

    @staticmethod
    def _keys(outcome):
        return [
            [_accumulator_key(acc) for acc in accs]
            for accs in outcome.accumulators
        ]

    def test_worker_survives_committed_set_losing_a_window(self, rng):
        # Schedules specialized to a window the next job never committed
        # used to raise KeyError in _compute_base.
        circuit, windows, (job_a, job_b), context = self._jobs_and_context(
            rng, cache_chunks=0
        )
        w = windows[0]
        job_a.commit(w.index, ~w.table(circuit))
        shared = ShardWorker(context)
        shared.run(self._scan_shard(job_a, circuit, windows))
        got = shared.run(self._scan_shard(job_b, circuit, windows))
        expect = ShardWorker(context).run(
            self._scan_shard(job_b, circuit, windows)
        )
        assert self._keys(got) == self._keys(expect)

    def test_cached_base_slices_stay_with_their_job(self, rng):
        # Both jobs commit the same window at epoch 1 with different
        # tables: the epoch watermarks alone would serve job a's cached
        # base slices to job b.
        circuit, windows, (job_a, job_b), context = self._jobs_and_context(
            rng, cache_chunks=8
        )
        w = windows[0]
        table = w.table(circuit)
        job_a.commit(w.index, ~table)
        flipped = table.copy()
        flipped[0] = ~flipped[0]
        job_b.commit(w.index, flipped)
        assert job_a._epoch == job_b._epoch == 1
        shared = ShardWorker(context)
        shared.run(self._scan_shard(job_a, circuit, windows))
        got = shared.run(self._scan_shard(job_b, circuit, windows))
        expect = ShardWorker(context).run(
            self._scan_shard(job_b, circuit, windows)
        )
        assert self._keys(got) == self._keys(expect)


class TestShardedTrajectoryIdentity:
    @pytest.mark.parametrize("strategy", ["full", "lazy"])
    @pytest.mark.parametrize("shard_jobs", SHARD_COUNTS)
    def test_trajectories_byte_identical(
        self, strategy, shard_jobs, butterfly_profiled
    ):
        """Full explore() runs agree between serial streaming and every
        process-sharded configuration, bit for bit — commits interleave
        with sharded scans on every iteration, so this also exercises
        cross-task committed-state sync and epoch invalidation."""
        circuit, windows, profiles = butterfly_profiled
        n = 700  # words_for = 11; chunk_words=3 -> 4 chunks
        base = dict(
            n_samples=n, max_inputs=8, max_outputs=8, strategy=strategy,
            chunk_words=3,
        )
        serial = explore(
            circuit, ExplorerConfig(**base), windows=windows, profiles=profiles
        )
        sharded = explore(
            circuit,
            ExplorerConfig(shard_jobs=shard_jobs, **base),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(sharded) == trajectory_key(serial)
        assert sharded.n_evaluations == serial.n_evaluations
        resident = explore(
            circuit,
            ExplorerConfig(n_samples=n, max_inputs=8, max_outputs=8,
                           strategy=strategy),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(sharded) == trajectory_key(resident)
        stats = sharded.runtime_stats
        assert stats.shard_jobs == shard_jobs
        assert stats.n_shard_tasks > 0

    def test_cone_epoch_cache_preserves_trajectory(self, butterfly_profiled):
        """Cross-iteration chunk caching (serial and sharded) must not
        move a single trajectory float while cutting base-pass work."""
        circuit, windows, profiles = butterfly_profiled
        n = 700
        base = dict(n_samples=n, max_inputs=8, max_outputs=8, chunk_words=3)
        plain = explore(
            circuit, ExplorerConfig(**base), windows=windows, profiles=profiles
        )
        cached = explore(
            circuit,
            ExplorerConfig(chunk_cache_chunks=4, **base),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(cached) == trajectory_key(plain)
        stats = cached.runtime_stats
        assert stats.n_chunk_cache_hits > 0
        # The cache exists to cut base passes: with every chunk resident
        # it must beat the cache-off run by a wide margin.
        assert stats.n_chunk_passes < plain.runtime_stats.n_chunk_passes
        both = explore(
            circuit,
            ExplorerConfig(shard_jobs=2, chunk_cache_chunks=4, **base),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(both) == trajectory_key(plain)

    def test_cached_memory_stays_within_documented_bound(
        self, butterfly_profiled
    ):
        """Peak per-process sample-matrix bytes obey the
        (2 + cache_chunks) x 8 x n_nodes x chunk_words bound."""
        circuit, windows, profiles = butterfly_profiled
        n = 1024
        cw, cache = 2, 3
        result = explore(
            circuit,
            ExplorerConfig(
                n_samples=n, max_inputs=8, max_outputs=8,
                chunk_words=cw, chunk_cache_chunks=cache,
            ),
            windows=windows,
            profiles=profiles,
        )
        stats = result.runtime_stats
        assert 0 < stats.peak_sample_matrix_bytes <= (
            (2 + cache) * 8 * circuit.n_nodes * cw
        )

    def test_auto_budget_divides_across_shards_end_to_end(
        self, butterfly_profiled
    ):
        """chunk_budget_mb with shard_jobs=4 picks a per-worker chunk a
        quarter the single-worker size and still matches trajectories."""
        circuit, windows, profiles = butterfly_profiled
        n = 4096
        budget_mb = circuit.n_nodes * 16 * 8 / 1e6  # 8 words at one worker
        single = explore(
            circuit,
            ExplorerConfig(
                n_samples=n, max_inputs=8, max_outputs=8,
                chunk_budget_mb=budget_mb,
            ),
            windows=windows,
            profiles=profiles,
        )
        assert single.runtime_stats.chunk_words == 8
        quad = explore(
            circuit,
            ExplorerConfig(
                n_samples=n, max_inputs=8, max_outputs=8,
                chunk_budget_mb=budget_mb, shard_jobs=4,
            ),
            windows=windows,
            profiles=profiles,
        )
        assert quad.runtime_stats.chunk_words == 2
        assert trajectory_key(quad) == trajectory_key(single)


class TestConfigAndPlumbing:
    def test_shard_knobs_require_streaming(self):
        with pytest.raises(ExplorationError):
            ExplorerConfig(shard_jobs=2)
        with pytest.raises(ExplorationError):
            ExplorerConfig(chunk_cache_chunks=2)
        with pytest.raises(ExplorationError):
            ExplorerConfig(chunk_words=2, chunk_cache_chunks=-1)
        ExplorerConfig(chunk_words=2, shard_jobs=0, chunk_cache_chunks=2)

    def test_jobs_governs_sharding_by_default(self, rng):
        """CLI-level contract: --jobs flows into shard scans unless
        --shard-jobs overrides it."""
        circuit = ripple_adder(4)
        result = explore(
            circuit,
            ExplorerConfig(
                n_samples=256, max_inputs=4, max_outputs=4,
                chunk_words=1, jobs=2, max_iterations=1,
            ),
        )
        assert result.runtime_stats.shard_jobs == 2
        result = explore(
            circuit,
            ExplorerConfig(
                n_samples=256, max_inputs=4, max_outputs=4,
                chunk_words=1, jobs=2, shard_jobs=1, max_iterations=1,
            ),
        )
        assert result.runtime_stats.shard_jobs == 1

    def test_make_evaluator_threads_shard_knobs(self, rng):
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 128, rng)
        ev = make_evaluator(
            circuit, windows, words, 128, engine="compiled",
            chunk_words=1, shard_jobs=2, cache_chunks=3,
        )
        try:
            assert isinstance(ev, StreamingEvaluator)
            assert ev._shard_jobs == 2
            assert ev._base_cache is not None
            assert ev._base_cache.capacity == 3
        finally:
            ev.close()
        with pytest.raises(SimulationError):
            StreamingEvaluator(
                circuit, windows, words, 128, chunk_words=1, cache_chunks=-1
            )

    def test_worker_exact_outputs_fast_path(self, rng):
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 128, rng)
        ref = StreamingEvaluator(circuit, windows, words, 128, chunk_words=1)
        fast = StreamingEvaluator(
            circuit, windows, words, 128, chunk_words=1,
            exact_outputs=ref.exact_outputs,
        )
        np.testing.assert_array_equal(fast.exact_outputs, ref.exact_outputs)

    def test_summary_reports_sharding(self):
        stats = RuntimeStats(
            n_shard_tasks=6, shard_jobs=3, n_stacked_blocks=40,
            n_chunk_cache_hits=10, n_chunk_cache_misses=2,
        )
        text = stats.summary()
        assert "6 shard tasks" in text
        assert "shard-jobs=3" in text
        assert "40 stacked blocks" in text
        assert "chunk cache 10 hit / 2 miss" in text

    def test_cli_exposes_shard_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--bench", "mult8", "--chunk-words", "8",
             "--shard-jobs", "2", "--chunk-cache-chunks", "4"]
        )
        assert args.shard_jobs == 2
        assert args.chunk_cache_chunks == 4
        assert build_parser().parse_args(
            ["run", "--bench", "mult8"]
        ).shard_jobs is None
