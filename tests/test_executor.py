"""Sharded chunk plans vs. in-process chunk plans vs. one chunk.

The contract under test (DESIGN.md "Parallel streaming"): fanning the
engine's chunk loop across shard workers changes **nothing**
observable: per-candidate error floats, dirty-row sets, committed
outputs, and whole exploration trajectories are byte-identical to serial
streaming (and therefore to resident execution) for every shard count,
including across mid-run commits.
Shard counts sweep the shapes that break naive fan-out: one shard, two,
a prime count, and more shards than chunks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import ripple_adder
from repro.circuit import CircuitBuilder, random_input_words
from repro.circuit.simulate import plan_chunks, words_for
from repro.core.engine import CompiledEvaluator
from repro.core.explorer import ExplorerConfig, explore
from repro.core.incremental import IncrementalEvaluator
from repro.core.profile import profile_windows
from repro.core.qor import QoREvaluator, QoRSpec
from repro.core.streaming import ShardWorker, auto_chunk_words
from repro.errors import ExplorationError
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
        b["rows"] |= {2}
        b["slices"][0] = [(2, 4, np.zeros(2))]
        b["slices"][1] = [(0, 2, np.ones(2))]
        merge_accumulator(a, b)
        assert set(a) == {"rows", "slices"}
        assert a["rows"] == {1, 2}
        assert [s[:2] for s in a["slices"][0]] == [(0, 2), (2, 4)]
        assert list(a["slices"][1][0][:2]) == [0, 2]


class TestAutoChunkWordsBudgetPerWorker:
    def test_single_worker_unchanged(self):
        assert auto_chunk_words(100, 10**9, 64) == 10**9 // 1600
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

    def test_multi_worker_never_falls_back_to_resident(self):
        # The budget covers the value matrix, but base plus scratch only
        # fit as chunks of half the axis, and a quarter of that per
        # worker at four workers.
        matrix = 8 * 100 * 64
        assert auto_chunk_words(100, matrix, 64) == 32
        assert auto_chunk_words(100, matrix, 64, jobs=4) == 100 * 64 // 800

    def test_generous_budget_keeps_enough_chunks_to_shard(self):
        # A huge budget must not collapse the plan to fewer chunks than
        # workers — that would silently drop the requested parallelism.
        assert auto_chunk_words(100, 10**12, 64, jobs=4) == 16
        assert auto_chunk_words(100, 10**12, 64, jobs=2) == 32
        assert auto_chunk_words(100, 10**12, 7, jobs=4) == 2


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
    )
    # A worker answers in plan order, the order the engine ships its
    # requests in; map its accumulators back to request order.
    order = sorted(
        range(len(requests)),
        key=lambda i: stream._plan_rank[requests[i][0]],
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
                        (
                            requests[i][0],
                            tuple(
                                np.asarray(t, dtype=bool)
                                for t in requests[i][1]
                            ),
                        )
                        for i in order
                    ),
                    committed=tuple(stream._committed.items()),
                    metric=metric,
                )
            )
            for i, add_list in zip(order, outcome.accumulators):
                for acc, add in zip(accs[i], add_list):
                    merge_accumulator(acc, add)
        results[n_shards] = accs
    return results


class TestShardTaskIdentity:
    def test_shard_accumulators_merge_to_serial_floats(self, rng):
        """ShardWorker outcomes, merged across every shard split, yield
        the exact floats and dirty rows of the serial streaming scan and
        the reference oracle — including after a commit that reshapes
        the committed state the workers must sync.  Hamming is one more
        metric through the same two accumulator components."""
        for metric in ("mre", "hamming"):
            self._check_shard_merge(metric, rng)

    def _check_shard_merge(self, metric, rng):
        circuit = _random_circuit(rng)
        windows = decompose(circuit, 5, 5)
        n = 300  # words_for = 5 -> chunk_words=2 gives 3 chunks
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        stream = CompiledEvaluator(circuit, windows, words, n, chunk_words=2)
        spec = QoRSpec(metric)
        q_ref = QoREvaluator(circuit, ref.exact_outputs, n, spec)
        q_str = QoREvaluator(circuit, stream.exact_outputs, n, spec)
        q_ref.rebase(ref.exact_outputs)
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
            assert serial == ref.scan_errors(requests, q_ref)
            by_shards = _shard_scan_in_process(stream, requests, metric)
            for n_shards, accs in by_shards.items():
                for (index, tables), got, acc_list in zip(
                    requests, serial, accs
                ):
                    for (err, rows), acc in zip(got, acc_list):
                        assert rows == tuple(sorted(acc["rows"])), n_shards
                        payload = {
                            g: q_str.splice_partials(g, slices)
                            for g, slices in acc["slices"].items()
                        }
                        assert err == q_str.evaluate_spliced(payload), n_shards
            # Mid-run commit: changes the committed set, reshapes schedules.
            w = windows[int(rng.integers(0, len(windows)))]
            table = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
            ref.commit(w.index, table)
            stream.commit(w.index, table)
            q_ref.rebase(ref.current_outputs())
            q_str.rebase(stream.current_outputs())


class TestShardedTrajectoryIdentity:
    @pytest.mark.parametrize("strategy", ["full", "lazy"])
    @pytest.mark.parametrize("shard_jobs", SHARD_COUNTS)
    def test_trajectories_byte_identical(
        self, strategy, shard_jobs, butterfly_profiled
    ):
        """Full explore() runs agree between serial streaming and every
        process-sharded configuration, bit for bit — commits interleave
        with sharded scans on every iteration, so this also exercises
        cross-task committed-state sync."""
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

    def test_cached_memory_stays_within_documented_bound(
        self, butterfly_profiled
    ):
        """Peak per-process sample-matrix bytes obey the
        2 x 8 x n_nodes x chunk_words bound, serial and sharded (the
        parent records the largest worker's per-process peak)."""
        circuit, windows, profiles = butterfly_profiled
        n = 1024
        cw = 2
        for shard_jobs in (1, 2):
            result = explore(
                circuit,
                ExplorerConfig(
                    n_samples=n, max_inputs=8, max_outputs=8,
                    chunk_words=cw, shard_jobs=shard_jobs,
                ),
                windows=windows,
                profiles=profiles,
            )
            stats = result.runtime_stats
            assert stats.shard_jobs == shard_jobs
            assert 0 < stats.peak_sample_matrix_bytes <= (
                2 * 8 * circuit.n_nodes * cw
            ), shard_jobs

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
        ExplorerConfig(chunk_words=2, shard_jobs=0)

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

    def test_evaluator_threads_shard_knobs(self, rng):
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 128, rng)
        ev = CompiledEvaluator(
            circuit, windows, words, 128, chunk_words=1, shard_jobs=2,
        )
        try:
            assert ev._shard_jobs == 2
            assert ev._chunk_words == 1
            assert len(ev._chunks) == 2
        finally:
            ev.close()

    def test_worker_exact_outputs_fast_path(self, rng):
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 128, rng)
        ref = CompiledEvaluator(circuit, windows, words, 128, chunk_words=1)
        fast = CompiledEvaluator(
            circuit, windows, words, 128, chunk_words=1,
            exact_outputs=ref.exact_outputs,
        )
        np.testing.assert_array_equal(fast.exact_outputs, ref.exact_outputs)

    def test_summary_reports_sharding(self):
        stats = RuntimeStats(
            n_shard_tasks=6, shard_jobs=3, n_stacked_blocks=40,
        )
        text = stats.summary()
        assert "6 shard tasks" in text
        assert "shard-jobs=3" in text
        assert "40 stacked blocks" in text
        assert "chunk cache" not in text

    def test_cli_exposes_shard_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--bench", "mult8", "--chunk-words", "8",
             "--shard-jobs", "2"]
        )
        assert args.shard_jobs == 2
        assert build_parser().parse_args(
            ["run", "--bench", "mult8"]
        ).shard_jobs is None

    def test_chunk_cache_flag_is_gone(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["run", "--bench", "mult8", "--chunk-cache-chunks", "4"]
            )
        assert exc.value.code == 2  # argparse usage error

    def test_chunk_cache_config_field_is_gone(self):
        with pytest.raises(TypeError):
            ExplorerConfig(chunk_words=2, chunk_cache_chunks=4)
