"""Chunked execution vs. the one-chunk plan.

The contract under test (DESIGN.md "Streaming execution"): every chunk
plan of the engine is **byte-identical** to the one-chunk plan and to
the reference oracle — per-candidate
error floats, dirty-row sets, committed outputs, and whole exploration
trajectories — for every word-aligned chunk size, while peak
sample-matrix memory stays bounded by the chunk budget.  Chunk sizes are
exercised across the shapes that break naive accumulation: one word, a
prime word count, an exact divisor of the word axis, and a chunk larger
than the whole axis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import butterfly, ripple_adder
from repro.circuit import CircuitBuilder, random_input_words
from repro.circuit.simulate import (
    Chunk,
    plan_chunks,
    simulate_outputs,
    unpack_bits,
    words_for,
)
from repro.core.engine import MAX_SCAN_BLOCKS, CompiledEvaluator
from repro.core.explorer import ExplorerConfig, explore
from repro.core.incremental import IncrementalEvaluator
from repro.core.profile import profile_windows
from repro.core.qor import METRICS, QoREvaluator, QoRSpec
from repro.core.streaming import auto_chunk_words
from repro.errors import ExplorationError, SimulationError
from repro.flow import run_blasys
from repro.partition import decompose
from repro.runtime import RuntimeStats

from explore_fixtures import trajectory_key

#: The chunk-size shapes every identity test sweeps: a single word, a
#: prime word count, an exact divisor of the axis, and larger-than-axis.
CHUNK_SHAPES = ("one", "prime", "divisor", "over")


def chunk_sizes(total_words: int):
    divisor = next(
        (d for d in range(2, total_words + 1) if total_words % d == 0),
        1,
    )
    return {
        "one": 1,
        "prime": 7,
        "divisor": divisor,
        "over": total_words + 13,
    }


class TestPlanChunks:
    def test_partitions_word_axis(self):
        chunks = plan_chunks(700, 3)
        assert chunks[0].start == 0 and chunks[-1].stop == words_for(700)
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start
        assert all(c.n_words <= 3 for c in chunks)

    def test_interior_chunks_fully_valid(self):
        chunks = plan_chunks(64 * 10, 4)
        assert [c.n_valid for c in chunks] == [256, 256, 128]

    def test_tail_clamp_last_chunk(self):
        chunks = plan_chunks(130, 1)
        assert [c.n_valid for c in chunks] == [64, 64, 2]

    def test_padded_total_words_clamps_to_zero_not_negative(self):
        # Chunks entirely past n_samples hold 0 valid patterns.
        chunks = plan_chunks(70, 2, total_words=8)
        assert [c.n_valid for c in chunks] == [70, 0, 0, 0]

    def test_chunk_larger_than_axis(self):
        chunks = plan_chunks(100, 1000)
        assert chunks == [Chunk(0, 2, 100)]

    def test_no_sample_count(self):
        chunks = plan_chunks(None, 2, total_words=5)
        assert [c.n_valid for c in chunks] == [None, None, None]

    def test_invalid_inputs_raise(self):
        with pytest.raises(SimulationError):
            plan_chunks(100, 0)
        with pytest.raises(SimulationError):
            plan_chunks(None, 4)

    def test_simulate_outputs_rides_the_plan(self, rng):
        circuit = ripple_adder(6)
        n = 500
        words = random_input_words(circuit.n_inputs, n, rng)
        full = simulate_outputs(circuit, words, n_samples=n)
        for cw in (1, 3, 7):
            chunked = simulate_outputs(
                circuit, words, chunk_words=cw, n_samples=n
            )
            np.testing.assert_array_equal(chunked, full)


class TestQoRChunkedPartials:
    @pytest.mark.parametrize("metric", METRICS)
    def test_partials_are_chunk_invariant(self, metric, rng):
        """Concatenated chunk partials == full-width partials, byte for
        byte, so any word-aligned accumulation reproduces evaluate()."""
        circuit = butterfly(5)
        n = 777
        words = random_input_words(circuit.n_inputs, n, rng)
        exact = simulate_outputs(circuit, words, n_samples=n)
        qor = QoREvaluator(circuit, exact, n, QoRSpec(metric))
        approx = exact.copy()
        approx ^= rng.integers(
            0, 1 << 63, size=approx.shape, dtype=np.uint64
        )
        total_w = words_for(n)
        if metric == "hamming":
            full = qor.row_hamming(approx)
            for cw in chunk_sizes(total_w).values():
                acc = np.zeros_like(full)
                for c in plan_chunks(n, cw):
                    acc += qor.row_hamming(
                        approx[:, c.start : c.stop], None, c.start, c.n_valid
                    )
                np.testing.assert_array_equal(acc, full)
            return
        for pos in range(len(qor.words)):
            full = qor.word_partials(pos, approx)
            for cw in chunk_sizes(total_w).values():
                parts = [
                    qor.word_partials(
                        pos, approx[:, c.start : c.stop], c.start, c.n_valid
                    )
                    for c in plan_chunks(n, cw)
                ]
                np.testing.assert_array_equal(np.concatenate(parts), full)
            assert float(full.sum()) == qor._word_sum(
                qor.words[pos], approx, metric
            )

    def test_spliced_requires_rebase(self, rng):
        circuit = ripple_adder(4)
        n = 64
        words = random_input_words(circuit.n_inputs, n, rng)
        exact = simulate_outputs(circuit, words, n_samples=n)
        qor = QoREvaluator(circuit, exact, n)
        with pytest.raises(SimulationError):
            qor.evaluate_spliced({})
        with pytest.raises(SimulationError):
            qor.base_partials(0)
        qor.rebase(exact)
        assert qor.evaluate_spliced({}) == 0.0
        with pytest.raises(SimulationError):
            qor.evaluate_spliced_hamming({})


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


class TestScanErrorIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 200),
        shape=st.sampled_from(CHUNK_SHAPES),
    )
    def test_property_scan_errors_byte_identical(self, seed, n, shape):
        """Property: over random circuits, windows, tables, chunk shapes
        and commit interleavings, every streamed candidate error float
        and dirty-row set equals the reference oracle's exactly."""
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(rng)
        windows = decompose(circuit, 5, 5)
        words = random_input_words(circuit.n_inputs, n, rng)
        cw = chunk_sizes(words_for(n))[shape]
        ref = IncrementalEvaluator(circuit, windows, words, n)
        stream = CompiledEvaluator(circuit, windows, words, n, chunk_words=cw)
        np.testing.assert_array_equal(
            stream.exact_outputs, ref.exact_outputs
        )
        q_ref = QoREvaluator(circuit, ref.exact_outputs, n)
        q_str = QoREvaluator(circuit, stream.exact_outputs, n)
        q_ref.rebase(ref.exact_outputs)
        q_str.rebase(stream.exact_outputs)
        for round_ in range(3):
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
            scanned = stream.scan_errors(requests, q_str)
            assert scanned == ref.scan_errors(requests, q_ref)
            # Memoized replay serves the identical floats.
            assert stream.scan_errors(requests, q_str) == scanned
            w = windows[int(rng.integers(0, len(windows)))]
            table = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
            ref.commit(w.index, table)
            stream.commit(w.index, table)
            q_ref.rebase(ref.current_outputs())
            q_str.rebase(stream.current_outputs())
            np.testing.assert_array_equal(
                unpack_bits(stream.current_outputs(), n),
                unpack_bits(ref.current_outputs(), n),
            )

    def test_memo_invalidation_across_mid_chunk_commit(self, rng):
        """Regression: a commit whose sample tail lands mid-chunk (the
        pattern axis ends inside the final 3-word chunk) must invalidate
        exactly the stale memo entries — the rescan after the commit has
        to match a fresh reference evaluation, not the cached floats."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 300  # words_for = 5; chunk_words=3 -> commit spans chunks
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        stream = CompiledEvaluator(circuit, windows, words, n, chunk_words=3)
        q_ref = QoREvaluator(circuit, ref.exact_outputs, n)
        q_str = QoREvaluator(circuit, stream.exact_outputs, n)
        q_ref.rebase(ref.exact_outputs)
        q_str.rebase(stream.exact_outputs)
        tables = {
            w.index: [rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5]
            for w in windows
        }
        requests = [(w.index, tables[w.index]) for w in windows]
        first = stream.scan_errors(requests, q_str)
        assert stream.scan_errors(requests, q_str) == first  # memo primed
        victim = windows[0]
        ref.commit(victim.index, tables[victim.index][0])
        stream.commit(victim.index, tables[victim.index][0])
        q_ref.rebase(ref.current_outputs())
        q_str.rebase(stream.current_outputs())
        rescanned = stream.scan_errors(requests, q_str)
        assert rescanned == ref.scan_errors(requests, q_ref)

    def test_chunk_words_selects_chunk_plan(self, rng):
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        n = 300  # words_for = 5
        words = random_input_words(circuit.n_inputs, n, rng)
        plans = {
            cw: CompiledEvaluator(circuit, windows, words, n, chunk_words=cw)
            for cw in (None, 1, 2, 5, 64)
        }
        assert [len(ev._chunks) for ev in plans.values()] == [1, 5, 3, 1, 1]
        # Only a one-chunk plan keeps its base.
        assert [ev._values is not None for ev in plans.values()] == [
            True, False, False, True, True,
        ]
        with pytest.raises(SimulationError):
            CompiledEvaluator(circuit, windows, words, n, chunk_words=0)


class TestStreamingTrajectoryIdentity:
    @pytest.mark.parametrize("strategy", ["full", "lazy"])
    @pytest.mark.parametrize("shape", CHUNK_SHAPES)
    def test_trajectories_byte_identical(
        self, strategy, shape, butterfly_profiled
    ):
        """Full explore() runs agree between resident and every chunked
        configuration, bit for bit — the streaming acceptance bar."""
        circuit, windows, profiles = butterfly_profiled
        n = 700
        base = dict(
            n_samples=n, max_inputs=8, max_outputs=8, strategy=strategy
        )
        resident = explore(
            circuit, ExplorerConfig(**base), windows=windows, profiles=profiles
        )
        cw = chunk_sizes(words_for(n))[shape]
        chunked = explore(
            circuit,
            ExplorerConfig(chunk_words=cw, **base),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(chunked) == trajectory_key(resident)
        assert chunked.n_evaluations == resident.n_evaluations

    def test_memory_bounded_by_chunk_budget(self, butterfly_profiled):
        """The streaming engine's recorded peak sample-matrix bytes obey
        the documented 2 × 8 × n_nodes × chunk_words bound and undercut
        the resident matrix."""
        circuit, windows, profiles = butterfly_profiled
        n = 1024
        cw = 2
        chunked = explore(
            circuit,
            ExplorerConfig(
                n_samples=n, max_inputs=8, max_outputs=8, chunk_words=cw
            ),
            windows=windows,
            profiles=profiles,
        )
        stats = chunked.runtime_stats
        assert stats.chunk_words == cw
        assert stats.n_chunk_passes > 0
        assert 0 < stats.peak_sample_matrix_bytes <= (
            2 * 8 * circuit.n_nodes * cw
        )
        resident = explore(
            circuit,
            ExplorerConfig(n_samples=n, max_inputs=8, max_outputs=8),
            windows=windows,
            profiles=profiles,
        )
        assert (
            stats.peak_sample_matrix_bytes
            < resident.runtime_stats.peak_sample_matrix_bytes
        )

    def test_auto_chunk_from_budget(self, butterfly_profiled):
        circuit, windows, profiles = butterfly_profiled
        n = 4096
        budget_mb = circuit.n_nodes * 16 * 4 / 1e6  # fits 4 chunk words
        result = explore(
            circuit,
            ExplorerConfig(
                n_samples=n,
                max_inputs=8,
                max_outputs=8,
                chunk_budget_mb=budget_mb,
            ),
            windows=windows,
            profiles=profiles,
        )
        stats = result.runtime_stats
        assert stats.chunk_words == 4
        assert stats.peak_sample_matrix_bytes <= budget_mb * 1e6
        resident = explore(
            circuit,
            ExplorerConfig(n_samples=n, max_inputs=8, max_outputs=8),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(result) == trajectory_key(resident)

    @pytest.mark.parametrize("times", [1, 2, 4])
    def test_budget_at_or_above_value_matrix_is_honoured(
        self, times, butterfly_profiled
    ):
        """A budget the value matrix fits in still yields a chunk size:
        the recorded peak, scan scratch included, stays within it, and
        the trajectory equals the unbudgeted run's."""
        circuit, windows, profiles = butterfly_profiled
        n = 4096
        base = dict(n_samples=n, max_inputs=8, max_outputs=8)
        budget = times * 8 * circuit.n_nodes * words_for(n)
        budgeted = explore(
            circuit,
            ExplorerConfig(chunk_budget_mb=budget / 1e6, **base),
            windows=windows,
            profiles=profiles,
        )
        stats = budgeted.runtime_stats
        assert stats.chunk_words > 0
        assert 0 < stats.peak_sample_matrix_bytes <= budget
        unbudgeted = explore(
            circuit, ExplorerConfig(**base), windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(budgeted) == trajectory_key(unbudgeted)

    def test_auto_chunk_words_helper(self):
        # A budget always yields a chunk size: one covering the whole
        # axis gives a one-chunk plan whose passes the size caps.
        assert auto_chunk_words(100, 10**9, 64) == 10**9 // (16 * 100)
        # Tiny budget -> at least one word.
        assert auto_chunk_words(100, 1, 64) == 1
        assert auto_chunk_words(100, 16 * 100 * 7, 64) == 7
        # Between 1x and 2x the value matrix, base plus scratch only fit
        # as chunks smaller than the axis.
        matrix = 8 * 100 * 64
        assert auto_chunk_words(100, matrix, 64) == 32
        assert auto_chunk_words(100, int(1.5 * matrix), 64) == 48
        assert auto_chunk_words(100, 2 * matrix, 64) == 64

    def test_config_validation(self):
        with pytest.raises(ExplorationError):
            ExplorerConfig(chunk_words=0)
        with pytest.raises(ExplorationError):
            ExplorerConfig(chunk_budget_mb=-1.0)


class TestFlowMemoryReporting:
    def test_summary_reports_peak_matrix_and_chunk(self):
        circuit = ripple_adder(4)
        config = ExplorerConfig(
            n_samples=512, max_inputs=4, max_outputs=4, chunk_words=2
        )
        result = run_blasys(
            circuit, thresholds=[0.25], config=config, final_samples=1024
        )
        text = result.summary()
        assert "peak sample matrix" in text
        assert "chunk=2 words" in text

    def test_summary_reports_resident_mode(self):
        circuit = ripple_adder(4)
        config = ExplorerConfig(n_samples=512, max_inputs=4, max_outputs=4)
        result = run_blasys(
            circuit, thresholds=[0.25], config=config, final_samples=1024
        )
        text = result.summary()
        assert "peak sample matrix" in text
        assert "chunk=" not in text


class TestStreamingStats:
    def test_chunk_counters(self, rng):
        circuit = ripple_adder(6)
        windows = decompose(circuit, 6, 6)
        n = 320
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        stream = CompiledEvaluator(
            circuit, windows, words, n, chunk_words=2, stats=stats
        )
        qor = QoREvaluator(circuit, stream.exact_outputs, n)
        qor.rebase(stream.exact_outputs)
        w = windows[0]
        stream.scan_errors([(w.index, [~w.table(circuit)])], qor)
        assert stats.chunk_words == 2
        assert stats.n_chunk_passes >= 3  # words_for(320)=5 -> 3 chunks
        assert stats.n_preview_sweeps == 1
        assert stats.peak_sample_matrix_bytes > 0
        assert "chunk=2 words" in stats.summary()


class TestStreamingPassMemory:
    def test_narrow_last_chunk_stacks_blocks_within_bound(
        self, rng, monkeypatch
    ):
        """A chunk narrower than chunk_words stacks chunk_words // cw
        candidate blocks per scan pass.  Results equal resident
        execution, and the recorded per-pass working set (base state
        plus scan scratch) stays within 2 x 8 x n_nodes x chunk_words."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 300  # words_for = 5; chunk_words=4 -> chunks of 4 and 1 words
        chunk_words = 4
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        res = CompiledEvaluator(circuit, windows, words, n)
        stream = CompiledEvaluator(
            circuit, windows, words, n, chunk_words=chunk_words, stats=stats
        )
        passes = []
        run = stream._run_scan_chunk

        def spy(chunk, base, n_valid):
            passes.append((sum(s.shape[0] for _, s in chunk), base.shape[1]))
            return run(chunk, base, n_valid)

        monkeypatch.setattr(stream, "_run_scan_chunk", spy)
        q_res = QoREvaluator(circuit, res.exact_outputs, n)
        q_str = QoREvaluator(circuit, stream.exact_outputs, n)
        for _ in range(2):
            q_res.rebase(res.current_outputs())
            q_str.rebase(stream.current_outputs())
            requests = [
                (w.index, [
                    rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                    for _ in range(3)
                ])
                for w in windows
            ]
            assert stream.scan_errors(requests, q_str) == res.scan_errors(
                requests, q_res
            )
            index, tables = requests[0]
            res.commit(index, tables[0])
            stream.commit(index, tables[0])
            np.testing.assert_array_equal(
                unpack_bits(stream.current_outputs(), n),
                unpack_bits(res.current_outputs(), n),
            )
        # Full 4-word chunks run one block per pass; the 1-word last
        # chunk stacks four.
        assert {blocks for blocks, width in passes if width == 4} == {1}
        assert (4, 1) in passes
        assert max(b * w for b, w in passes) <= chunk_words
        bound = 2 * 8 * circuit.n_nodes * chunk_words
        assert 8 * circuit.n_nodes * chunk_words < (
            stats.peak_sample_matrix_bytes
        ) <= bound
        stream.close()


class TestOneChunkPlan:
    @pytest.mark.parametrize("metric", ["mre", "hamming"])
    @pytest.mark.parametrize("over", [0, 13])
    def test_one_chunk_plan_keeps_its_base(self, metric, over, rng):
        """At chunk_words >= words_for(n) the plan is one chunk: a script
        of scans and commits rebuilds no chunk base, and every step
        equals the uncapped one-chunk run's results, full words
        included."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 300  # words_for = 5
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        resident = CompiledEvaluator(circuit, windows, words, n)
        one = CompiledEvaluator(
            circuit, windows, words, n, chunk_words=words_for(n) + over,
            stats=stats,
        )
        engines = (resident, one)
        qors = [
            QoREvaluator(circuit, e.exact_outputs, n, QoRSpec(metric))
            for e in engines
        ]
        for _ in range(3):
            for e, q in zip(engines, qors):
                q.rebase(e.current_outputs())
            requests = [
                (w.index, [
                    rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                    for _ in range(3)
                ])
                for w in windows
            ]
            scanned = resident.scan_errors(requests, qors[0])
            assert one.scan_errors(requests, qors[1]) == scanned
            assert one.scan_errors(requests, qors[1]) == scanned  # memo
            index, tables = requests[int(rng.integers(0, len(requests)))]
            for e in engines:
                e.commit(index, tables[0])
            np.testing.assert_array_equal(
                one.current_outputs(), resident.current_outputs()
            )
        assert stats.n_chunk_passes == 0
        assert stats.n_stacked_blocks > 0
        assert stats.n_preview_cache_hits > 0


class TestWorkingSetGauge:
    def test_uncapped_one_chunk_gauge_counts_scan_scratch(self, rng):
        """After a scan on the uncapped one-chunk plan, the gauge holds
        at least the value matrix plus the scratch of the widest pass."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 300
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        ev = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        qor = QoREvaluator(circuit, ev.exact_outputs, n)
        qor.rebase(ev.exact_outputs)
        requests = [
            (w.index, [~w.table(circuit), w.table(circuit)]) for w in windows
        ]
        ev.scan_errors(requests, qor)
        blocks = min(MAX_SCAN_BLOCKS, 2 * len(windows))
        matrix = 8 * circuit.n_nodes * words_for(n)
        assert stats.peak_sample_matrix_bytes >= matrix * (1 + blocks)
