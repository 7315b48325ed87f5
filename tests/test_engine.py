"""Compiled exploration engine vs. the interpreted reference.

The contract under test (DESIGN.md "Exploration engine"): every compiled
path — whole-circuit gate programs, cone-scheduled sweeps, stacked
candidate gathers, delta-QoR — is **byte-identical** to the reference
interpreter, while touching only the candidate's cone."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import butterfly, mult8, ripple_adder
from repro.circuit import CircuitBuilder, random_input_words
from repro.circuit.gate import Op
from repro.circuit.simulate import (
    decode_rows,
    lookup_packed,
    simulate_full_reference,
    table_transpose,
    unpack_bits,
)
from repro.core.engine import (
    ENGINES,
    MAX_SCAN_BLOCKS,
    CompiledEvaluator,
    GateBatch,
    execute_batch,
    make_evaluator,
    simulate_full_compiled,
)
from repro.core.explorer import ExplorerConfig, explore
from repro.core.incremental import IncrementalEvaluator
from repro.core.profile import profile_windows
from repro.core.qor import QoREvaluator, QoRSpec
from repro.core.streaming import StreamingEvaluator
from repro.errors import ExplorationError, SimulationError
from repro.partition import decompose
from repro.partition.plan import quotient_graph
from repro.runtime import RuntimeStats

from explore_fixtures import explorer_config, trajectory_key


def _random_circuit(rng, n_inputs=6, n_gates=40, n_outputs=5):
    b = CircuitBuilder("fuzz")
    sigs = [b.input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        op = rng.integers(0, 8)
        picks = rng.choice(len(sigs), size=3, replace=True)
        x, y, z = (sigs[int(p)] for p in picks)
        if op == 0:
            sigs.append(b.and_(x, y))
        elif op == 1:
            sigs.append(b.or_(x, y))
        elif op == 2:
            sigs.append(b.xor_(x, y))
        elif op == 3:
            sigs.append(b.not_(x))
        elif op == 4:
            sigs.append(b.mux(x, y, z))
        elif op == 5:
            sigs.append(b.nand_(x, y))
        elif op == 6:
            sigs.append(b.nor_(x, y))
        else:
            sigs.append(b.xnor_(x, y))
    for i, s in enumerate(sigs[-n_outputs:]):
        b.output(f"o{i}", s)
    return b.build()


class TestCompiledSimulateFull:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 300))
    def test_gate_program_matches_interpreter(self, seed, n):
        """Compiled SoA program == per-node interpreter, tails included."""
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(rng)
        words = random_input_words(circuit.n_inputs, n, rng)
        np.testing.assert_array_equal(
            simulate_full_compiled(circuit, words, n),
            simulate_full_reference(circuit, words, n),
        )

    def test_lut_and_const_nodes(self, rng):
        b = CircuitBuilder("lut")
        a, x = b.input("a"), b.input("b")
        na = b.not_(a)
        table = np.array([1, 0, 0, 1], dtype=bool)
        lut = b.lut((na, x), table)
        c1 = b.const(True)
        b.output("y0", b.and_(lut, c1))
        b.output("y1", b.const(False))
        circuit = b.build()
        n = 90
        words = random_input_words(circuit.n_inputs, n, rng)
        np.testing.assert_array_equal(
            simulate_full_compiled(circuit, words, n),
            simulate_full_reference(circuit, words, n),
        )

    def test_bench_circuits_match(self, rng):
        for circuit in (ripple_adder(8), butterfly(6), mult8()):
            words = random_input_words(circuit.n_inputs, 256, rng)
            np.testing.assert_array_equal(
                simulate_full_compiled(circuit, words, 256),
                simulate_full_reference(circuit, words, 256),
            )


#: n-ary gate ops -> (pairwise fold, output inverted).
_NARY_FOLDS = {
    Op.AND: (np.bitwise_and, False),
    Op.NAND: (np.bitwise_and, True),
    Op.OR: (np.bitwise_or, False),
    Op.NOR: (np.bitwise_or, True),
    Op.XOR: (np.bitwise_xor, False),
    Op.XNOR: (np.bitwise_xor, True),
}


class TestExecuteBatch:
    @pytest.mark.parametrize("op", list(_NARY_FOLDS), ids=lambda op: op.name)
    def test_nary_batch_matches_per_gate_fold(self, op):
        """An n-ary batch equals folding each gate's fanin rows one by
        one, for every arity, and never writes its (frozen) inputs."""
        fold, invert = _NARY_FOLDS[op]
        rng = np.random.default_rng(len(op.name))
        values = rng.integers(0, 1 << 64, size=(9, 5), dtype=np.uint64)
        values.setflags(write=False)
        for arity in (1, 2, 3, 4):
            fanins = rng.integers(0, 9, size=(7, arity), dtype=np.int64)
            out = np.arange(7, dtype=np.int64)
            got = execute_batch(GateBatch(op, out, fanins, out), values, None)
            for g, row in enumerate(fanins):
                acc = values[row[0]].copy()
                for s in row[1:]:
                    acc = fold(acc, values[s])
                np.testing.assert_array_equal(got[g], ~acc if invert else acc)
            assert got.dtype == np.uint64


class TestEvaluatorEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
    def test_property_preview_commit_byte_identical(self, seed, n):
        """Property: over random circuits, windows, tables and commit
        orders, the compiled evaluator's batched previews, dirty rows and
        commits are byte-identical to the reference interpreter on every
        valid bit (full words when n % 64 == 0 — the engine does not
        reproduce the reference's unspecified gate tails, per DESIGN.md)."""
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(rng)
        windows = decompose(circuit, 5, 5)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        full_words = n % 64 == 0

        def assert_same(a, b):
            if full_words:
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(
                unpack_bits(a, n), unpack_bits(b, n)
            )

        np.testing.assert_array_equal(comp.exact_outputs, ref.exact_outputs)
        order = rng.permutation(len(windows))
        for wi in order:
            w = windows[int(wi)]
            tables = [
                rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                for _ in range(3)
            ] + [w.table(circuit)]
            ref_outs = ref.preview_batch(w.index, tables)
            comp_pairs = comp.preview_batch_delta(w.index, tables)
            for ref_out, (comp_out, dirty_rows) in zip(ref_outs, comp_pairs):
                assert_same(comp_out, ref_out)
                # dirty rows are exact: a row is reported iff its valid
                # bits differ from the committed state
                cur = ref.current_outputs()
                changed = {
                    row
                    for row in range(cur.shape[0])
                    if not np.array_equal(
                        unpack_bits(ref_out[row], n), unpack_bits(cur[row], n)
                    )
                }
                assert set(dirty_rows) == changed
            commit_table = tables[int(rng.integers(0, len(tables)))]
            ref.commit(w.index, commit_table)
            comp.commit(w.index, commit_table)
            assert_same(comp.current_outputs(), ref.current_outputs())
        assert set(comp.committed) == set(ref.committed)
        for idx in ref.committed:
            np.testing.assert_array_equal(
                comp.committed_table(idx), ref.committed_table(idx)
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
    def test_property_preview_scan_matches_reference(self, seed, n):
        """Property: the stacked iteration scan (all windows' candidates
        in one wide pass) matches per-window reference previews on every
        valid bit, including across commits, and scan_errors replays its
        memo only where a fresh scan would give the same pairs."""
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(rng)
        windows = decompose(circuit, 5, 5)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        q_ref = QoREvaluator(circuit, ref.exact_outputs, n)
        q_comp = QoREvaluator(circuit, comp.exact_outputs, n)
        tables_by_window = {
            w.index: [
                rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                for _ in range(2)
            ]
            for w in windows
        }
        for round_ in range(3):
            requests = [
                (w.index, tables_by_window[w.index]) for w in windows
            ]
            q_ref.rebase(ref.current_outputs())
            q_comp.rebase(comp.current_outputs())
            assert comp.scan_errors(requests, q_comp) == ref.scan_errors(
                requests, q_ref
            )
            scans = comp.preview_scan(requests)
            for (index, tables), scanned in zip(requests, scans):
                ref_outs = ref.preview_batch(index, tables)
                assert len(scanned) == len(ref_outs)
                for ref_out, (comp_out, dirty_rows) in zip(
                    ref_outs, scanned
                ):
                    np.testing.assert_array_equal(
                        unpack_bits(comp_out, n), unpack_bits(ref_out, n)
                    )
                    cur = ref.current_outputs()
                    changed = {
                        row
                        for row in range(cur.shape[0])
                        if not np.array_equal(
                            unpack_bits(ref_out[row], n),
                            unpack_bits(cur[row], n),
                        )
                    }
                    assert set(dirty_rows) == changed
            # Commit one window with a brand-new table and rescan: memo
            # invalidation must keep the scan errors exact.
            w = windows[int(rng.integers(0, len(windows)))]
            table = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
            ref.commit(w.index, table)
            comp.commit(w.index, table)
            np.testing.assert_array_equal(
                unpack_bits(comp.current_outputs(), n),
                unpack_bits(ref.current_outputs(), n),
            )

    def test_recommit_and_exact_recommit(self, rng):
        circuit = ripple_adder(6)
        windows = decompose(circuit, 6, 6)
        n = 128  # multiple of 64: full-word identity must hold
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        w = next(w for w in windows if w.n_outputs >= 2)
        low = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
        for table in (low, w.table(circuit), low):
            ref.commit(w.index, table)
            comp.commit(w.index, table)
            np.testing.assert_array_equal(
                comp.current_outputs(), ref.current_outputs()
            )

    def test_bad_table_shape_raises(self, rng):
        circuit = ripple_adder(6)
        windows = decompose(circuit, 6, 6)
        words = random_input_words(circuit.n_inputs, 64, rng)
        comp = CompiledEvaluator(circuit, windows, words, 64)
        with pytest.raises(SimulationError):
            comp.preview(windows[0].index, np.zeros((2, 1), dtype=bool))
        with pytest.raises(SimulationError):
            comp.commit(windows[0].index, np.zeros((2, 1), dtype=bool))

    def test_make_evaluator_selects_engine(self, rng):
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 64, rng)
        assert isinstance(
            make_evaluator(circuit, windows, words, 64, engine="compiled"),
            CompiledEvaluator,
        )
        ref = make_evaluator(circuit, windows, words, 64, engine="reference")
        assert type(ref) is IncrementalEvaluator
        with pytest.raises(SimulationError):
            make_evaluator(circuit, windows, words, 64, engine="turbo")


class TestDeltaQoR:
    @pytest.mark.parametrize("metric", ["mre", "mae", "nmae", "hamming"])
    def test_delta_bit_identical_to_full(self, metric, rng):
        """scan_errors == evaluate of the previewed outputs, bit for bit,
        for every metric, with the preview's dirty rows."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 777  # not a multiple of 64
        words = random_input_words(circuit.n_inputs, n, rng)
        comp = CompiledEvaluator(circuit, windows, words, n)
        qor = QoREvaluator(circuit, comp.exact_outputs, n, QoRSpec(metric))
        qor.rebase(comp.exact_outputs)
        for w in windows:
            tables = [
                rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                for _ in range(2)
            ]
            (scanned,) = comp.scan_errors([(w.index, tables)], qor)
            previews = comp.preview_batch_delta(w.index, tables)
            for (err, rows), (out, dirty_rows) in zip(scanned, previews):
                assert err == qor.evaluate(out)
                assert rows == dirty_rows

    def test_scan_without_rebase_raises(self, rng):
        """The fold splices over the rebased committed state, so scoring
        against a QoR evaluator that was never rebased raises instead of
        returning a float, for value metrics and hamming alike."""
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        n = 128
        words = random_input_words(circuit.n_inputs, n, rng)
        comp = CompiledEvaluator(circuit, windows, words, n)
        w = windows[0]
        for metric in ("mre", "hamming"):
            qor = QoREvaluator(circuit, comp.exact_outputs, n, QoRSpec(metric))
            with pytest.raises(SimulationError):
                comp.scan_errors([(w.index, [~w.table(circuit)])], qor)

    def test_delta_tracks_commits(self, rng):
        """After a commit + rebase, scan errors stay identical to full
        evals of the previewed outputs."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 500
        words = random_input_words(circuit.n_inputs, n, rng)
        comp = CompiledEvaluator(circuit, windows, words, n)
        qor = QoREvaluator(circuit, comp.exact_outputs, n)
        qor.rebase(comp.exact_outputs)
        for w in windows:
            table = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
            comp.commit(w.index, table)
            qor.rebase(comp.current_outputs())
            probe = next(x for x in windows if x.n_outputs >= 2)
            t = rng.random((1 << probe.n_inputs, probe.n_outputs)) < 0.5
            ((err, rows),) = comp.scan_errors([(probe.index, [t])], qor)[0]
            ((out, dirty),) = comp.preview_batch_delta(probe.index, [t])
            assert err == qor.evaluate(out)
            assert rows == dirty


class TestTableLookup:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 10),
        m=st.integers(1, 6),
        n=st.integers(1, 300),
    )
    def test_lookup_packed_matches_bool_reference(self, seed, k, m, n):
        """lookup_packed(table.T, idx) packs exactly table[idx]."""
        rng = np.random.default_rng(seed)
        table = rng.random((1 << k, m)) < 0.5
        in_words = random_input_words(k, n, rng)
        idx = decode_rows(in_words, n)
        got = lookup_packed(table_transpose(table), idx)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(
            unpack_bits(got, n).astype(bool), table[idx].T
        )


@pytest.fixture(scope="module")
def mult8_windows(mult8_circuit):
    return mult8_circuit, decompose(mult8_circuit, 8, 8)


class TestStreamingScanMatchesDelta:
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(100, 700),
        chunk_words=st.integers(1, 5),
    )
    def test_mult8_scan_floats_equal_resident_delta(
        self, mult8_windows, seed, n, chunk_words
    ):
        """Every engine's scan_errors returns the same (error, dirty rows)
        pairs on a mult8 scan, across commits and rebases: the reference
        oracle, the compiled engine with one request per call (cone path)
        and with the whole scan in one call, and streaming (per-chunk
        dirty-row patches).  The floats are full evaluations of the
        previewed outputs bit for bit."""
        circuit, windows = mult8_windows
        rng = np.random.default_rng(seed)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        res = CompiledEvaluator(circuit, windows, words, n)
        one = CompiledEvaluator(circuit, windows, words, n)
        stream = StreamingEvaluator(
            circuit, windows, words, n, chunk_words=chunk_words
        )
        engines = (ref, res, one, stream)
        qors = [QoREvaluator(circuit, e.exact_outputs, n) for e in engines]
        for e, q in zip(engines, qors):
            q.rebase(e.exact_outputs)
        q_ref, q_res, q_one, q_str = qors
        for _ in range(2):
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
            assert res.scan_errors(requests, q_res) == scanned
            assert ref.scan_errors(requests, q_ref) == scanned
            assert [
                one.scan_errors([request], q_one)[0] for request in requests
            ] == scanned
            for (index, tables), got in zip(requests, scanned):
                expect = res.preview_batch_delta(index, tables)
                for (err, rows), (out, dirty) in zip(got, expect):
                    assert err == q_res.evaluate(out)
                    assert rows == tuple(sorted(dirty))
            w = windows[int(rng.integers(0, len(windows)))]
            table = requests[windows.index(w)][1][0]
            for e, q in zip(engines, qors):
                e.commit(w.index, table)
                q.rebase(e.current_outputs())
        stream.close()


def _random_tables(rng, w, count):
    return [
        rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
        for _ in range(count)
    ]


def _assert_previews_match_reference(ref, previews, requests, n):
    """Scan/preview pairs equal the reference on every valid bit, and the
    dirty rows are exactly the rows whose valid bits changed."""
    cur = unpack_bits(ref.current_outputs(), n)
    for (index, tables), got in zip(requests, previews):
        expect = ref.preview_batch(index, tables)
        assert len(got) == len(expect)
        for ref_out, (out, rows) in zip(expect, got):
            bits = unpack_bits(ref_out, n)
            np.testing.assert_array_equal(unpack_bits(out, n), bits)
            changed = {
                row
                for row in range(cur.shape[0])
                if not np.array_equal(bits[row], cur[row])
            }
            assert set(rows) == changed


class TestConeSparseScan:
    """The stacked scan's scratch matrix is reused across passes without
    ever being initialized; every entry a pass reads must be one the pass
    wrote, whatever the earlier passes left behind."""

    def test_stale_scratch_matches_reference(self, mult8_windows):
        circuit, windows = mult8_windows
        n = 150  # not a multiple of 64: tail words exercised
        rng = np.random.default_rng(11)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        shuffled = CompiledEvaluator(circuit, windows, words, n)
        big = windows[len(windows) // 2]
        # Blocks per scan: 3 per window (more than MAX_SCAN_BLOCKS, so
        # several passes), then 1 per window on half the windows
        # (shrink), then a window with more candidates than one pass
        # holds next to 2 per window (grow).
        rounds = [
            [(w.index, 3) for w in windows],
            [(w.index, 1) for w in windows[::2]],
            [(w.index, 2) for w in windows if w is not big]
            + [(big.index, MAX_SCAN_BLOCKS + 6)],
        ]
        assert sum(c for _, c in rounds[0]) > MAX_SCAN_BLOCKS
        by_index = {w.index: w for w in windows}
        for round_ in rounds:
            requests = [
                (index, _random_tables(rng, by_index[index], count))
                for index, count in round_
            ]
            scans = comp.preview_scan(requests)
            _assert_previews_match_reference(ref, scans, requests, n)
            order = rng.permutation(len(requests))
            permuted = shuffled.preview_scan([requests[i] for i in order])
            for pos, got in zip(order, permuted):
                for (out, rows), (want, want_rows) in zip(got, scans[pos]):
                    np.testing.assert_array_equal(
                        unpack_bits(out, n), unpack_bits(want, n)
                    )
                    assert rows == want_rows
            index, tables = requests[int(rng.integers(0, len(requests)))]
            for e in (ref, comp, shuffled):
                e.commit(index, tables[0])

    def test_close_drops_scratch_and_rescan_is_identical(self, rng):
        circuit = mult8()
        windows = decompose(circuit, 8, 8)
        n = 100
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        comp = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        qor = QoREvaluator(circuit, comp.exact_outputs, n)
        qor.rebase(comp.exact_outputs)
        requests = [(w.index, _random_tables(rng, w, 2)) for w in windows]
        errors = comp.scan_errors(requests, qor)
        first = comp.preview_scan(requests)
        assert comp._scan_buf is not None
        comp.close()
        assert comp._scan_buf is None
        # The original table identities replay the scan memo; fresh ones
        # cannot, so that rescan sweeps into a newly allocated scratch.
        assert comp.scan_errors(requests, qor) == errors
        assert stats.n_preview_cache_hits == 2 * len(windows)
        fresh = [(i, [t.copy() for t in ts]) for i, ts in requests]
        assert comp.scan_errors(fresh, qor) == errors
        assert stats.n_preview_cache_hits == 2 * len(windows)
        again = comp.preview_scan(fresh)
        for got, want in zip(again, first):
            for (out, rows), (want_out, want_rows) in zip(got, want):
                np.testing.assert_array_equal(out, want_out)
                assert rows == want_rows

    def test_gate_words_below_dense(self, rng):
        """The scan evaluates fewer gate words than a dense pass would."""
        circuit = mult8()
        windows = decompose(circuit, 8, 8)
        n = 128
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        comp = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        requests = [(w.index, _random_tables(rng, w, 2)) for w in windows]
        comp.preview_scan(requests)
        n_gates = sum(1 for node in circuit.nodes if node.op.is_gate)
        dense = n_gates * stats.n_preview_sweeps * (n // 64)
        assert 0 < stats.n_scan_gate_words < dense
        assert "scan gate words" in stats.summary()


def _two_halves_circuit():
    """Two independent halves whose six outputs form the circuit's one
    (default) output word."""
    b = CircuitBuilder("halves")
    a = [b.input(f"a{k}") for k in range(4)]
    c = [b.input(f"c{k}") for k in range(4)]
    outs = [
        b.xor_(a[0], a[1]), b.and_(a[2], a[3]), b.or_(a[0], a[3]),
        b.xor_(c[0], c[1]), b.and_(c[2], c[3]), b.or_(c[1], c[2]),
    ]
    for i, sig in enumerate(outs):
        b.output(f"o{i}", sig)
    return b.build()


class TestScanMemo:
    @pytest.mark.parametrize("metric", ["mre", "hamming"])
    def test_commit_on_shared_output_word_drops_memo(self, metric, rng):
        """A commit outside a memoized candidate's cone-touch set that
        changes an output row in a word the candidate dirtied makes the
        memoized word totals stale: the rescan must match the reference
        oracle, not replay them."""
        circuit = _two_halves_circuit()
        windows = decompose(circuit, 4, 3)
        outputs = circuit.output_nodes()
        left = next(w for w in windows if outputs[0] in w.outputs)
        right = next(w for w in windows if outputs[3] in w.outputs)
        n = 200
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        assert not comp._cone_touch(left.index) & comp._cone_touch(
            right.index
        )
        engines = (ref, comp)
        qors = [
            QoREvaluator(circuit, e.exact_outputs, n, QoRSpec(metric))
            for e in engines
        ]
        q_ref, q_comp = qors
        for e, q in zip(engines, qors):
            q.rebase(e.exact_outputs)
        requests = [
            (left.index, [~left.table(circuit), *_random_tables(rng, left, 2)])
        ]
        first = comp.scan_errors(requests, q_comp)
        assert first == ref.scan_errors(requests, q_ref)
        assert all(rows for _, rows in first[0])
        assert comp.scan_errors(requests, q_comp) == first
        assert stats.n_preview_cache_hits == 3
        before = ref.current_outputs()
        for e, q in zip(engines, qors):
            e.commit(right.index, ~right.table(circuit))
            q.rebase(e.current_outputs())
        assert not np.array_equal(ref.current_outputs(), before)
        assert comp.scan_errors(requests, q_comp) == ref.scan_errors(
            requests, q_ref
        )
        assert stats.n_preview_cache_hits == 3


class TestStackedConeSweep:
    def test_preview_batch_delta_matches_reference(self, mult8_windows):
        """preview_batch_delta sweeps a window's candidates stacked in one
        scan pass: clean seeds (the current table) and dirty ones mixed,
        and commits (one whose seed equals the committed state) in
        between, each a one-block pass."""
        circuit, windows = mult8_windows
        n = 150
        rng = np.random.default_rng(5)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        stats = RuntimeStats()
        comp = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        plan_units = len(quotient_graph(circuit, windows).steps)
        current = {w.index: w.table(circuit) for w in windows}
        for w in windows[:8]:
            exact = current[w.index]
            # Random tables with the first output complemented: dirty
            # seeds on every sample, whatever the rest of the table is.
            noisy = _random_tables(rng, w, 3)
            for t in noisy:
                t[:, 0] = ~exact[:, 0]
            tables = [exact.copy(), ~exact, *noisy, exact.copy(), ~exact]
            units0 = stats.n_sweep_units
            sweeps0 = stats.n_preview_sweeps
            got = comp.preview_batch_delta(w.index, tables)
            _assert_previews_match_reference(
                ref, [got], [(w.index, tables)], n
            )
            assert got[0][1] == () and got[5][1] == ()
            assert stats.n_preview_sweeps - sweeps0 == len(tables)
            # All seven candidates, clean or dirty, share one pass over
            # the whole plan.
            assert stats.n_sweep_units - units0 == plan_units
            # Commit the current table again (a clean seed: nothing
            # changes) or a complemented one, alternately.
            table = exact.copy() if w.index % 2 else ~exact
            units0 = stats.n_sweep_units
            ref.commit(w.index, table)
            comp.commit(w.index, table)
            current[w.index] = table
            assert stats.n_sweep_units - units0 == plan_units
            np.testing.assert_array_equal(
                unpack_bits(comp.current_outputs(), n),
                unpack_bits(ref.current_outputs(), n),
            )
        assert stats.n_stacked_blocks == 0


#: sha256 over the trajectory rows (:func:`_trajectory_digest`) and
#: ``n_evaluations`` of butterfly_profiled runs at the shared
#: explorer_config defaults, per strategy.  Recorded on the compiled
#: engine before the explorer's greedy and searcher loops were folded
#: into one; the engine-identity tests cannot catch a loop change that
#: shifts every engine the same way, these can.
PINNED_TRAJECTORIES = {
    "full": (
        "d723d25641ad00189dfad50d6bf912d128b646e45bb8d015c434ca2d5fc69f85",
        32,
    ),
    "lazy": (
        "af02b4f50930be7430c7dfb16463c7f3f39d2ff00ea2546f6d4815c169e3500c",
        27,
    ),
    "anneal": (
        "45f931fcacba5f075dfad3792660bf78dc8a722a8ca29ca050903f7d7234022f",
        55,
    ),
    "ranker": (
        "d73cebceae87ceaaa5f2ea68ab4ca0e4b517f311062b860626a6a9f503d98255",
        15,
    ),
}


def _trajectory_digest(result) -> str:
    h = hashlib.sha256()
    for row in trajectory_key(result):
        h.update(repr(row).encode())
    return h.hexdigest()


class TestExploreTrajectoryIdentity:
    @pytest.mark.parametrize("strategy", sorted(PINNED_TRAJECTORIES))
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(), id="resident"),
            pytest.param(dict(chunk_words=1), id="streaming"),
        ],
    )
    def test_trajectories_pinned(
        self, strategy, overrides, butterfly_profiled
    ):
        circuit, windows, profiles = butterfly_profiled
        result = explore(
            circuit,
            explorer_config(strategy=strategy, **overrides),
            windows=windows,
            profiles=profiles,
        )
        assert (
            _trajectory_digest(result), result.n_evaluations
        ) == PINNED_TRAJECTORIES[strategy]

    @pytest.mark.parametrize("strategy", ["full", "lazy"])
    def test_trajectories_byte_identical(self, strategy, butterfly_profiled):
        """Full explore() runs agree between engines, bit for bit."""
        circuit, windows, profiles = butterfly_profiled
        base = dict(
            n_samples=700, max_inputs=8, max_outputs=8, strategy=strategy
        )
        ref = explore(
            circuit,
            ExplorerConfig(engine="reference", **base),
            windows=windows,
            profiles=profiles,
        )
        comp = explore(
            circuit,
            ExplorerConfig(engine="compiled", **base),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(ref) == trajectory_key(comp)
        assert ref.n_evaluations == comp.n_evaluations
        assert {k: id(v) for k, v in ref.chosen.items()}.keys() == {
            k: id(v) for k, v in comp.chosen.items()
        }.keys()

    def test_cone_counters(self, butterfly_profiled):
        """RuntimeStats cone/sweep accounting: the compiled engine runs
        the same number of preview sweeps but touches far fewer units."""
        circuit, windows, profiles = butterfly_profiled
        base = dict(n_samples=700, max_inputs=8, max_outputs=8)
        ref = explore(
            circuit,
            ExplorerConfig(engine="reference", **base),
            windows=windows,
            profiles=profiles,
        )
        comp = explore(
            circuit,
            ExplorerConfig(engine="compiled", **base),
            windows=windows,
            profiles=profiles,
        )
        rs, cs = ref.runtime_stats, comp.runtime_stats
        # Every candidate is either swept or served by the scan memo.
        assert rs.n_preview_cache_hits == 0
        assert cs.n_preview_sweeps + cs.n_preview_cache_hits == (
            rs.n_preview_sweeps
        )
        assert cs.n_preview_sweeps > 0
        # Every sweep is a pass over the iteration schedule: no engine
        # compiles per-window cone schedules (the counter stays for the
        # benchmark's tracer).
        assert rs.n_cones_compiled == 0
        assert cs.n_cones_compiled == 0
        assert rs.n_sweep_units > 0
        assert cs.n_sweep_units < rs.n_sweep_units

    def test_engine_config_validated(self):
        with pytest.raises(ExplorationError):
            ExplorerConfig(engine="turbo")
        assert ExplorerConfig().engine in ENGINES


class TestStatsThreading:
    def test_evaluator_stats_optional(self, rng):
        """Evaluators work with and without a stats accumulator."""
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 64, rng)
        stats = RuntimeStats()
        comp = CompiledEvaluator(circuit, windows, words, 64, stats=stats)
        w = windows[0]
        comp.preview_batch(w.index, [~w.table(circuit)])
        assert stats.n_preview_sweeps == 1
        assert stats.n_sweep_units >= 1
        assert "preview sweeps" in stats.summary()
