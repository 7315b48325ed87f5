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
    MAX_SCAN_BLOCKS,
    CompiledEvaluator,
    GateBatch,
    execute_batch,
    simulate_full_compiled,
)
from repro.core.explorer import ExplorerConfig, explore
from repro.core.incremental import IncrementalEvaluator
from repro.core.profile import profile_windows
from repro.core.qor import METRICS, QoREvaluator, QoRSpec
from repro.errors import SimulationError
from repro.partition import decompose
from repro.partition.plan import quotient_graph
from repro.runtime import RuntimeStats

from explore_fixtures import explorer_config, reference_engine, trajectory_key


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


def _scan_every_metric(engine, requests, circuit, n):
    """``scan_errors`` pairs of ``requests`` under every QoR metric, each
    scored against the engine's current outputs."""
    scans = {}
    for metric in METRICS:
        qor = QoREvaluator(circuit, engine.exact_outputs, n, QoRSpec(metric))
        qor.rebase(engine.current_outputs())
        scans[metric] = engine.scan_errors(requests, qor)
    return scans


def _assert_scans_match_oracle(ref, comp, requests, circuit, n):
    """The compiled engine's ``(error, dirty rows)`` pairs equal the
    oracle's under every metric: the oracle scores full previews of the
    candidates, and reports a row iff its valid bits changed."""
    scans = _scan_every_metric(comp, requests, circuit, n)
    assert scans == _scan_every_metric(ref, requests, circuit, n)
    return scans


def _assert_same_outputs(ref, engines, n, full_words=False):
    """Every engine's committed outputs equal the oracle's on every valid
    bit (on every word when ``full_words``)."""
    want = ref.current_outputs()
    for e in engines:
        got = e.current_outputs()
        if full_words:
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(unpack_bits(got, n), unpack_bits(want, n))


def _commit_each(ref, engines, requests, n, full_words=False):
    """Commit every candidate of ``requests`` in turn on the oracle and
    on ``engines``; after each commit the committed outputs agree."""
    for index, tables in requests:
        for table in tables:
            for e in (ref, *engines):
                e.commit(index, table)
            _assert_same_outputs(ref, engines, n, full_words)


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
        orders, the compiled evaluator's scan errors and dirty rows
        (every metric) and its commits — each candidate committed in
        turn — are byte-identical to the reference interpreter on every
        valid bit (full words when n % 64 == 0 — the engine does not
        reproduce the reference's unspecified gate tails, per DESIGN.md)."""
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(rng)
        windows = decompose(circuit, 5, 5)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        full_words = n % 64 == 0

        np.testing.assert_array_equal(comp.exact_outputs, ref.exact_outputs)
        order = rng.permutation(len(windows))
        for wi in order:
            w = windows[int(wi)]
            tables = [
                rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                for _ in range(3)
            ] + [w.table(circuit)]
            requests = [(w.index, tables)]
            _assert_scans_match_oracle(ref, comp, requests, circuit, n)
            _commit_each(ref, [comp], requests, n, full_words)
            commit_table = tables[int(rng.integers(0, len(tables)))]
            ref.commit(w.index, commit_table)
            comp.commit(w.index, commit_table)
            _assert_same_outputs(ref, [comp], n, full_words)
        assert set(comp.committed) == set(ref.committed)
        for idx in ref.committed:
            np.testing.assert_array_equal(
                comp.committed[idx], ref.committed_table(idx)
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
    def test_property_preview_scan_matches_reference(self, seed, n):
        """Property: the stacked iteration scan (all windows' candidates
        in one wide pass) matches the reference under every metric,
        including across commits, each candidate's commit matches it on
        every valid bit, and scan_errors replays its memo only where a
        fresh scan would give the same pairs."""
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
            _assert_scans_match_oracle(ref, comp, requests, circuit, n)
            _commit_each(ref, [comp], requests, n)
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
        qor = QoREvaluator(circuit, comp.exact_outputs, 64)
        qor.rebase(comp.exact_outputs)
        bad = np.zeros((2, 1), dtype=bool)
        with pytest.raises(SimulationError):
            comp.scan_errors([(windows[0].index, [bad])], qor)
        with pytest.raises(SimulationError):
            comp.commit(windows[0].index, bad)


class TestDeltaQoR:
    @pytest.mark.parametrize("metric", ["mre", "mae", "nmae", "hamming"])
    def test_delta_bit_identical_to_full(self, metric, rng):
        """scan_errors == the oracle's full evaluation of each candidate's
        outputs, bit for bit, for every metric, with its exact dirty
        rows; each candidate's commit matches the oracle's outputs."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 777  # not a multiple of 64
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        qors = [
            QoREvaluator(circuit, e.exact_outputs, n, QoRSpec(metric))
            for e in (ref, comp)
        ]
        for w in windows:
            for e, q in zip((ref, comp), qors):
                q.rebase(e.current_outputs())
            tables = [
                rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
                for _ in range(2)
            ]
            requests = [(w.index, tables)]
            assert comp.scan_errors(requests, qors[1]) == ref.scan_errors(
                requests, qors[0]
            )
            _commit_each(ref, [comp], requests, n)

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
        """After a commit + rebase, scan errors stay identical to the
        oracle's full evaluations, and the probe's commit to its
        outputs."""
        circuit = butterfly(5)
        windows = decompose(circuit, 6, 6)
        n = 500
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n)
        qors = [QoREvaluator(circuit, e.exact_outputs, n) for e in (ref, comp)]
        for w in windows:
            table = rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5
            for e, q in zip((ref, comp), qors):
                e.commit(w.index, table)
                q.rebase(e.current_outputs())
            probe = next(x for x in windows if x.n_outputs >= 2)
            t = rng.random((1 << probe.n_inputs, probe.n_outputs)) < 0.5
            requests = [(probe.index, [t])]
            assert comp.scan_errors(requests, qors[1]) == ref.scan_errors(
                requests, qors[0]
            )
            _commit_each(ref, [comp], requests, n)


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
        and with the whole scan in one call, and a chunked plan
        (per-chunk dirty-row patches).  The floats are the oracle's full
        evaluations bit for bit, and every candidate's commit matches the
        oracle's outputs on every valid bit."""
        circuit, windows = mult8_windows
        rng = np.random.default_rng(seed)
        words = random_input_words(circuit.n_inputs, n, rng)
        ref = IncrementalEvaluator(circuit, windows, words, n)
        res = CompiledEvaluator(circuit, windows, words, n)
        one = CompiledEvaluator(circuit, windows, words, n)
        stream = CompiledEvaluator(
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
            _commit_each(ref, engines[1:], requests, n)
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
            scans = _assert_scans_match_oracle(ref, comp, requests, circuit, n)
            order = rng.permutation(len(requests))
            permuted = _scan_every_metric(
                shuffled, [requests[i] for i in order], circuit, n
            )
            for metric, got in permuted.items():
                assert got == [scans[metric][i] for i in order], metric
            _commit_each(ref, [comp, shuffled], requests, n)
            index, tables = requests[int(rng.integers(0, len(requests)))]
            for e in (ref, comp, shuffled):
                e.commit(index, tables[0])

    def test_close_drops_scratch_and_rescan_is_identical(self, rng):
        circuit = mult8()
        windows = decompose(circuit, 8, 8)
        n = 100
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        ref = IncrementalEvaluator(circuit, windows, words, n)
        comp = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        qor = QoREvaluator(circuit, comp.exact_outputs, n)
        qor.rebase(comp.exact_outputs)
        requests = [(w.index, _random_tables(rng, w, 2)) for w in windows]
        errors = comp.scan_errors(requests, qor)
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
        # Commits after close() sweep into the new scratch too.
        _commit_each(ref, [comp], fresh, n)

    def test_gate_words_below_dense(self, rng):
        """The scan evaluates fewer gate words than a dense pass would."""
        circuit = mult8()
        windows = decompose(circuit, 8, 8)
        n = 128
        words = random_input_words(circuit.n_inputs, n, rng)
        stats = RuntimeStats()
        comp = CompiledEvaluator(circuit, windows, words, n, stats=stats)
        qor = QoREvaluator(circuit, comp.exact_outputs, n)
        qor.rebase(comp.exact_outputs)
        requests = [(w.index, _random_tables(rng, w, 2)) for w in windows]
        comp.scan_errors(requests, qor)
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
        """A one-window scan sweeps the window's candidates stacked in one
        pass: clean seeds (the current table) and dirty ones mixed, and
        commits (one whose seed equals the committed state) in between,
        each a one-block pass.  Scores and dirty rows match the oracle
        under every metric, and each candidate's commit its outputs."""
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
            qor = QoREvaluator(circuit, comp.exact_outputs, n)
            qor.rebase(comp.current_outputs())
            units0 = stats.n_sweep_units
            sweeps0 = stats.n_preview_sweeps
            blocks0 = stats.n_stacked_blocks
            (got,) = comp.scan_errors([(w.index, tables)], qor)
            assert got[0][1] == () and got[5][1] == ()
            assert stats.n_preview_sweeps - sweeps0 == len(tables)
            assert stats.n_stacked_blocks - blocks0 == len(tables)
            # All seven candidates, clean or dirty, share one pass over
            # the whole plan.
            assert stats.n_sweep_units - units0 == plan_units
            requests = [(w.index, tables)]
            _assert_scans_match_oracle(ref, comp, requests, circuit, n)
            # Commit each candidate, then the current table back.
            _commit_each(ref, [comp], [(w.index, [*tables, exact])], n)
            # Commit the current table again (a clean seed: nothing
            # changes) or a complemented one, alternately.
            table = exact.copy() if w.index % 2 else ~exact
            units0 = stats.n_sweep_units
            ref.commit(w.index, table)
            comp.commit(w.index, table)
            current[w.index] = table
            assert stats.n_sweep_units - units0 == plan_units
            _assert_same_outputs(ref, [comp], n)


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
        """Full explore() runs agree with the oracle's, bit for bit."""
        circuit, windows, profiles = butterfly_profiled
        config = ExplorerConfig(
            n_samples=700, max_inputs=8, max_outputs=8, strategy=strategy
        )
        with reference_engine():
            ref = explore(
                circuit, config, windows=windows, profiles=profiles
            )
        comp = explore(circuit, config, windows=windows, profiles=profiles)
        assert trajectory_key(ref) == trajectory_key(comp)
        assert ref.n_evaluations == comp.n_evaluations
        assert {k: id(v) for k, v in ref.chosen.items()}.keys() == {
            k: id(v) for k, v in comp.chosen.items()
        }.keys()

    def test_cone_counters(self, butterfly_profiled):
        """RuntimeStats cone/sweep accounting: the compiled engine runs
        the same number of preview sweeps but touches far fewer units."""
        circuit, windows, profiles = butterfly_profiled
        config = ExplorerConfig(n_samples=700, max_inputs=8, max_outputs=8)
        with reference_engine():
            ref = explore(
                circuit, config, windows=windows, profiles=profiles
            )
        comp = explore(circuit, config, windows=windows, profiles=profiles)
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


class TestStatsThreading:
    def test_evaluator_stats_optional(self, rng):
        """Evaluators work with and without a stats accumulator."""
        circuit = ripple_adder(4)
        windows = decompose(circuit, 4, 4)
        words = random_input_words(circuit.n_inputs, 64, rng)
        stats = RuntimeStats()
        comp = CompiledEvaluator(circuit, windows, words, 64, stats=stats)
        qor = QoREvaluator(circuit, comp.exact_outputs, 64)
        qor.rebase(comp.exact_outputs)
        w = windows[0]
        comp.scan_errors([(w.index, [~w.table(circuit)])], qor)
        assert stats.n_preview_sweeps == 1
        assert stats.n_sweep_units >= 1
        assert "preview sweeps" in stats.summary()
