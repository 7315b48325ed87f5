"""Unit + property tests for the bit-parallel simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    CircuitBuilder,
    exhaustive_input_words,
    pack_bits,
    patterns_to_words,
    popcount_words,
    random_input_words,
    simulate_full,
    simulate_outputs,
    simulate_patterns,
    truth_table,
    unpack_bits,
    words_for,
    words_to_patterns,
)
from repro.circuit.simulate import popcount_words, tail_mask
from repro.errors import SimulationError


class TestPacking:
    def test_words_for(self):
        assert words_for(0) == 0
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2

    def test_pack_unpack_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(3, 130), dtype=np.uint8)
        words = pack_bits(bits)
        assert words.shape == (3, 3)
        np.testing.assert_array_equal(unpack_bits(words, 130), bits)

    def test_pack_bit_order_is_little_endian(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1
        assert pack_bits(bits)[0] == np.uint64(1)
        bits = np.zeros(64, dtype=np.uint8)
        bits[63] = 1
        assert pack_bits(bits)[0] == np.uint64(1) << np.uint64(63)

    def test_tail_mask(self):
        assert tail_mask(64) == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert tail_mask(1) == np.uint64(1)
        assert tail_mask(65) == np.uint64(1)

    def test_popcount_respects_pattern_count(self):
        words = np.array([[0xFFFFFFFFFFFFFFFF]], dtype=np.uint64)
        assert popcount_words(words, n=10) == 10
        assert popcount_words(words) == 64

    def test_patterns_words_roundtrip(self, rng):
        pats = rng.integers(0, 2, size=(77, 5), dtype=np.uint8)
        words = patterns_to_words(pats)
        np.testing.assert_array_equal(words_to_patterns(words, 77), pats)

    def test_patterns_must_be_2d(self):
        with pytest.raises(SimulationError):
            patterns_to_words(np.zeros(4))


class TestExhaustivePatterns:
    def test_row_ordering_matches_truth_table_convention(self):
        words = exhaustive_input_words(3)
        pats = words_to_patterns(words, 8)
        # Row r: input i is bit i of r; input 0 toggles fastest.
        for r in range(8):
            for i in range(3):
                assert pats[r, i] == (r >> i) & 1

    def test_zero_inputs(self):
        words = exhaustive_input_words(0)
        assert words.shape == (0, 1)

    def test_random_inputs_masked_beyond_n(self, rng):
        words = random_input_words(4, 70, rng)
        assert words.shape == (4, 2)
        # bits 70..127 must be zero
        bits = unpack_bits(words, 128)
        assert not bits[:, 70:].any()


def _golden_eval(op_name, rows):
    """Reference evaluation of tiny gates by python semantics."""
    out = []
    for bits in rows:
        a = bits
        if op_name == "and":
            out.append(all(a))
        elif op_name == "or":
            out.append(any(a))
        elif op_name == "xor":
            out.append(sum(a) % 2 == 1)
    return np.array(out, dtype=np.uint8)


class TestGateSemantics:
    @pytest.mark.parametrize("op_name", ["and", "or", "xor"])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_nary_gates(self, op_name, arity, rng):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(arity)]
        fn = {"and": b.and_, "or": b.or_, "xor": b.xor_}[op_name]
        b.output("y", fn(*ins))
        c = b.build()
        pats = rng.integers(0, 2, size=(200, arity), dtype=np.uint8)
        got = simulate_patterns(c, pats)[:, 0]
        np.testing.assert_array_equal(got, _golden_eval(op_name, pats))

    def test_not_and_buf(self):
        b = CircuitBuilder()
        a = b.input("a")
        b.output("n", b.not_(a))
        b.output("bf", b.buf(a))
        c = b.build()
        pats = np.array([[0], [1]], dtype=np.uint8)
        out = simulate_patterns(c, pats)
        np.testing.assert_array_equal(out[:, 0], [1, 0])
        np.testing.assert_array_equal(out[:, 1], [0, 1])

    def test_mux_semantics(self):
        b = CircuitBuilder()
        s, a, x = b.input("s"), b.input("a"), b.input("b")
        b.output("y", b.mux(s, a, x))
        c = b.build()
        tt = truth_table(c)
        # inputs ordered s, a, b; row index bit0=s, bit1=a, bit2=b
        for r in range(8):
            s_v, a_v, b_v = r & 1, (r >> 1) & 1, (r >> 2) & 1
            expect = b_v if s_v else a_v
            assert tt[r, 0] == bool(expect)

    def test_lut_node(self):
        b = CircuitBuilder()
        x, y = b.input("x"), b.input("y")
        # table for XOR: rows 01 and 10 set
        table = np.array([0, 1, 1, 0], dtype=bool)
        b.output("z", b.lut([x, y], table))
        c = b.build()
        tt = truth_table(c)
        np.testing.assert_array_equal(tt[:, 0], table)

    def test_constants(self):
        b = CircuitBuilder()
        b.input("a")
        b.output("zero", b.const(False))
        b.output("one", b.const(True))
        c = b.build()
        tt = truth_table(c)
        assert not tt[:, 0].any()
        assert tt[:, 1].all()


class TestSimulatorEquivalence:
    def test_chunked_matches_full(self, full_adder_circuit, rng):
        words = random_input_words(3, 64 * 10, rng)
        full = simulate_full(full_adder_circuit, words)
        chunked = simulate_outputs(full_adder_circuit, words, chunk_words=2)
        np.testing.assert_array_equal(
            full[full_adder_circuit.output_nodes()], chunked
        )

    def test_input_count_mismatch_raises(self, full_adder_circuit):
        with pytest.raises(SimulationError):
            simulate_full(full_adder_circuit, np.zeros((2, 1), dtype=np.uint64))

    def test_chunked_tail_masking_with_padded_words(self, rng):
        """Regression: ``n_samples`` far below the padded word count.

        Chunks that start past ``n_samples`` used to compute a *negative*
        valid count (``min(n, stop*64) - start*64``), which reaches
        ``tail_mask`` through Python's negative modulo and produces a wrong
        mask — leaving LUT garbage in the padded region where the
        unchunked path guarantees zeros.  Chunked and unchunked must be
        byte-identical, padding included."""
        b = CircuitBuilder("lutpad")
        a, x = b.input("a"), b.input("b")
        na = b.not_(a)  # inverted tails: garbage indexes a nonzero row
        table = np.array([1, 0, 1, 1], dtype=bool)  # table[0] == 1
        b.output("y", b.lut((na, x), table))
        circuit = b.build()
        n = 70  # valid bits end mid-word-2 of 6 padded words
        words = np.zeros((2, 6), dtype=np.uint64)
        words[:, :2] = random_input_words(2, n, rng)[:, :2]
        unchunked = simulate_outputs(circuit, words, n_samples=n)
        chunked = simulate_outputs(
            circuit, words, chunk_words=1, n_samples=n
        )
        np.testing.assert_array_equal(chunked, unchunked)
        # every bit past n_samples is zero (the LUT tail-mask contract)
        assert popcount_words(chunked) == popcount_words(chunked, n)

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, 1), b=st.integers(0, 1), cin=st.integers(0, 1))
    def test_full_adder_matches_arithmetic(self, a, b, cin):
        builder = CircuitBuilder("fa")
        ai, bi, ci = builder.input("a"), builder.input("b"), builder.input("cin")
        s, carry = builder.full_adder(ai, bi, ci)
        builder.output("sum", s)
        builder.output("cout", carry)
        circuit = builder.build()
        out = simulate_patterns(circuit, np.array([[a, b, cin]], dtype=np.uint8))[0]
        total = a + b + cin
        assert out[0] == total % 2
        assert out[1] == total // 2


class TestTruthTable:
    def test_full_adder_table(self, full_adder_circuit):
        tt = truth_table(full_adder_circuit)
        assert tt.shape == (8, 2)
        for r in range(8):
            total = (r & 1) + ((r >> 1) & 1) + ((r >> 2) & 1)
            assert tt[r, 0] == bool(total % 2)
            assert tt[r, 1] == bool(total // 2)

    def test_input_limit_enforced(self):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(25)]
        b.output("y", b.or_(*ins))
        with pytest.raises(SimulationError):
            truth_table(b.build())


class TestPopcountWords:
    """``popcount_words`` validates ``n`` against the array capacity."""

    def test_too_large_n_raises(self):
        words = np.array([0xFF, 0xFF], dtype=np.uint64)
        with pytest.raises(ValueError, match="packed words"):
            popcount_words(words, n=129)

    def test_too_large_n_raises_2d(self):
        words = np.full((3, 2), 0xFF, dtype=np.uint64)
        with pytest.raises(ValueError, match="packed words"):
            popcount_words(words, n=200)

    def test_negative_n_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            popcount_words(np.array([1], dtype=np.uint64), n=-1)

    def test_consistent_n_still_counts(self):
        words = np.array([0xFFFFFFFFFFFFFFFF, 0x7], dtype=np.uint64)
        assert popcount_words(words, n=128) == 67
        assert popcount_words(words, n=66) == 66
        assert popcount_words(words) == 67
        assert popcount_words(np.zeros(0, dtype=np.uint64), n=0) == 0

    def test_readonly_input(self):
        words = np.full((2, 3), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        words.setflags(write=False)
        assert popcount_words(words) == 384
        assert popcount_words(words, n=130) == 260
        assert not words.flags.writeable
