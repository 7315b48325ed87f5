"""Property tests: packed-bitset kernels == dense references, bit for bit.

The dense references here follow the kernel determinism contract of
DESIGN.md ("BMF kernel"): integer mismatch counts combined with weights in
one ``np.dot``, subset weight sums left-associated in increasing column
order, first-max tie breaking.  Weight strategies use integer-valued (and
power-of-two) floats so that every float sum in *any* association order is
exact — which upgrades "close" to "bit-for-bit" and makes the equality
assertions legitimate against independently-written formulas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.simulate import (
    _bit_count_lut,
    bit_count,
    pack_bits,
    popcount_words,
    tail_mask,
    unpack_bits,
    words_for,
)
from repro.core.bmf import bool_product, weighted_error
from repro.core.bmf.packed import (
    MAX_MASK_BITS,
    PackedColumns,
    candidate_gains_masks,
    combine_columns,
    fit_C_packed,
    mismatch_counts,
    packed_bool_product,
    packed_weighted_error,
    row_masks,
    weight_table,
    weighted_counts_error,
)
from repro.errors import FactorizationError


def _random_matrix(seed: int, n: int, m: int, density: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, m)) < density


def _random_weights(seed: int, m: int) -> np.ndarray:
    """Integer-valued float weights: every partial sum is exact in float64."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 9, m).astype(float)


#: Pattern counts hitting every tail-word shape: full words, a 1-bit
#: tail, a 63-bit tail, and the single-word degenerates.
TAIL_NS = (1, 63, 64, 65, 127, 128, 191)


def _packed(rng, rows: int, n: int) -> np.ndarray:
    """Random packed (rows, words_for(n)) matrix with a clean tail."""
    words = rng.integers(0, 1 << 64, size=(rows, words_for(n)), dtype=np.uint64)
    words[:, -1] &= tail_mask(n)
    return words


class TestBitCount:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_matches_python_bitcount(self, seed):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 64, size=17, dtype=np.uint64)
        expected = np.array([int(v).bit_count() for v in words])
        np.testing.assert_array_equal(bit_count(words), expected)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_lut_fallback_matches_primary(self, seed):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 64, size=(3, 5), dtype=np.uint64)
        np.testing.assert_array_equal(_bit_count_lut(words), bit_count(words))

    def test_shape_preserved(self):
        words = np.full((2, 3), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        counts = bit_count(words)
        assert counts.shape == (2, 3)
        assert (counts == 64).all()

    @pytest.mark.parametrize("n", TAIL_NS)
    def test_lut_matches_bitwise_count(self, n):
        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy < 2.0: no np.bitwise_count to compare")
        words = _packed(np.random.default_rng(n), 5, n)
        lut = _bit_count_lut(words)
        fast = np.bitwise_count(words).astype(np.int64)
        np.testing.assert_array_equal(lut, fast)
        assert lut.dtype == fast.dtype == np.int64

    @pytest.mark.parametrize(
        "dtype", [np.uint64, np.uint32, np.uint8, np.int64]
    )
    def test_dtypes_converted_identically(self, dtype):
        # bit_count converts to uint64 by value; both paths must agree
        # through the conversion for every input dtype.
        vals = np.array([0, 1, 2, 127, 200], dtype=dtype)
        expected = np.array([bin(int(v)).count("1") for v in vals])
        np.testing.assert_array_equal(bit_count(vals), expected)
        as_u64 = np.ascontiguousarray(vals, dtype=np.uint64)
        np.testing.assert_array_equal(_bit_count_lut(as_u64), expected)

    def test_empty_input(self):
        empty = np.zeros((0,), dtype=np.uint64)
        assert bit_count(empty).shape == (0,)
        assert _bit_count_lut(empty).shape == (0,)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 9999), n=st.integers(1, 200))
    def test_popcount_words_no_unpack_matches_bits(self, seed, n):
        rng = np.random.default_rng(seed)
        bits = (rng.random(n) < 0.5).astype(np.uint8)
        words = pack_bits(bits)
        assert popcount_words(words) == int(bits.sum())
        # Garbage tails must be masked out when n is given.
        dirty = ~words
        assert popcount_words(dirty, n=n) == int((1 - bits).sum())


class TestPackedColumns:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999), n=st.integers(1, 100), m=st.integers(1, 9))
    def test_round_trip(self, seed, n, m):
        M = _random_matrix(seed, n, m)
        P = PackedColumns.from_dense(M)
        assert P.n_rows == n and P.m == m
        np.testing.assert_array_equal(P.to_dense(), M)

    def test_tail_bits_zero(self):
        M = np.ones((70, 2), dtype=bool)
        P = PackedColumns.from_dense(M)
        # 70 rows -> 2 words; 58 tail bits must be zero for exact popcounts.
        assert int(bit_count(P.words).sum()) == 140

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_weighted_error_bitwise_equal(self, seed):
        M = _random_matrix(seed, 100, 6)
        A = _random_matrix(seed + 1, 100, 6)
        for w in (None, _random_weights(seed, 6), np.power(2.0, np.arange(6))):
            dense = weighted_error(M, A, w)
            ww = np.ones(6) if w is None else w
            packed = packed_weighted_error(
                PackedColumns.from_dense(M), PackedColumns.from_dense(A), ww
            )
            assert dense == packed  # bit-for-bit, not approx

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        algebra=st.sampled_from(["semiring", "field"]),
    )
    def test_bool_product_equal(self, seed, algebra):
        rng = np.random.default_rng(seed)
        B = rng.random((80, 4)) < 0.4
        C = rng.random((4, 7)) < 0.4
        dense = bool_product(B, C, algebra)
        packed = packed_bool_product(PackedColumns.from_dense(B), C, algebra)
        np.testing.assert_array_equal(packed.to_dense(), dense)

    @pytest.mark.parametrize("n", TAIL_NS)
    def test_mismatch_counts_match_python_popcount(self, n):
        rng = np.random.default_rng(n)
        P = PackedColumns(_packed(rng, 4, n), n)
        A = PackedColumns(_packed(rng, 4, n), n)
        expected = [
            sum(int(p ^ a).bit_count() for p, a in zip(prow, arow))
            for prow, arow in zip(P.words, A.words)
        ]
        np.testing.assert_array_equal(mismatch_counts(P, A), expected)

    def test_mismatch_counts_accept_readonly_inputs(self):
        # The sanitizer hands out frozen arrays; the popcount paths must
        # never write their inputs.
        rng = np.random.default_rng(0)
        P = PackedColumns(_packed(rng, 4, 130), 130)
        A = PackedColumns(_packed(rng, 4, 130), 130)
        expected = mismatch_counts(P, A)
        P.words.setflags(write=False)
        A.words.setflags(write=False)
        np.testing.assert_array_equal(mismatch_counts(P, A), expected)

    def test_mismatch_counts_shape_check(self):
        P = PackedColumns.from_dense(np.zeros((8, 3), dtype=bool))
        Q = PackedColumns.from_dense(np.zeros((8, 4), dtype=bool))
        with pytest.raises(FactorizationError):
            mismatch_counts(P, Q)


class TestRowMasksAndWeightTable:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999), m=st.integers(1, 16))
    def test_row_masks_bits(self, seed, m):
        M = _random_matrix(seed, 20, m)
        masks = row_masks(M)
        for r in range(20):
            expected = sum(1 << j for j in range(m) if M[r, j])
            assert int(masks[r]) == expected

    def test_row_masks_width_limit(self):
        with pytest.raises(FactorizationError):
            row_masks(np.zeros((2, 65), dtype=bool))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), m=st.integers(1, 10))
    def test_weight_table_left_associated_sums(self, seed, m):
        # Arbitrary float weights: the table must equal the left-associated
        # increasing-index sum *exactly* (the canonical order contract).
        rng = np.random.default_rng(seed)
        w = rng.random(m)
        table = weight_table(w)
        for s in rng.integers(0, 1 << m, size=20):
            acc = 0.0
            for j in range(m):
                if (s >> j) & 1:
                    acc = acc + w[j]
            assert table[s] == acc

    def test_weight_table_width_limit(self):
        with pytest.raises(FactorizationError):
            weight_table(np.ones(MAX_MASK_BITS + 1))


def _dense_gains(M, covered, candidates, w, bonus, penalty):
    """The dense ASSO scoring (the pre-packed formulation)."""
    good = (M & ~covered).astype(float)
    bad = (~M & ~covered).astype(float)
    cand_w = candidates.astype(float) * w[None, :]
    gain = bonus * (good @ cand_w.T) - penalty * (bad @ cand_w.T)
    usage = gain > 0
    totals = np.where(usage, gain, 0.0).sum(axis=0)
    return totals, usage


class TestCandidateGains:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), m=st.integers(2, 10))
    def test_packed_equals_dense_matmul(self, seed, m):
        rng = np.random.default_rng(seed)
        n = 64
        M = rng.random((n, m)) < 0.5
        covered = rng.random((n, m)) < 0.2
        candidates = rng.random((5, m)) < 0.4
        w = _random_weights(seed, m)  # exact-sum weights
        totals_d, usage_d = _dense_gains(M, covered, candidates, w, 1.0, 1.0)

        wtab = weight_table(w)
        good = row_masks(M & ~covered)
        bad = row_masks(~M & ~covered)
        totals_p, usage_p = candidate_gains_masks(
            good, bad, row_masks(candidates), wtab, 1.0, 1.0
        )
        np.testing.assert_array_equal(totals_p, totals_d)
        np.testing.assert_array_equal(usage_p, usage_d)


def _fit_C_dense(M, B, weights, algebra):
    """Dense greedy decompressor fit, canonical per-column errors.

    Candidate errors are ``weights[j] * mismatch_count`` (DESIGN.md: count
    comparisons stand in for weighted comparisons within one column; the
    pre-packed formulation summed ``weights[j]`` once per mismatch row,
    whose pairwise-summation tree could break exact ties sub-ulp).
    """
    n, m = M.shape
    f = B.shape[1]
    C = np.zeros((f, m), dtype=bool)
    for j in range(m):
        target = M[:, j]
        cur = np.zeros(n, dtype=bool)
        err = weights[j] * int((target != cur).sum())
        while True:
            best_l, best_err, best_vec = None, err, None
            for l in range(f):
                if C[l, j]:
                    continue
                trial = (cur | B[:, l]) if algebra == "semiring" else (cur ^ B[:, l])
                trial_err = weights[j] * int((target != trial).sum())
                if trial_err < best_err:
                    best_l, best_err, best_vec = l, trial_err, trial
            if best_l is None:
                break
            C[best_l, j] = True
            err, cur = best_err, best_vec
    return C


class TestFitC:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        algebra=st.sampled_from(["semiring", "field"]),
    )
    def test_packed_fit_matches_dense_decisions(self, seed, algebra):
        rng = np.random.default_rng(seed)
        n, m, f = 64, 6, 3
        M = rng.random((n, m)) < 0.5
        B = rng.random((n, f)) < 0.5
        # Arbitrary float weights (plus a zero): decisions are per-column
        # count comparisons, so equality must hold for ANY weights.
        w = rng.random(m)
        w[0] = 0.0
        dense_C = _fit_C_dense(M, B, w, algebra)
        packed_C = fit_C_packed(
            PackedColumns.from_dense(M),
            PackedColumns.from_dense(B).words,
            w,
            algebra,
        )
        np.testing.assert_array_equal(packed_C, dense_C)


class TestCombineColumns:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        algebra=st.sampled_from(["semiring", "field"]),
    )
    def test_accumulation_matches_dense(self, seed, algebra):
        rng = np.random.default_rng(seed)
        n, f = 100, 5
        B = rng.random((n, f)) < 0.5
        sel = rng.random(f) < 0.5
        words = combine_columns(PackedColumns.from_dense(B).words, sel, algebra)
        if sel.any():
            cols = B[:, sel]
            expected = (
                cols.any(axis=1) if algebra == "semiring"
                else (cols.sum(axis=1) % 2).astype(bool)
            )
        else:
            expected = np.zeros(n, dtype=bool)
        np.testing.assert_array_equal(unpack_bits(words, n).astype(bool), expected)


class TestCanonicalError:
    def test_counts_dot_definition(self):
        counts = np.array([3, 0, 2])
        w = np.array([0.5, 10.0, 2.0])
        assert weighted_counts_error(counts, w) == float(np.dot([3.0, 0.0, 2.0], w))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_dense_weighted_error_uses_counts(self, seed):
        # weighted_error must equal dot(mismatch counts, w) bit-for-bit even
        # for messy float weights — that IS its definition now.
        rng = np.random.default_rng(seed)
        M = rng.random((50, 5)) < 0.5
        A = rng.random((50, 5)) < 0.5
        w = rng.random(5) * 3
        counts = (M ^ A).sum(axis=0)
        assert weighted_error(M, A, w) == weighted_counts_error(counts, w)
