"""Tests for column-subset BMF and literal-aware smoothing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bmf import (
    bool_product,
    column_select_bmf,
    factorize,
    hamming_distance,
    numeric_weights,
    smooth_B_ties,
    update_B_exact,
    weighted_error,
)
from repro.core.bmf.boolean import check_weights
from repro.core.bmf.refine import _combination_table
from repro.errors import FactorizationError


def _smooth_B_ties_dense(
    M, C, weights=None, algebra="semiring", passes=3, slack=0.0
):
    """The dense one-hot vote implementation, kept as the oracle.

    Votes every row over all ``2**f`` codes through an ``(n, k, 2**f)``
    float gather; :func:`smooth_B_ties` must pick exactly the same codes.
    """
    M = np.asarray(M, dtype=bool)
    C = np.asarray(C, dtype=bool)
    f, m = C.shape
    n = M.shape[0]
    w = check_weights(weights, m)
    combos = _combination_table(C, algebra)  # (2^f, m)
    Mw = M.astype(float) * w[None, :]
    Nw = (~M).astype(float) * w[None, :]
    dist = Mw @ (~combos).T.astype(float) + Nw @ combos.T.astype(float)
    row_min = dist.min(axis=1)
    ties = dist <= row_min[:, None] + slack + 1e-9  # (n, 2^f)

    popularity = ties.sum(axis=0).astype(float)
    codes = np.argmax(ties * popularity[None, :], axis=1)

    k = max(n.bit_length() - 1, 1)
    neighbors = np.empty((n, k), dtype=np.int64)
    idx = np.arange(n)
    for i in range(k):
        neighbors[:, i] = idx ^ (1 << i)
    neighbors %= n

    one_hot = np.zeros((n, 1 << f), dtype=np.float64)
    for _ in range(passes):
        one_hot[:] = 0.0
        one_hot[idx, codes] = 1.0
        votes = one_hot[neighbors].sum(axis=1)  # (n, 2^f)
        score = ties * (votes + 1e-3 * popularity[None, :])
        new_codes = np.argmax(score, axis=1)
        if (new_codes == codes).all():
            break
        codes = new_codes

    B = np.zeros((n, f), dtype=bool)
    for level in range(f):
        B[:, level] = (codes >> level) & 1
    return B


class TestColumnSelect:
    def test_B_is_column_subset(self, rng):
        M = rng.random((32, 6)) < 0.5
        res = column_select_bmf(M, 3)
        assert len(res.selected) == 3
        np.testing.assert_array_equal(res.B, M[:, list(res.selected)])

    def test_kept_columns_are_exact(self, rng):
        M = rng.random((32, 6)) < 0.5
        res = column_select_bmf(M, 3)
        approx = bool_product(res.B, res.C)
        for j in res.selected:
            np.testing.assert_array_equal(approx[:, j], M[:, j])

    def test_full_degree_is_exact(self, rng):
        M = rng.random((16, 4)) < 0.5
        res = column_select_bmf(M, 4)
        assert res.error == 0.0

    def test_error_non_increasing_in_f(self, rng):
        M = rng.random((64, 6)) < 0.4
        errors = [column_select_bmf(M, f).error for f in range(1, 7)]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_error_matches_product(self, rng):
        M = rng.random((32, 5)) < 0.5
        res = column_select_bmf(M, 2)
        assert res.error == pytest.approx(
            hamming_distance(M, bool_product(res.B, res.C))
        )

    def test_weighted_selection_prefers_heavy_columns(self):
        rng = np.random.default_rng(11)
        M = rng.random((64, 4)) < 0.5
        w = numeric_weights(4)
        res = column_select_bmf(M, 1, weights=w)
        # the kept column should reproduce the heaviest column exactly
        approx = bool_product(res.B, res.C)
        np.testing.assert_array_equal(approx[:, 3], M[:, 3])

    def test_field_algebra(self, rng):
        M = rng.random((16, 4)) < 0.5
        res = column_select_bmf(M, 2, algebra="field")
        assert res.error == pytest.approx(
            hamming_distance(M, bool_product(res.B, res.C, "field"))
        )

    def test_invalid_degree(self, rng):
        M = rng.random((8, 3)) < 0.5
        with pytest.raises(FactorizationError):
            column_select_bmf(M, 0)
        with pytest.raises(FactorizationError):
            column_select_bmf(M, 4)


class TestSmoothBTies:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_zero_slack_preserves_optimal_error(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((32, 5)) < 0.5
        C = rng.random((2, 5)) < 0.5
        opt = update_B_exact(M, C)
        smooth = smooth_B_ties(M, C, slack=0.0)
        e_opt = weighted_error(M, bool_product(opt, C))
        e_smooth = weighted_error(M, bool_product(smooth, C))
        assert e_smooth == pytest.approx(e_opt)

    def test_slack_bounds_extra_error(self, rng):
        M = rng.random((64, 5)) < 0.5
        C = rng.random((3, 5)) < 0.5
        opt_err = weighted_error(M, bool_product(update_B_exact(M, C), C))
        slack = 1.0
        smooth = smooth_B_ties(M, C, slack=slack)
        err = weighted_error(M, bool_product(smooth, C))
        assert err <= opt_err + slack * M.shape[0] + 1e-9

    def test_negative_slack_rejected(self, rng):
        M = rng.random((8, 3)) < 0.5
        C = rng.random((2, 3)) < 0.5
        with pytest.raises(FactorizationError):
            smooth_B_ties(M, C, slack=-1.0)

    def test_smoothing_reduces_column_entropy(self):
        # On a structured table the smoothed B should merge into fewer,
        # larger cubes than arbitrary tie-breaking.
        from repro.bench import ripple_adder
        from repro.circuit import truth_table
        from repro.synth import espresso

        M = truth_table(ripple_adder(3))  # 64 x 4
        result = factorize(M, 2, smooth=False)
        raw_cubes = sum(
            len(espresso(result.B[:, l])) for l in range(result.B.shape[1])
        )
        smoothed = smooth_B_ties(M, result.C)
        smooth_cubes = sum(
            len(espresso(smoothed[:, l])) for l in range(smoothed.shape[1])
        )
        assert smooth_cubes <= raw_cubes

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 10),
        m=st.integers(2, 8),
        data=st.data(),
        weighted=st.booleans(),
        slack=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        algebra=st.sampled_from(["semiring", "field"]),
        density=st.sampled_from([0.1, 0.5, 0.9]),
    )
    def test_matches_dense_oracle(
        self, seed, k, m, data, weighted, slack, algebra, density
    ):
        f = data.draw(st.integers(1, m - 1), label="f")
        rng = np.random.default_rng(seed)
        M = rng.random((1 << k, m)) < density
        C = rng.random((f, m)) < density
        weights = rng.random(m) * 3 + 0.1 if weighted else None
        got = smooth_B_ties(M, C, weights, algebra, slack=slack)
        want = _smooth_B_ties_dense(M, C, weights, algebra, slack=slack)
        assert np.array_equal(got, want)

    def test_matches_dense_oracle_realistic(self):
        # The profiling regime: a 10-input, 9-output window truth table
        # (1024 rows, f up to 9), factored then re-coded.
        from repro.bench import get_benchmark
        from repro.partition import decompose

        circuit = get_benchmark("mult8").factory()
        window = max(decompose(circuit, 10, 9), key=lambda w: w.n_inputs)
        M = window.table(circuit)
        assert M.shape[0] >= 256
        for f in (1, M.shape[1] // 2, M.shape[1] - 1):
            C = factorize(M, f, smooth=False).C
            np.testing.assert_array_equal(
                smooth_B_ties(M, C), _smooth_B_ties_dense(M, C)
            )
        # A dense random 1024 x 9 case with f = 9 basis rows as well.
        rng = np.random.default_rng(2024)
        M = rng.random((1024, 9)) < 0.5
        C = rng.random((9, 9)) < 0.3
        assert np.array_equal(
            smooth_B_ties(M, C, slack=1.0),
            _smooth_B_ties_dense(M, C, slack=1.0),
        )


class TestFactorizeSmoothing:
    def test_smoothing_never_hurts_error(self, rng):
        for _ in range(10):
            M = rng.random((32, 5)) < 0.5
            plain = factorize(M, 2, smooth=False)
            smoothed = factorize(M, 2, smooth=True)
            assert smoothed.error <= plain.error + 1e-9

    def test_smooth_slack_changes_product(self, rng):
        M = rng.random((64, 5)) < 0.5
        a = factorize(M, 2, smooth_slack=0.0)
        b = factorize(M, 2, smooth_slack=2.0)
        # with slack the error may grow but must stay finite and the
        # factorization valid
        np.testing.assert_array_equal(b.product, bool_product(b.B, b.C))
        assert b.error >= a.error - 1e-9
