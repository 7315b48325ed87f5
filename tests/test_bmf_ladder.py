"""Ladder == per-degree equivalence (the cache-compatibility contract).

``factorize_ladder(M, F)[f]`` must be byte-identical to
``factorize(M, f)`` for every degree, algebra, method and weight rail —
likewise for the ASSO sweep and the column-subset kernel — and the
ladder-based profiling worker must reproduce the legacy per-degree worker
bit for bit on real circuit windows.  See DESIGN.md "BMF kernel".
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import get_benchmark
from repro.core.bmf import (
    association_candidates,
    asso_ladder,
    asso_sweep,
    column_select_bmf,
    column_select_ladder,
    factorize,
    factorize_ladder,
    numeric_weights,
)
from repro.core.bmf.asso import DEFAULT_TAUS
from repro.core.profile import (
    ProfileParams,
    WindowTask,
    output_significance,
    profile_window_task,
    profile_window_task_reference,
    window_weights,
)
from repro.errors import FactorizationError
from repro.partition import decompose

# The package re-exports the ``asso`` function under the module's name.
asso_mod = importlib.import_module("repro.core.bmf.asso")


def _matrix_and_weights(seed: int):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    m = int(rng.integers(2, 7))
    M = rng.random((1 << k, m)) < rng.uniform(0.2, 0.8)
    weights = [None, numeric_weights(m), rng.random(m) * 2]
    return M, m, weights[int(rng.integers(0, 3))]


def _assert_bmf_equal(a, b):
    np.testing.assert_array_equal(a.B, b.B)
    np.testing.assert_array_equal(a.C, b.C)
    assert a.f == b.f and a.algebra == b.algebra and a.method == b.method
    assert a.error == b.error  # bit-for-bit
    assert a.hamming == b.hamming


class TestFactorizeLadder:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        algebra=st.sampled_from(["semiring", "field"]),
        method=st.sampled_from(["asso", "asso+refine"]),
    )
    def test_every_degree_matches_per_degree_call(self, seed, algebra, method):
        M, m, weights = _matrix_and_weights(seed)
        ladder = factorize_ladder(M, m - 1, weights, algebra, method)
        assert sorted(ladder) == list(range(1, m))
        for f in range(1, m):
            _assert_bmf_equal(ladder[f], factorize(M, f, weights, algebra, method))

    def test_exhaustive_fallback(self, rng):
        M = rng.random((8, 3)) < 0.5
        ladder = factorize_ladder(M, 2, method="exhaustive")
        for f in (1, 2):
            _assert_bmf_equal(ladder[f], factorize(M, f, method="exhaustive"))

    def test_invalid_degree_rejected(self, rng):
        M = rng.random((8, 3)) < 0.5
        with pytest.raises(FactorizationError):
            factorize_ladder(M, 0)
        with pytest.raises(FactorizationError):
            factorize_ladder(M, 2, method="nope")


class TestAssoLadder:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_matches_sweep_including_tau(self, seed):
        M, m, weights = _matrix_and_weights(seed)
        ladder = asso_ladder(M, m - 1, weights=weights)
        for f in range(1, m):
            swept = asso_sweep(M, f, weights=weights)
            snap = ladder[f]
            np.testing.assert_array_equal(snap.B, swept.B)
            np.testing.assert_array_equal(snap.C, swept.C)
            assert snap.error == swept.error
            assert snap.tau == swept.tau

    def test_empty_taus_rejected(self, rng):
        M = rng.random((8, 3)) < 0.5
        with pytest.raises(FactorizationError):
            asso_ladder(M, 2, taus=())

    @pytest.fixture
    def descents(self, monkeypatch):
        """Count ``_asso_descent`` calls made after the fixture is set up."""
        calls = []
        descent = asso_mod._asso_descent

        def counting_descent(*args, **kwargs):
            calls.append(1)
            return descent(*args, **kwargs)

        monkeypatch.setattr(asso_mod, "_asso_descent", counting_descent)
        return calls

    def test_repeated_candidate_set_costs_one_descent(self, descents):
        M, m, weights = _matrix_and_weights(0)
        once = asso_ladder(M, m - 1, taus=(0.5,), weights=weights)
        swept_once = asso_sweep(M, m - 1, taus=(0.5,), weights=weights)
        descents.clear()
        ladder = asso_ladder(M, m - 1, taus=(0.5, 0.5, 0.5), weights=weights)
        assert len(descents) == 1
        swept = asso_sweep(M, m - 1, taus=(0.5, 0.5, 0.5), weights=weights)
        assert len(descents) == 2
        for a, b in [(ladder[f], once[f]) for f in range(1, m)] + [
            (swept, swept_once)
        ]:
            np.testing.assert_array_equal(a.B, b.B)
            np.testing.assert_array_equal(a.C, b.C)
            assert a.error == b.error
            assert a.tau == b.tau

    @pytest.mark.parametrize("seed", range(4))
    def test_one_descent_per_distinct_candidate_set(self, descents, seed):
        M, m, weights = _matrix_and_weights(seed)
        distinct = {
            association_candidates(M, tau, dedup=True).tobytes()
            for tau in DEFAULT_TAUS
        }
        asso_ladder(M, m - 1, weights=weights)
        assert len(descents) == len(distinct)


class TestColumnSelectLadder:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        algebra=st.sampled_from(["semiring", "field"]),
    )
    def test_matches_per_degree_call(self, seed, algebra):
        M, m, weights = _matrix_and_weights(seed)
        ladder = column_select_ladder(M, m, weights, algebra)
        assert sorted(ladder) == list(range(1, m + 1))
        for f in range(1, m + 1):
            per = column_select_bmf(M, f, weights, algebra)
            lad = ladder[f]
            assert lad.selected == per.selected
            np.testing.assert_array_equal(lad.B, per.B)
            np.testing.assert_array_equal(lad.C, per.C)
            assert lad.error == per.error

    def test_selection_is_prefix_stable(self, rng):
        M = rng.random((32, 5)) < 0.5
        full = column_select_bmf(M, 5).selected
        for f in range(1, 5):
            assert column_select_bmf(M, f).selected == full[:f]


class TestCandidateDedup:
    def test_dedup_keeps_first_occurrence_order(self):
        M = np.array(
            [[1, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=bool
        )
        full = association_candidates(M, 0.6)
        deduped = association_candidates(M, 0.6, dedup=True)
        # No duplicates, no all-zero rows, first-occurrence order kept.
        assert deduped.shape[0] == len({r.tobytes() for r in deduped})
        assert deduped.any(axis=1).all()
        kept = [r.tobytes() for r in deduped]
        seen = []
        for row in full:
            if row.any() and row.tobytes() not in seen:
                seen.append(row.tobytes())
        assert kept == seen

    def test_dense_shape_contract_unchanged(self, rng):
        M = rng.random((16, 4)) < 0.5
        assert association_candidates(M, 0.7).shape == (4, 4)


def _variants_equal(a, b) -> bool:
    if a.exact_area != b.exact_area or list(a.variants) != list(b.variants):
        return False
    for f in a.variants:
        if len(a.variants[f]) != len(b.variants[f]):
            return False
        for x, y in zip(a.variants[f], b.variants[f]):
            if not (
                np.array_equal(x.table, y.table)
                and np.array_equal(x.B, y.B)
                and np.array_equal(x.C, y.C)
                and x.area == y.area
                and x.bmf_error == y.bmf_error
                and x.kind == y.kind
                and type(x.replacement) is type(y.replacement)
            ):
                return False
    return True


class TestProfileLadderEquivalence:
    """The acceptance contract: ladder profiles == legacy per-degree profiles."""

    @pytest.mark.parametrize("bench,window", [("mult8", 6), ("adder32", 5)])
    def test_bench_circuit_profiles_byte_identical(self, bench, window):
        circuit = get_benchmark(bench).factory()
        windows = decompose(circuit, window, window)[:3]
        sig = output_significance(circuit)
        params = ProfileParams(estimate_area=True)
        for w in windows:
            task = WindowTask(
                w.table(circuit),
                window_weights(circuit, w, "significance", sig),
                w.subcircuit(circuit),
                params,
            )
            ladder = profile_window_task(task)
            legacy = profile_window_task_reference(task)
            assert _variants_equal(ladder, legacy)
            assert ladder.n_syntheses == legacy.n_syntheses
            # Ladder accounting: same degree coverage, far fewer descents.
            assert ladder.n_ladder_levels == legacy.n_ladder_levels
            if w.n_outputs > 2:
                assert ladder.n_factorizations < legacy.n_factorizations

    def test_uniform_rail_single_ladder(self):
        # A task with uniform weights runs one rail; selection="cone" runs
        # one ladder family -> exactly one descent.
        circuit = get_benchmark("adder32").factory()
        w = decompose(circuit, 5, 5)[0]
        task = WindowTask(
            w.table(circuit),
            None,
            None,
            ProfileParams(selection="cone", estimate_area=False),
        )
        result = profile_window_task(task)
        assert result.n_factorizations == 1
        assert result.n_ladder_levels == w.n_outputs - 1
        assert _variants_equal(result, profile_window_task_reference(task))
