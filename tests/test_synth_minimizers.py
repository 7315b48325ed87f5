"""Tests for espresso and Quine–McCluskey minimizers.

The key invariants: covers must implement the function exactly on care
rows; espresso should be irredundant; QM must be optimal on small inputs;
and espresso must stay within a reasonable factor of the exact optimum.
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.synth import (
    Cover,
    Cube,
    EspressoOptions,
    espresso,
    espresso_multi,
    prime_implicants,
    quine_mccluskey,
)


def _random_table(rng, k, density=0.5):
    return rng.random(1 << k) < density


def _expand_cube_reference(cube, off, k, msb_first):
    """The cube-object EXPAND, kept as the oracle for the mask-vector one.

    Builds a trial cube per literal and checks it against the OFF-set,
    sweeping until a pass raises nothing.
    """
    order = range(k - 1, -1, -1) if msb_first else range(k)
    changed = True
    while changed:
        changed = False
        for i in order:
            if not (cube.mask >> i) & 1:
                continue
            candidate = cube.without_literal(i)
            if off.size and candidate.covers(off).any():
                continue
            cube = candidate
            changed = True
        if cube.mask == 0:
            break
    return cube


@contextlib.contextmanager
def _reference_expand():
    """Run :func:`espresso` with the oracle EXPAND swapped in."""
    module = importlib.import_module("repro.synth.espresso")
    fast = module._expand_cube
    module._expand_cube = _expand_cube_reference
    try:
        yield
    finally:
        module._expand_cube = fast


class TestExpandOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 10),
        density=st.sampled_from([0.1, 0.5, 0.9]),
        with_dc=st.booleans(),
        quality=st.booleans(),
        msb_first=st.booleans(),
    )
    def test_espresso_cubes_match_reference_expand(
        self, seed, k, density, with_dc, quality, msb_first
    ):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, k, density)
        dc = rng.random(1 << k) < 0.2 if with_dc else None
        options = EspressoOptions(
            quality=quality, literal_order_msb_first=msb_first, seed=seed % 7
        )
        got = espresso(table, dc, options)
        with _reference_expand():
            want = espresso(table, dc, options)
        assert got.cubes == want.cubes

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 10),
        msb_first=st.booleans(),
    )
    def test_expand_matches_reference_on_any_cube(self, seed, k, msb_first):
        # Arbitrary cubes, including ones that already cover OFF minterms
        # (both versions must then leave them unchanged).
        from repro.synth.espresso import _expand_cube

        rng = np.random.default_rng(seed)
        full = (1 << k) - 1
        mask = int(rng.integers(0, full + 1))
        cube = Cube(mask, int(rng.integers(0, full + 1)) & mask)
        off = np.flatnonzero(rng.random(1 << k) < 0.3).astype(np.int64)
        assert _expand_cube(cube, off, k, msb_first) == _expand_cube_reference(
            cube, off, k, msb_first
        )


class TestEspressoCorrectness:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 9999), k=st.integers(1, 6))
    def test_equivalence_random_functions(self, seed, k):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, k)
        cover = espresso(table)
        np.testing.assert_array_equal(cover.evaluate(), table)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_equivalence_with_dc(self, seed):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, 5)
        dc = rng.random(32) < 0.3
        cover = espresso(table, dc)
        got = cover.evaluate()
        care = ~dc
        np.testing.assert_array_equal(got[care], table[care])

    def test_constant_zero(self):
        cover = espresso(np.zeros(8, dtype=bool))
        assert len(cover) == 0

    def test_constant_one(self):
        cover = espresso(np.ones(8, dtype=bool))
        assert len(cover) == 1
        assert cover.cubes[0].n_literals == 0

    def test_single_minterm(self):
        table = np.zeros(16, dtype=bool)
        table[9] = True
        cover = espresso(table)
        assert len(cover) == 1
        assert cover.cubes[0].n_literals == 4

    def test_bad_table_length(self):
        with pytest.raises(SynthesisError):
            espresso(np.zeros(5, dtype=bool))

    def test_xor_needs_full_cubes(self):
        # XOR has no mergeable adjacent minterms: 2^(k-1) full cubes.
        k = 4
        idx = np.arange(1 << k)
        parity = np.zeros(1 << k, dtype=bool)
        for i in range(k):
            parity ^= ((idx >> i) & 1).astype(bool)
        cover = espresso(parity)
        assert len(cover) == 1 << (k - 1)
        assert all(c.n_literals == k for c in cover)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_irredundant(self, seed):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, 5)
        cover = espresso(table)
        # Removing any single cube must change the function.
        for drop in range(len(cover)):
            reduced = Cover(cover.k, [c for i, c in enumerate(cover) if i != drop])
            assert not np.array_equal(reduced.evaluate(), table)

    def test_quality_mode_not_worse(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            table = _random_table(rng, 6)
            fast = espresso(table)
            good = espresso(table, options=EspressoOptions(quality=True))
            assert (len(good), good.n_literals) <= (len(fast), fast.n_literals)
            np.testing.assert_array_equal(good.evaluate(), table)


class TestEspressoMulti:
    def test_each_column_implemented(self, rng):
        tables = rng.random((32, 4)) < 0.5
        covers = espresso_multi(tables)
        assert len(covers) == 4
        for j, cover in enumerate(covers):
            np.testing.assert_array_equal(cover.evaluate(), tables[:, j])

    def test_rejects_1d(self):
        with pytest.raises(SynthesisError):
            espresso_multi(np.zeros(8, dtype=bool).reshape(8))


class TestPrimeImplicants:
    def test_classic_example(self):
        # f = sum m(0,1,2,5,6,7) over 3 vars.  Cube strings below are in
        # this library's convention: input 0 (the LSB of the minterm index)
        # is the leftmost character.
        primes = prime_implicants(3, [0, 1, 2, 5, 6, 7], [])
        strings = {p.to_string(3) for p in primes}
        assert strings == {"-00", "0-0", "10-", "01-", "1-1", "-11"}

    def test_full_cover_merges_to_tautology(self):
        primes = prime_implicants(2, [0, 1, 2, 3], [])
        assert len(primes) == 1
        assert primes[0].n_literals == 0

    def test_dc_participates_in_merging(self):
        # ON = {0}, DC = {1}: prime should be the pair cube "0-" (over 1 var: "-").
        primes = prime_implicants(1, [0], [1])
        assert any(p.n_literals == 0 for p in primes)


class TestQuineMcCluskey:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 9999), k=st.integers(1, 4))
    def test_equivalence(self, seed, k):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, k)
        cover = quine_mccluskey(table)
        np.testing.assert_array_equal(cover.evaluate(), table)

    def test_known_optimal_size(self):
        # f = a&b | ~a&~b (XNOR): exactly 2 cubes of 2 literals.
        table = np.array([True, False, False, True])
        cover = quine_mccluskey(table)
        assert len(cover) == 2
        assert cover.n_literals == 4

    def test_input_limit(self):
        with pytest.raises(SynthesisError):
            quine_mccluskey(np.zeros(1 << 11, dtype=bool))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_espresso_within_factor_of_optimal(self, seed):
        """Espresso's cube count should stay close to the exact optimum."""
        rng = np.random.default_rng(seed)
        table = _random_table(rng, 4)
        exact = quine_mccluskey(table)
        heur = espresso(table, options=EspressoOptions(quality=True))
        assert len(heur) <= max(len(exact) + 2, int(1.5 * len(exact)))

    def test_dc_exploited(self):
        # ON={3}, DC={0,1,2}: with DCs the function is coverable by 1 cube
        # cheaper than the 2-literal minterm.
        table = np.array([False, False, False, True])
        dc = np.array([True, True, True, False])
        cover = quine_mccluskey(table, dc)
        assert cover.n_literals <= 1
