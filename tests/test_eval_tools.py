"""Tests for Pareto tools and equivalence checking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import mult8, ripple_adder
from repro.circuit import (
    CircuitBuilder,
    equivalent,
    miter,
    truth_table,
)
from repro.core.explorer import ExplorerConfig, explore
from repro.errors import CircuitError
from repro.eval import (
    area_at_error,
    exploration_front,
    hypervolume,
    pareto_front,
)


def _lsb_broken_adder(width):
    """Adder variant with its LSB stuck at zero."""
    b = CircuitBuilder("broken")
    a = b.input_word("a", width)
    x = b.input_word("b", width)
    s, c = b.add(a, x)
    s[0] = b.const(False)
    b.output_word("sum", s + [c])
    return b.build()


class TestParetoTools:
    def test_front_removes_dominated(self):
        pts = [(0.1, 0.9), (0.2, 0.8), (0.15, 0.95), (0.3, 0.7)]
        front = pareto_front(pts)
        assert front == [(0.1, 0.9), (0.2, 0.8), (0.3, 0.7)]

    def test_front_of_front_is_identity(self):
        pts = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.1)]
        assert pareto_front(pareto_front(pts)) == pareto_front(pts)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 999))
    def test_front_members_mutually_nondominated(self, seed):
        rng = np.random.default_rng(seed)
        pts = [(float(e), float(c)) for e, c in rng.random((30, 2))]
        front = pareto_front(pts)
        for i, (e1, c1) in enumerate(front):
            for j, (e2, c2) in enumerate(front):
                if i != j:
                    assert not (e2 <= e1 and c2 < c1)

    def test_hypervolume_simple(self):
        front = [(0.0, 0.5)]
        assert hypervolume(front) == pytest.approx(0.5)

    def test_hypervolume_monotone_in_points(self):
        small = hypervolume([(0.2, 0.6)])
        larger = hypervolume([(0.2, 0.6), (0.5, 0.3)])
        assert larger > small

    def test_area_at_error(self):
        front = [(0.05, 0.8), (0.2, 0.5)]
        assert area_at_error(front, 0.01) == 1.0
        assert area_at_error(front, 0.1) == 0.8
        assert area_at_error(front, 0.5) == 0.5

    def test_exploration_front_integration(self):
        result = explore(
            ripple_adder(6),
            ExplorerConfig(
                n_samples=512, max_inputs=6, max_outputs=6, error_cap=0.3
            ),
        )
        front = exploration_front(result)
        assert front
        errs = [e for e, _ in front]
        costs = [c for _, c in front]
        assert errs == sorted(errs)
        assert costs == sorted(costs, reverse=True)


class TestEquivalence:
    def test_identical_proven(self):
        c = ripple_adder(5)
        res = equivalent(c, c.copy())
        assert res.equivalent and res.proven

    def test_differing_refuted_with_counterexample(self):
        res = equivalent(ripple_adder(5), _lsb_broken_adder(5))
        assert not res.equivalent
        assert res.counterexample is not None
        # counterexample must actually expose the difference
        from repro.circuit import simulate_patterns

        pat = res.counterexample[None, :]
        out_a = simulate_patterns(ripple_adder(5), pat)
        out_b = simulate_patterns(_lsb_broken_adder(5), pat)
        assert (out_a != out_b).any()

    def test_interface_mismatch_raises(self):
        with pytest.raises(CircuitError):
            equivalent(ripple_adder(4), ripple_adder(5))

    def test_wide_circuits_random_mode(self):
        c = mult8()  # 16 inputs: at the exhaustive boundary; widen it
        from repro.bench import mac8_32

        a = mac8_32()
        res = equivalent(a, a.copy(), n_random=4096)
        assert res.equivalent and not res.proven

    def test_miter_zero_iff_equivalent(self):
        a = ripple_adder(4)
        m = miter(a, a.copy())
        assert not truth_table(m)[:, 0].any()
        m2 = miter(a, _lsb_broken_adder(4))
        assert truth_table(m2)[:, 0].any()
