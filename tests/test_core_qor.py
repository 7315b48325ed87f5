"""Tests for QoR metrics (Eq. 1 / Eq. 2 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import ripple_adder
from repro.circuit import (
    CircuitBuilder,
    patterns_to_words,
    simulate_outputs,
)
from repro.core.qor import METRICS, QoREvaluator, QoRSpec, circuit_words
from repro.errors import SimulationError


def _make_evaluator(circuit, patterns, spec=QoRSpec()):
    words = patterns_to_words(patterns)
    exact = simulate_outputs(circuit, words)
    return QoREvaluator(circuit, exact, patterns.shape[0], spec), exact


class TestQoRSpec:
    def test_valid_metrics(self):
        for m in METRICS:
            QoRSpec(m)

    def test_invalid_metric(self):
        with pytest.raises(SimulationError):
            QoRSpec("rmse")


class TestCircuitWords:
    def test_words_from_attrs(self):
        c = ripple_adder(4)
        words = circuit_words(c)
        assert len(words) == 1
        assert words[0].name == "sum"
        assert words[0].width == 5

    def test_fallback_single_word(self):
        b = CircuitBuilder()
        a = b.input("a")
        b.output("y0", a)
        b.output("y1", b.not_(a))
        c = b.build()
        c.attrs.pop("words", None)
        words = circuit_words(c)
        assert len(words) == 1
        assert words[0].width == 2


class TestQoREvaluator:
    def test_zero_error_on_identical(self, rng):
        c = ripple_adder(4)
        pats = rng.integers(0, 2, size=(200, 8), dtype=np.uint8)
        ev, exact = _make_evaluator(c, pats)
        metrics = ev.metrics(exact)
        assert all(v == 0.0 for v in metrics.values())

    def test_known_absolute_error(self):
        # adder sum vs sum with LSB forced to 0: abs error = lsb value
        c = ripple_adder(4)
        pats = np.array(
            [[1, 0, 0, 0, 0, 0, 0, 0],  # a=1, b=0 -> sum=1
             [0, 0, 0, 0, 1, 0, 0, 0]],  # a=0, b=1 -> sum=1
            dtype=np.uint8,
        )
        ev, exact = _make_evaluator(c, pats)
        approx = exact.copy()
        approx[0] = 0  # clear output bit 0 (sum[0]) for all samples
        m = ev.metrics(approx)
        assert m["mae"] == pytest.approx(1.0)  # both samples lose their LSB
        assert m["mre"] == pytest.approx(1.0)  # |1-0|/1 for both
        assert m["hamming"] == pytest.approx(1.0)

    def test_relative_error_uses_max_denominator(self):
        # exact result 0 must not divide by zero
        c = ripple_adder(2)
        pats = np.zeros((1, 4), dtype=np.uint8)  # a=0,b=0 -> sum=0
        ev, exact = _make_evaluator(c, pats)
        approx = exact.copy()
        approx[1] = 1  # flip bit 1 -> approx=2
        m = ev.metrics(approx)
        assert np.isfinite(m["mre"])
        assert m["mre"] == pytest.approx(2.0)  # |0-2|/max(0,1)

    def test_nmae_normalized_by_word_range(self):
        c = ripple_adder(4)  # sum word is 5 bits, max 31
        pats = np.zeros((1, 8), dtype=np.uint8)
        ev, exact = _make_evaluator(c, pats)
        approx = exact.copy()
        approx[4] = 1  # MSB flip: abs err 16
        m = ev.metrics(approx)
        assert m["nmae"] == pytest.approx(16 / 31)

    def test_evaluate_matches_metrics(self, rng):
        c = ripple_adder(4)
        pats = rng.integers(0, 2, size=(500, 8), dtype=np.uint8)
        for metric in METRICS:
            ev, exact = _make_evaluator(c, pats, QoRSpec(metric))
            approx = exact.copy()
            approx[2] ^= np.uint64(0xF0F0F0F0)
            assert ev.evaluate(approx) == pytest.approx(ev.metrics(approx)[metric])

    def test_multi_word_average(self, rng):
        from repro.bench import butterfly

        c = butterfly(4)
        pats = rng.integers(0, 2, size=(300, 8), dtype=np.uint8)
        ev, exact = _make_evaluator(c, pats)
        # flip one bit of word x only
        approx = exact.copy()
        approx[0] = ~approx[0]
        m = ev.metrics(approx)
        assert m["mae"] > 0
        # errors averaged over both words: half the terms are zero
        approx_both = exact.copy()
        approx_both[0] = ~approx_both[0]
        x_idx = [w for w in c.attrs["words"] if w.name == "y"][0].indices[0]
        approx_both[x_idx] = ~approx_both[x_idx]
        m2 = ev.metrics(approx_both)
        assert m2["mae"] > m["mae"]

    def test_word_partials_zero_padding_is_exact(self):
        # 65 samples span two packed words: the missing 63 tail samples
        # of the second word contribute exactly 0.0.
        b = CircuitBuilder()
        b.output("y0", b.input("a"))
        c = b.build()
        ev, exact = _make_evaluator(
            c, np.ones((65, 1), dtype=np.uint8), QoRSpec("mae")
        )
        approx = ~exact  # every valid sample off by one; garbage tail
        np.testing.assert_array_equal(ev.word_partials(0, approx), [64.0, 1.0])
        assert ev.evaluate(approx) == 1.0
