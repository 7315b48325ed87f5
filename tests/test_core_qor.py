"""Tests for QoR metrics (Eq. 1 / Eq. 2 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import ripple_adder
from repro.circuit import (
    CircuitBuilder,
    WordSpec,
    patterns_to_words,
    random_input_words,
    simulate_outputs,
)
from repro.circuit.simulate import decode_rows, unpack_bits, words_for
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
            assert ev.evaluate(approx) == ev.metrics(approx)[metric]

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


def _passthrough(n_outputs: int, words=None):
    """A circuit whose outputs are its inputs, with optional word specs."""
    b = CircuitBuilder("wires")
    for i in range(n_outputs):
        b.output(f"o{i}", b.input(f"i{i}"))
    c = b.build()
    c.attrs.pop("words", None)
    if words is not None:
        c.attrs["words"] = list(words)
    return c


class TestWideWords:
    def test_to_ints_rejects_words_past_63_bits(self):
        spec = WordSpec("o", tuple(range(70)))
        bits = np.zeros((1, 70), dtype=np.uint8)
        bits[0, 65] = 1  # used to decode to 0 silently
        with pytest.raises(SimulationError, match="'o'"):
            spec.to_ints(bits)

    def test_evaluator_rejects_70_output_default_word(self, rng):
        c = _passthrough(70)
        assert "words" not in c.attrs
        exact = random_input_words(70, 100, rng)
        with pytest.raises(SimulationError, match="'out'.*70 bits"):
            QoREvaluator(c, exact, 100)

    def test_decode_rejects_64_rows(self, rng):
        with pytest.raises(SimulationError):
            decode_rows(random_input_words(64, 10, rng), 10)

    def test_63_bit_words_decode(self, rng):
        for signed in (False, True):
            spec = WordSpec("w", tuple(range(63)), signed)
            rows = random_input_words(63, 70, rng)
            np.testing.assert_array_equal(
                decode_rows(rows, 70, signed),
                spec.to_ints(unpack_bits(rows, 70).T),
            )


class TestDecodeRows:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 63),
        n=st.integers(1, 300),
        signed=st.booleans(),
    )
    # The accumulator-width boundaries (int16 / int32 / int64).
    @example(seed=1, width=15, n=200, signed=False)
    @example(seed=2, width=16, n=200, signed=False)
    @example(seed=3, width=31, n=200, signed=False)
    @example(seed=4, width=32, n=200, signed=True)
    @example(seed=5, width=63, n=200, signed=False)
    def test_matches_to_ints(self, seed, width, n, signed):
        """The shift-add decode equals WordSpec.to_ints (n need not be a
        multiple of 64; tail garbage past n is ignored)."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(
            0, 1 << 64, size=(width, words_for(n)), dtype=np.uint64
        )
        spec = WordSpec("w", tuple(range(width)), signed)
        expect = spec.to_ints(unpack_bits(rows, n).T)
        got = decode_rows(rows, n, signed)
        assert got.dtype.kind == "i" and got.dtype.itemsize * 8 > width
        np.testing.assert_array_equal(got, expect)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 63),
        n=st.integers(65, 500),
        signed=st.booleans(),
        data=st.data(),
    )
    def test_chunk_sliced_calls(self, seed, width, n, signed, data):
        """A word-aligned slice decodes to the matching slice of the
        full-width decode."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(
            0, 1 << 64, size=(width, words_for(n)), dtype=np.uint64
        )
        full = decode_rows(rows, n, signed)
        start = data.draw(st.integers(0, words_for(n) - 1))
        stop = data.draw(st.integers(start + 1, words_for(n)))
        n_valid = min(n - start * 64, (stop - start) * 64)
        got = decode_rows(rows[:, start:stop], n_valid, signed)
        np.testing.assert_array_equal(
            got, full[start * 64 : start * 64 + n_valid]
        )


class TestDirtyRowQoR:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        signed=st.lists(st.booleans(), min_size=3, max_size=3),
        n=st.integers(1, 300),
        metric=st.sampled_from(["mre", "mae", "nmae"]),
    )
    def test_patched_partials_byte_identical(
        self, seed, widths, signed, n, metric
    ):
        """Dirty-row partials equal full-decode partials byte for byte,
        for random dirty subsets that include sign rows and rows listed
        as dirty but left unchanged."""
        rng = np.random.default_rng(seed)
        words, start = [], 0
        for i, width in enumerate(widths):
            words.append(
                WordSpec(f"w{i}", tuple(range(start, start + width)), signed[i])
            )
            start += width
        c = _passthrough(start, words)
        exact = random_input_words(start, n, rng)
        ev = QoREvaluator(c, exact, n, QoRSpec(metric))
        base = exact.copy()
        flip = rng.random(start) < 0.3
        base[flip] = random_input_words(int(flip.sum()), n, rng)
        ev.rebase(base)
        listed = sorted(
            int(r) for r in np.flatnonzero(rng.random(start) < 0.4)
        )
        # Always exercise each word's sign row.
        listed = sorted(set(listed) | {w.indices[-1] for w in words})
        approx = base.copy()
        changed = [r for r in listed if rng.random() < 0.7]
        approx[changed] = random_input_words(len(changed), n, rng)
        spliced = {}
        for pos, w in enumerate(words):
            patched = ev.patched_word_ints(
                pos, ev.word_ints(pos, base), listed,
                approx[listed], base[listed],
            )
            np.testing.assert_array_equal(patched, ev.word_ints(pos, approx))
            np.testing.assert_array_equal(
                ev.ints_partials(pos, patched), ev.word_partials(pos, approx)
            )
            if pos in ev.word_positions(listed):
                spliced[pos] = ev.splice_partials(
                    pos, [(0, approx.shape[1], ev.ints_partials(pos, patched))]
                )
        # The scoring fold's terminal steps: the patched partials spliced
        # over the rebased state give the full evaluation's float.
        assert ev.evaluate_spliced(spliced) == ev.evaluate(approx)
