"""Tests for technology mapping, timing and power analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, truth_table
from repro.errors import SynthesisError
from repro.synth import (
    DesignMetrics,
    LIB65,
    estimate_power,
    evaluate_design,
    lower_for_mapping,
    resynthesize,
    static_timing,
    synthesize_table,
    tech_map,
)


def _ripple_adder(width):
    b = CircuitBuilder(f"add{width}")
    a = b.input_word("a", width)
    x = b.input_word("b", width)
    s, c = b.add(a, x)
    b.output_word("sum", s + [c])
    return b.build()


class TestLowering:
    def test_wide_and_decomposed(self):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(9)]
        b.output("y", b.and_(*ins))
        lowered = lower_for_mapping(b.build(), LIB65)
        max_arity = max(n.arity for n in lowered.nodes)
        assert max_arity <= 4
        np.testing.assert_array_equal(
            truth_table(lowered), truth_table(b.build())
        )

    def test_wide_xor_becomes_xor2_tree(self):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(5)]
        b.output("y", b.xor_(*ins))
        lowered = lower_for_mapping(b.build(), LIB65)
        assert all(n.arity <= 2 for n in lowered.nodes if n.op.value == "xor")
        np.testing.assert_array_equal(
            truth_table(lowered), truth_table(b.build())
        )

    def test_lut_rejected(self):
        b = CircuitBuilder()
        a, x = b.input("a"), b.input("b")
        b.output("y", b.lut([a, x], np.array([0, 1, 1, 1], dtype=bool)))
        with pytest.raises(SynthesisError):
            lower_for_mapping(b.build(), LIB65)


class TestMacroMatching:
    def test_full_adder_uses_fa_cell(self, full_adder_circuit):
        mapped = tech_map(full_adder_circuit)
        hist = mapped.cell_histogram()
        assert hist.get("FA", 0) == 1
        assert mapped.n_cells == 1

    def test_ripple_adder_is_fa_chain(self):
        width = 8
        mapped = tech_map(_ripple_adder(width))
        hist = mapped.cell_histogram()
        # first bit has cin=0 (folds to HA), the rest are FAs
        assert hist.get("FA", 0) == width - 1
        assert hist.get("HA", 0) == 1

    def test_half_adder_uses_ha_cell(self):
        b = CircuitBuilder()
        a, x = b.input("a"), b.input("b")
        s, c = b.half_adder(a, x)
        b.output("s", s)
        b.output("c", c)
        mapped = tech_map(b.build())
        assert mapped.cell_histogram().get("HA", 0) == 1

    def test_macro_matching_can_be_disabled(self, full_adder_circuit):
        mapped = tech_map(full_adder_circuit, match_macros=False)
        assert "FA" not in mapped.cell_histogram()
        assert mapped.n_cells > 1

    def test_shared_xor_not_absorbed(self):
        # If the inner XOR drives an extra output, FA matching must not
        # swallow it.
        b = CircuitBuilder()
        a, x, cin = b.input("a"), b.input("b"), b.input("cin")
        s, c = b.full_adder(a, x, cin)
        axb = b.xor_(a, x)  # same node as inside the adder (strash)
        b.output("s", s)
        b.output("c", c)
        b.output("axb", axb)
        mapped = tech_map(b.build())
        assert "FA" not in mapped.cell_histogram()

    def test_aoi21_matched(self):
        b = CircuitBuilder()
        a, x, c = b.input("a"), b.input("b"), b.input("c")
        b.output("y", b.not_(b.or_(b.and_(a, x), c)))
        mapped = tech_map(b.build())
        assert mapped.cell_histogram().get("AOI21", 0) == 1
        assert mapped.n_cells == 1

    def test_oai21_matched(self):
        b = CircuitBuilder()
        a, x, c = b.input("a"), b.input("b"), b.input("c")
        b.output("y", b.not_(b.and_(b.or_(a, x), c)))
        mapped = tech_map(b.build())
        assert mapped.cell_histogram().get("OAI21", 0) == 1


class TestMappedMetrics:
    def test_area_is_sum_of_cells(self, full_adder_circuit):
        mapped = tech_map(full_adder_circuit)
        assert mapped.area == pytest.approx(LIB65["FA"].area)

    def test_area_scales_with_width(self):
        a4 = tech_map(_ripple_adder(4)).area
        a8 = tech_map(_ripple_adder(8)).area
        assert a8 > 1.8 * a4


class TestTiming:
    def test_single_cell_delay(self, full_adder_circuit):
        report = static_timing(tech_map(full_adder_circuit))
        assert report.delay_ns == pytest.approx(LIB65["FA"].delay)

    def test_ripple_carry_chain_scales_linearly(self):
        d8 = static_timing(tech_map(_ripple_adder(8))).delay_ns
        d16 = static_timing(tech_map(_ripple_adder(16))).delay_ns
        assert d16 == pytest.approx(d8 + 8 * LIB65["FA"].delay, rel=0.05)

    def test_critical_path_endpoints(self):
        mapped = tech_map(_ripple_adder(4))
        report = static_timing(mapped)
        assert report.critical_output.startswith("sum")
        assert len(report.critical_path) >= 2

    def test_constant_circuit_zero_delay(self):
        b = CircuitBuilder()
        b.input("a")
        b.output("y", b.const(True))
        report = static_timing(tech_map(b.build()))
        assert report.delay_ns == pytest.approx(0.0, abs=1e-9)


class TestPower:
    def test_power_positive_for_active_logic(self, full_adder_circuit):
        report = estimate_power(tech_map(full_adder_circuit), n_samples=1024)
        assert report.dynamic_uw > 0
        assert report.leakage_uw > 0

    def test_constant_logic_has_no_dynamic_power(self):
        b = CircuitBuilder()
        a = b.input("a")
        b.output("y", b.and_(a, b.const(False)))
        report = estimate_power(tech_map(b.build()), n_samples=256)
        assert report.dynamic_uw == pytest.approx(0.0, abs=1e-9)

    def test_power_scales_with_size(self):
        p4 = estimate_power(tech_map(_ripple_adder(4)), n_samples=1024).total_uw
        p16 = estimate_power(tech_map(_ripple_adder(16)), n_samples=1024).total_uw
        assert p16 > 2.5 * p4


class TestEvaluateDesign:
    def test_metrics_fields(self, full_adder_circuit):
        metrics = evaluate_design(full_adder_circuit, n_activity_samples=256)
        assert isinstance(metrics, DesignMetrics)
        assert metrics.area_um2 > 0
        assert metrics.power_uw > 0
        assert metrics.delay_ns > 0
        assert metrics.n_cells >= 1

    def test_savings_vs(self):
        base = DesignMetrics(100.0, 50.0, 2.0, 10, {})
        new = DesignMetrics(60.0, 40.0, 1.0, 6, {})
        s = new.savings_vs(base)
        assert s["area"] == pytest.approx(40.0)
        assert s["power"] == pytest.approx(20.0)
        assert s["delay"] == pytest.approx(50.0)

    def test_lut_design_lowered_and_mapped(self):
        b = CircuitBuilder()
        a, x, y = b.input("a"), b.input("b"), b.input("c")
        table = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=bool)  # parity
        b.output("y", b.lut([a, x, y], table))
        metrics = evaluate_design(b.build(), n_activity_samples=256)
        assert metrics.area_um2 > 0


class TestResynthesize:
    def test_preserves_function(self, rng):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(5)]
        n1 = b.and_(ins[0], ins[1], ins[2])
        n2 = b.xor_(n1, ins[3])
        b.output("y", b.mux(ins[4], n1, n2))
        c = b.build()
        again = resynthesize(c)
        np.testing.assert_array_equal(truth_table(again), truth_table(c))

    def test_lowers_luts(self):
        b = CircuitBuilder()
        a, x = b.input("a"), b.input("b")
        b.output("y", b.lut([a, x], np.array([0, 1, 1, 1], dtype=bool)))
        out = resynthesize(b.build())
        assert all(n.op.value != "lut" for n in out.nodes)
        tt = truth_table(out)
        np.testing.assert_array_equal(tt[:, 0], [False, True, True, True])


class TestSynthesizeTable:
    def test_roundtrip_function(self, rng):
        table = rng.random((16, 3)) < 0.5
        circuit = synthesize_table(table, "t")
        np.testing.assert_array_equal(truth_table(circuit), table)

    def test_single_output_1d_table(self):
        table = np.array([False, True, True, False])
        circuit = synthesize_table(table, "xor")
        np.testing.assert_array_equal(truth_table(circuit)[:, 0], table)
