"""Tests for graph utilities: fanouts, boundaries, extraction, quotients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    CircuitBuilder,
    extract_subcircuit,
    fanout_lists,
    quotient_is_acyclic,
    simulate_patterns,
    truth_table,
    window_boundary,
)
from repro.errors import CircuitError


@pytest.fixture
def chain():
    """a -> n1 = ~a -> n2 = n1 & b -> y."""
    b = CircuitBuilder("chain")
    a = b.input("a")
    x = b.input("b")
    n1 = b.not_(a)
    n2 = b.and_(n1, x)
    b.output("y", n2)
    return b.build(), (a, x, n1, n2)


class TestFanoutAndLevels:
    def test_fanout_lists(self, chain):
        c, (a, x, n1, n2) = chain
        fo = fanout_lists(c)
        assert fo[a] == [n1]
        assert fo[n1] == [n2]
        assert fo[n2] == []

class TestWindowBoundary:
    def test_boundary_of_inner_gates(self, chain):
        c, (a, x, n1, n2) = chain
        ins, outs = window_boundary(c, {n1, n2})
        assert ins == [a, x]
        assert outs == [n2]

    def test_internal_node_with_external_fanout_is_output(self):
        b = CircuitBuilder()
        a, x = b.input("a"), b.input("b")
        n1 = b.and_(a, x)
        n2 = b.not_(n1)
        b.output("y0", n1)  # n1 drives a PO directly
        b.output("y1", n2)
        c = b.build()
        ins, outs = window_boundary(c, {n1, n2})
        assert set(outs) == {n1, n2}


class TestExtractSubcircuit:
    def test_extracted_function_matches(self, chain):
        c, (a, x, n1, n2) = chain
        sub = extract_subcircuit(c, [n1, n2], [a, x], [n2])
        tt = truth_table(sub)
        # y = ~a & b with inputs (a, b)
        expect = [0, 0, 1, 0]  # rows: a=0b, b... row index bit0=a, bit1=b
        np.testing.assert_array_equal(tt[:, 0], np.array(expect, dtype=bool))

    def test_undeclared_fanin_raises(self, chain):
        c, (a, x, n1, n2) = chain
        with pytest.raises(CircuitError):
            extract_subcircuit(c, [n2], [x], [n2])  # n1 missing

    def test_output_must_be_member(self, chain):
        c, (a, x, n1, n2) = chain
        with pytest.raises(CircuitError):
            extract_subcircuit(c, [n1], [a], [n2])

    def test_constants_recreated_inside(self):
        b = CircuitBuilder()
        a = b.input("a")
        k = b.const(True)
        n = b.xor_(a, b.input("b"))
        m = b.mux(n, a, b.not_(a))
        b.output("y", m)
        c = b.build(prune=False)
        # pick the full gate set
        gates = list(c.gate_ids())
        ins, outs = window_boundary(c, set(gates))
        sub = extract_subcircuit(c, gates, ins, outs)
        sub.validate()


class TestQuotientAcyclicity:
    def test_acyclic_partition(self, chain):
        c, (a, x, n1, n2) = chain
        assert quotient_is_acyclic(c, {n1: 0, n2: 0})
        assert quotient_is_acyclic(c, {n1: 0, n2: 1})

    def test_cyclic_partition_detected(self):
        # n1 -> n2 -> n3 with {n1, n3} in one cluster is cyclic:
        # cluster -> n2 -> cluster.
        b = CircuitBuilder()
        a = b.input("a")
        x = b.input("b")
        n1 = b.not_(a)
        n2 = b.and_(n1, x)
        n3 = b.or_(n2, a)
        b.output("y", n3)
        c = b.build()
        assert not quotient_is_acyclic(c, {n1: 7, n3: 7})
        assert quotient_is_acyclic(c, {n1: 7, n2: 7, n3: 7})
