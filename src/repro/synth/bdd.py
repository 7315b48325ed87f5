"""Reduced ordered BDDs and BDD-based multi-level synthesis.

Flat two-level forms (SOP covers, Reed–Muller ANF) cannot rediscover the
*shared multi-level* structure hiding in a truth table — the carry chain an
adder slice's outputs have in common, for example.  Industrial synthesis
(the paper's Synopsys DC) recovers such sharing during multi-level
optimization; this module provides the equivalent capability for truth
tables: build one reduced ordered BDD over all output columns with a shared
unique-table, then emit one 2:1 mux per BDD node.  Sub-functions shared by
several outputs are built once, exactly like logic sharing in a multi-level
netlist.

Variable order follows the window's input order, which is the natural
interleaved order for the arithmetic windows BLASYS produces; the reversed
order is also tried and the smaller DAG wins.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SynthesisError
from ..circuit.builder import CircuitBuilder

#: Terminal pseudo-ids.
ZERO = -1
ONE = -2

#: Mapped area of one MUX2, the cost of one BDD node.
MUX_AREA = 2.88


@dataclass
class SharedBDD:
    """A multi-rooted ROBDD.

    Attributes:
        nodes: Internal nodes as ``(var, lo, hi)`` triples; ids index this
            list, terminals are :data:`ZERO`/:data:`ONE`.  ``var`` is an
            input index; ``lo``/``hi`` are the cofactors for that input at
            0/1.
        roots: One node id (or terminal) per output column.
        order: The variable order used, top variable last.
    """

    nodes: List[Tuple[int, int, int]]
    roots: List[int]
    order: List[int]

    @property
    def n_internal(self) -> int:
        return len(self.nodes)


class _Capped(Exception):
    """A build reached its node cap: the diagram cannot be kept."""


class NodeStore:
    """The reduced nodes built under one variable order, kept across builds.

    ``memo`` maps a permuted sub-table's bytes to its node; under a fixed
    order the byte length fixes the level, so content alone is the key.
    It starts with the constant sub-tables of every level mapped to the
    terminals, so a miss is always a non-constant sub-table.
    ``unique`` hash-conses ``(var, lo, hi)`` triples into ids of ``nodes``.
    ROBDDs are canonical per order, so every build through one store
    resolves a function to the same node however it was reached.
    """

    def __init__(self, order: Sequence[int]) -> None:
        k = len(order)
        if sorted(order) != list(range(k)):
            raise SynthesisError("variable order must be a permutation of inputs")
        self.order = list(order)
        # permuted row r has order[level]'s value at bit (k - 1 - level)
        r_new = np.arange(1 << k)
        self.source = np.zeros(1 << k, dtype=np.int64)
        for level, var in enumerate(order):
            self.source |= ((r_new >> (k - 1 - level)) & 1) << var
        self.nodes: List[Tuple[int, int, int]] = []
        self.unique: Dict[Tuple[int, int, int], int] = {}
        self.memo: Dict[bytes, int] = {}
        for level in range(k + 1):
            n_rows = 1 << (k - level)
            self.memo[bytes(n_rows)] = ZERO
            self.memo[b"\x01" * n_rows] = ONE

    def node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self.unique.get(key)
        if found is None:
            found = self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return found


def _build(
    tables: np.ndarray, store: NodeStore, max_nodes: int
) -> Optional[SharedBDD]:
    """One order's shared ROBDD, or None once it reaches ``max_nodes``.

    ``store.order[level]`` is the input tested at recursion depth
    ``level`` (the top of the diagram).  The table is permuted once so
    that the top variable becomes the most significant bit of the row
    index; every recursion step then simply splits the current column in
    half.  Sub-tables resolve to store nodes; the diagram is the DFS
    post-order of the nodes reachable from the roots (``lo`` before
    ``hi``, roots in column order), which is exactly the node list a
    fresh per-call memo appends, so its size is known node by node and
    the build can stop at the cap.
    """
    if max_nodes <= 0:
        return None
    order = store.order
    columns = np.ascontiguousarray(tables[store.source].T)
    nodes: List[Tuple[int, int, int]] = []
    local: Dict[int, int] = {}

    def emit(sid: int) -> None:
        """Append ``sid`` after its unlisted descendants, ``lo`` first."""
        var, lo, hi = store.nodes[sid]
        if lo >= 0 and lo not in local:
            emit(lo)
        if hi >= 0 and hi not in local:
            emit(hi)
        local[sid] = len(nodes)
        nodes.append((var, local.get(lo, lo), local.get(hi, hi)))
        if len(nodes) >= max_nodes:
            raise _Capped

    def rec(level: int, column: np.ndarray) -> int:
        key = column.tobytes()
        sid = store.memo.get(key)
        if sid is None:
            half = column.shape[0] // 2
            lo = rec(level + 1, column[:half])
            hi = rec(level + 1, column[half:])
            sid = store.memo[key] = store.node(order[level], lo, hi)
        if sid >= 0 and sid not in local:
            emit(sid)
        return sid  # contract-ok: cache-copy -- node id (int), immutable

    try:
        roots = [rec(0, column) for column in columns]
    except _Capped:
        return None
    return SharedBDD(nodes, [local.get(r, r) for r in roots], list(order))


def _candidate_orders(k: int) -> List[List[int]]:
    """Variable orders worth trying.

    Besides the two linear orders, the *interleaved* orders pair input ``i``
    with input ``i + k/2`` — the right order when the inputs are two
    operand words laid out one after the other (ripple adders and friends
    have exponential BDDs in linear order but linear-size ones
    interleaved).
    """
    orders = [list(range(k - 1, -1, -1))]
    if k > 1:
        orders.append(list(range(k)))
        half = (k + 1) // 2
        interleaved: List[int] = []
        for i in range(half):
            interleaved.append(i)
            if i + half < k:
                interleaved.append(i + half)
        orders.append(interleaved[::-1])
        orders.append(interleaved)
    return orders


def build_shared_bdd(
    tables: np.ndarray,
    try_orders: bool = True,
    stores: Optional[Dict[Tuple[int, ...], NodeStore]] = None,
    max_nodes: Optional[int] = None,
) -> Optional[SharedBDD]:
    """Shared ROBDD over the columns of a ``(2**k, m)`` truth table.

    A small set of candidate variable orders is tried (see
    :func:`_candidate_orders`) and the first with the strictly smallest
    node count wins; with ``try_orders`` False only the descending natural
    order is built.  An order stops building as soon as it reaches the
    best count so far, since it can no longer win.

    Args:
        stores: Caller-owned :class:`NodeStore` per order; sharing them
            across calls builds the same diagrams while resolving each
            sub-function once.  Without them, throwaway stores are used.
        max_nodes: Only diagrams with fewer nodes are wanted: an order
            stops at that count, and None is returned when every order
            does.
    """
    tables = np.atleast_2d(np.asarray(tables, dtype=bool))
    if tables.shape[0] == 1:
        tables = tables.T
    n_rows = tables.shape[0]
    if n_rows == 0 or n_rows & (n_rows - 1):
        raise SynthesisError(f"table length {n_rows} is not a power of two")
    k = n_rows.bit_length() - 1
    orders = _candidate_orders(k) if try_orders else [list(range(k - 1, -1, -1))]
    stores = {} if stores is None else stores
    limit = sys.maxsize if max_nodes is None else max_nodes
    best: Optional[SharedBDD] = None
    for order in orders:
        store = stores.get(tuple(order))
        if store is None:
            store = stores[tuple(order)] = NodeStore(order)
        built = _build(tables, store, limit)
        if built is not None:
            best, limit = built, built.n_internal
    return best


def bdd_to_gates(
    builder: CircuitBuilder, bdd: SharedBDD, inputs: Sequence[int]
) -> List[int]:
    """Emit one mux per internal node (terminals fold); returns root signals.

    Nodes are created bottom-up; the builder's mux folding turns constant
    branches into plain AND/OR/NOT gates, so simple BDDs produce simple
    logic rather than literal mux chains.
    """
    sig: Dict[int, int] = {
        ZERO: builder.const(False),
        ONE: builder.const(True),
    }
    # nodes are in post-order (children before parents), see _build
    for nid, (var, lo, hi) in enumerate(bdd.nodes):
        sig[nid] = builder.mux(inputs[var], sig[lo], sig[hi])
    return [sig[r] for r in bdd.roots]


def bdd_cost(bdd: SharedBDD, mux_area: float = MUX_AREA) -> float:
    """Area upper bound: every internal node one MUX2 (folding only helps)."""
    return mux_area * bdd.n_internal
