"""Compiled exploration engine: cone schedules + SoA gate programs.

Algorithm 1's inner loop evaluates every candidate substitution against the
whole sample set; :class:`~repro.core.incremental.IncrementalEvaluator`
already prunes that to the candidate's downstream cone, but it still *walks
the entire quotient plan in interpreted Python* per candidate, paying one
``any(dirty[f] ...)`` + one numpy dispatch per touched node.  This module
compiles the evaluation so a candidate sweep costs a handful of vectorized
array ops:

* **Static cone schedules** — each window's transitive fanout restricted to
  the quotient plan (:meth:`~repro.partition.plan.QuotientGraph.cone`) is
  extracted once per decomposition; a sweep touches only the cone's units
  instead of all of them.  The window's packed input-index vector is cached
  and invalidated on commit instead of being re-decoded per preview.
* **Structure-of-arrays gate programs** — cone gates grouped by
  (level, op, arity) with fanin index matrices, executed as gathered-row
  bitwise ufunc reductions over a local packed value matrix.  Windows not
  yet substituted are *inlined* into the surrounding levelization (wide
  levels span window boundaries — crucial for shallow-but-wide datapaths);
  substituted windows become single table-gather instructions.  A cone
  program is therefore specialized to the committed set and lazily
  recompiled when a window inside it is first committed — the committed
  set only grows, so total recompiles are bounded by the number of
  (cone, window) incidences, not by the iteration count.  The same
  compiler serves whole-circuit simulation (:func:`simulate_full_compiled`
  behind :func:`repro.circuit.simulate.simulate_full`).
* **Stacked candidate gather** — all candidate tables of one window are
  pushed through the shared input index in a single transposed-table
  lookup (:func:`~repro.circuit.simulate.lookup_packed`), and dirty
  tracking happens in one bulk valid-bit compare per sweep instead of per
  node.  Every table lookup in the engines — seeds, commits, committed
  windows inside sweeps — decodes its index with
  :func:`~repro.circuit.simulate.decode_rows` and gathers with
  ``lookup_packed``; committed tables are transposed once, at commit.

Determinism contract (see DESIGN.md "Exploration engine"): on every
**valid bit** the engine is byte-identical to the interpreted reference —
bitwise ops are per-pattern, so valid output bits depend only on valid
input bits, and LUT/window gathers mask their tails to zero.  Unspecified
*gate tails* may differ from the reference's (the reference re-reads
cached tails for clean nodes; the engine does not), which the repo's
tail-bit invariant explicitly permits: packed values from different
evaluation paths are only comparable under the tail mask.  With
``n_samples % 64 == 0`` there are no tail bits and full words are
identical.  Exploration trajectories (qor floats, areas, window choices)
derive exclusively from valid bits and are bit-identical between engines —
asserted by the test suite and ``benchmarks/bench_explore.py``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.gate import Op
from ..circuit.netlist import Circuit
from ..circuit.simulate import (
    _FULL_WORD,
    WORD_BITS,
    _lut_eval,
    decode_rows,
    lookup_packed,
    mask_tail_words,
    table_transpose,
)
from ..analysis.sanitize import assert_tail_clean, freeze
from ..errors import SimulationError
from ..runtime import RuntimeStats
from .incremental import IncrementalEvaluator

#: Evaluation engines selectable via ``ExplorerConfig.engine``.
ENGINES = ("compiled", "reference")


# ----------------------------------------------------------------------
# SoA gate programs
# ----------------------------------------------------------------------
@dataclass
class GateBatch:
    """One vectorized instruction: all same-level (op, arity) nodes at once.

    ``out``/``fanins`` hold *local slot* indices into the value matrix the
    program runs over (equal to node ids for whole-circuit programs);
    ``out_ids`` holds the global node ids, and ``table`` carries the LUT
    table for singleton LUT instructions.
    """

    op: Op
    out: np.ndarray
    fanins: np.ndarray
    out_ids: np.ndarray
    table: Optional[np.ndarray] = None


_NARY = {
    Op.AND: (np.bitwise_and, False),
    Op.NAND: (np.bitwise_and, True),
    Op.OR: (np.bitwise_or, False),
    Op.NOR: (np.bitwise_or, True),
    Op.XOR: (np.bitwise_xor, False),
    Op.XNOR: (np.bitwise_xor, True),
}


def execute_batch(
    batch: GateBatch, values: np.ndarray, n_valid: Optional[int]
) -> np.ndarray:
    """Evaluate one batch over ``values``; returns ``(g, W)`` results.

    Bitwise ufunc reductions are exact and fully associative, so results
    match the per-node interpreter (:func:`repro.circuit.simulate.
    _eval_node`) bit for bit, unspecified gate tails included.
    """
    op = batch.op
    if op is Op.LUT:
        ins = [values[int(s)] for s in batch.fanins[0]]
        return _lut_eval(batch.table, ins, n_valid)[None, :]
    if op is Op.BUF:
        return values[batch.fanins][:, 0]
    if op is Op.NOT:
        return ~values[batch.fanins][:, 0]
    if op is Op.MUX:
        gathered = values[batch.fanins]
        s, a, b = gathered[:, 0], gathered[:, 1], gathered[:, 2]
        return (a & ~s) | (b & s)
    fn, invert = _NARY[op]
    acc = fn.reduce(values[batch.fanins], axis=1)
    return ~acc if invert else acc


def gather_window_outputs(
    table_t: np.ndarray, in_words: np.ndarray, n_valid: int
) -> np.ndarray:
    """Evaluate a window table on packed inputs; ``(m, W)`` packed outputs.

    ``table_t`` is the window's transposed table
    (:func:`~repro.circuit.simulate.table_transpose`).  The table-gather
    step of the resident cone sweeps and the streaming engine's chunk
    base passes.  Output tails beyond ``n_valid`` are masked to zero
    (tail-bit invariant: garbage indices in the tail would otherwise
    read arbitrary table rows).
    """
    idx = decode_rows(in_words, in_words.shape[1] * WORD_BITS)
    return mask_tail_words(lookup_packed(table_t, idx), n_valid)


def stacked_seed_gather(
    tables: Sequence[np.ndarray], idx: np.ndarray, n_valid: int
) -> np.ndarray:
    """All candidate tables through one shared input index at once.

    The transposed tables stack into one ``(n_cand · m, 2^k)`` lookup,
    so a single :func:`~repro.circuit.simulate.lookup_packed` returns
    packed seeds of shape ``(n_cand, m, W)``, tails masked.
    """
    stacked_t = np.concatenate([table_transpose(t) for t in tables])
    seeds = lookup_packed(stacked_t, idx)
    seeds = seeds.reshape(len(tables), -1, seeds.shape[-1])
    mask_tail_words(seeds, n_valid)
    return seeds


def _levelize(
    circuit: Circuit, node_ids: Sequence[int], slot_of
) -> List[GateBatch]:
    """Compile gate nodes (in topological order) into levelized batches.

    Fanins outside ``node_ids`` (boundary values, earlier program
    segments) count as level 0 — they are already available in the value
    matrix when the program runs.  ``slot_of`` maps a global node id to
    its local slot, allocating on first use.
    """
    level: Dict[int, int] = {}
    groups: Dict[Tuple[int, Op, int], List[int]] = {}
    for nid in node_ids:
        node = circuit.node(nid)
        lv = 0
        for f in node.fanins:
            if f in level:
                lv = max(lv, level[f] + 1)
        level[nid] = lv
        key = (lv, node.op, nid if node.op is Op.LUT else len(node.fanins))
        groups.setdefault(key, []).append(nid)
    batches: List[GateBatch] = []
    for (lv, op, _), nids in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[1][0])
    ):
        out = np.array([slot_of(n) for n in nids], dtype=np.int64)
        fanins = np.array(
            [[slot_of(f) for f in circuit.node(n).fanins] for n in nids],
            dtype=np.int64,
        )
        table = circuit.node(nids[0]).table if op is Op.LUT else None
        batches.append(
            GateBatch(op, out, fanins, np.array(nids, dtype=np.int64), table)
        )
    return batches


# ----------------------------------------------------------------------
# Whole-circuit programs (simulate_full fast path)
# ----------------------------------------------------------------------
@dataclass
class CircuitProgram:
    """Compiled full-circuit program; slots are node ids."""

    n_nodes: int
    input_ids: np.ndarray
    const0_ids: np.ndarray
    const1_ids: np.ndarray
    batches: List[GateBatch]


_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Circuit, CircuitProgram]" = (
    weakref.WeakKeyDictionary()
)


def circuit_program(circuit: Circuit) -> CircuitProgram:
    """The circuit's compiled program (cached; nodes are append-only, so a
    node-count match means the cached program is still valid)."""
    prog = _PROGRAM_CACHE.get(circuit)
    if prog is None or prog.n_nodes != circuit.n_nodes:
        prog = _compile_circuit(circuit)
        _PROGRAM_CACHE[circuit] = prog
    # CircuitProgram is a frozen compile artifact shared across every
    # evaluator of the circuit — never mutated after construction.
    return prog  # contract-ok: cache-copy -- immutable compiled program, shared by design


def _compile_circuit(circuit: Circuit) -> CircuitProgram:
    const0: List[int] = []
    const1: List[int] = []
    gates: List[int] = []
    for nid, node in enumerate(circuit.nodes):
        if node.op is Op.CONST0:
            const0.append(nid)
        elif node.op is Op.CONST1:
            const1.append(nid)
        elif node.op.is_gate:
            gates.append(nid)
    return CircuitProgram(
        circuit.n_nodes,
        np.array(circuit.inputs, dtype=np.int64),
        np.array(const0, dtype=np.int64),
        np.array(const1, dtype=np.int64),
        _levelize(circuit, gates, lambda nid: nid),
    )


def simulate_full_compiled(
    circuit: Circuit,
    input_words: np.ndarray,
    n_samples: Optional[int] = None,
) -> np.ndarray:
    """Gate-program equivalent of the per-node ``simulate_full`` loop.

    Byte-identical to :func:`repro.circuit.simulate.simulate_full_reference`
    on every word, tails included (no overlay semantics involved here —
    every node is computed exactly as the interpreter computes it).
    """
    input_words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
    if input_words.shape[0] != circuit.n_inputs:
        raise SimulationError(
            f"expected {circuit.n_inputs} input rows, got {input_words.shape[0]}"
        )
    w = input_words.shape[1]
    prog = circuit_program(circuit)
    values = np.zeros((circuit.n_nodes, w), dtype=np.uint64)
    if prog.input_ids.size:
        values[prog.input_ids] = input_words
    if prog.const1_ids.size:
        values[prog.const1_ids] = _FULL_WORD
    for batch in prog.batches:
        values[batch.out] = execute_batch(batch, values, n_samples)
    return values


# ----------------------------------------------------------------------
# Cone schedules
# ----------------------------------------------------------------------
@dataclass
class WindowInstr:
    """A *substituted* window inside a cone: a single table gather through
    the window's packed input rows (un-substituted windows are inlined
    into the surrounding gate batches at compile time)."""

    index: int
    in_slots: np.ndarray
    in_ids: np.ndarray
    out_slots: np.ndarray
    out_ids: np.ndarray


ConeInstr = Union[GateBatch, WindowInstr]


@dataclass
class ConeSchedule:
    """Compiled downstream cone of one window, over local slots.

    Specialized to the committed set it was compiled against
    (``step_windows`` lists the non-root windows inside the cone; the
    evaluator drops the schedule when one of them is first committed).
    ``recorded_slots``/``recorded_ids`` are the units whose results are
    compared against the cached value matrix in one bulk valid-bit pass;
    ``out_rec_idx``/``out_rows`` map recorded positions to primary-output
    rows for delta-QoR dirty reporting.  ``n_units`` is the quotient-plan
    unit count of the cone (root included) for work accounting.
    """

    root_index: int
    n_slots: int
    boundary_slots: np.ndarray
    boundary_ids: np.ndarray
    root_out_slots: np.ndarray
    root_out_ids: np.ndarray
    instructions: List[ConeInstr]
    recorded_slots: np.ndarray
    recorded_ids: np.ndarray
    out_rec_idx: np.ndarray
    out_rows: List[Tuple[int, ...]]
    step_windows: frozenset
    n_units: int


@dataclass
class IterationSchedule:
    """Whole-plan program for stacked multi-candidate scans.

    Slots are node ids.  Uncommitted windows are inlined as gates,
    committed ones are gather instructions — like a cone schedule, but
    rooted at every window at once: the full-strategy explorer evaluates
    *all* windows' candidates in one pass with candidates stacked along
    the word axis (block-columns), so the per-unit dispatch cost is paid
    once per iteration instead of once per candidate.
    """

    instructions: List[ConeInstr]
    source_ids: np.ndarray
    #: node id -> position of the instruction producing it (-1 for none);
    #: lets a scan map its seed overrides to instructions in O(#seeds).
    producer_of: np.ndarray
    n_units: int


#: Upper bound on candidate blocks stacked into one scan pass (bounds the
#: stacked value matrix at n_nodes x MAX_SCAN_BLOCKS x W words).
MAX_SCAN_BLOCKS = 64


# ----------------------------------------------------------------------
# The compiled evaluator
# ----------------------------------------------------------------------
class CompiledEvaluator(IncrementalEvaluator):
    """Drop-in :class:`IncrementalEvaluator` running compiled cone sweeps.

    Args:
        circuit: The accurate netlist being explored.
        windows: The decomposition's windows (candidate substitution
            sites).
        input_words: Packed Monte-Carlo stimulus, shape
            ``(n_inputs, words_for(n_samples))``.
        n_samples: Valid pattern count (tail bits beyond it are
            unspecified; see DESIGN.md's tail-bit invariant).
        stats: Optional :class:`~repro.runtime.RuntimeStats` accumulator
            for sweep/memo/cone counters.

    Determinism guarantees: public behaviour (previews, batched previews,
    commits, the committed map) matches the reference implementation
    bit-for-bit on every valid bit (full words when ``n_samples`` is a
    multiple of 64 — see the module docstring for the tail contract); in
    addition, :meth:`preview_batch_delta` reports which *output rows*
    each candidate actually dirtied, which feeds the delta-QoR path
    (:meth:`repro.core.qor.QoREvaluator.evaluate_delta`).

    Invalidation semantics: a :meth:`commit` (a) folds the cone's changed
    valid bits into the resident value cache, (b) drops the packed
    input-index / stacked-seed caches of every window whose inputs the
    changed values touch, (c) drops memoized previews of every window
    whose cone state the commit touched (changed values, or any table of
    the committed window — a new table is a different *function* even
    when it matches the old one on the current samples), and (d) on a
    window's *first* commit drops the schedules that had inlined it as
    plain gates (the committed set only grows, so each schedule
    recompiles at most once per window it contains).

    Memory: this engine is *resident* — it holds the full
    ``(n_nodes, words_for(n_samples))`` value matrix.  For pattern counts
    where that matrix is the bottleneck, use the streaming subclass
    (:class:`repro.core.streaming.StreamingEvaluator`, selected via
    ``chunk_words``), which bounds sample-matrix memory by a chunk budget
    and stays trajectory-identical.
    """

    def __init__(
        self,
        circuit: Circuit,
        windows,
        input_words: np.ndarray,
        n_samples: int,
        stats: Optional[RuntimeStats] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        super().__init__(
            circuit, windows, input_words, n_samples, stats=stats,
            sanitize=sanitize,
        )
        self._cones: Dict[int, ConeSchedule] = {}
        self._idx_cache: Dict[int, np.ndarray] = {}
        self._seed_cache: Dict[int, Tuple] = {}
        # window -> (committed table, its transpose): the lookup layout,
        # built once per committed table object.
        self._table_t_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._touch_cache: Dict[int, frozenset] = {}
        self._iter_sched: Optional[IterationSchedule] = None
        # Memoized preview results: window -> (tables, touch_ids, entries).
        # A commit invalidates exactly the windows whose cones its changed
        # values intersect; everything else re-serves the cached sweeps.
        self._preview_cache: Dict[int, Tuple] = {}
        self._win_input_sets = {
            w.index: frozenset(w.inputs) for w in self.windows
        }
        self._out_nodes_arr = np.array(circuit.output_nodes(), dtype=np.int64)
        self._out_rows_by_nid: Dict[int, List[int]] = {}
        for row, nid in enumerate(circuit.output_nodes()):
            self._out_rows_by_nid.setdefault(nid, []).append(row)

    # -- schedule compilation ------------------------------------------
    def _cone(self, index: int) -> ConeSchedule:
        cone = self._cones.get(index)
        if cone is None:
            cone = self._compile_cone(index)
            self._cones[index] = cone
            if self._stats is not None:
                self._stats.n_cones_compiled += 1
        return cone

    def _compile_cone(self, index: int) -> ConeSchedule:
        steps = self._graph.cone(("window", index))
        root_w = self._window_by_index[index]
        slot_of_map: Dict[int, int] = {}

        def slot_of(gid: int) -> int:
            s = slot_of_map.get(gid)
            if s is None:
                s = len(slot_of_map)
                slot_of_map[gid] = s
            return s

        recorded: List[int] = list(root_w.outputs)
        root_out_slots = np.array(
            [slot_of(o) for o in root_w.outputs], dtype=np.int64
        )
        instructions: List[ConeInstr] = []
        pending: List[int] = []
        step_windows: set = set()

        def flush() -> None:
            if pending:
                instructions.extend(_levelize(self.circuit, pending, slot_of))
                recorded.extend(pending)
                pending.clear()

        for kind, key in steps[1:]:
            if kind == "node":
                if self.circuit.node(key).op.is_gate:
                    pending.append(key)
                continue
            step_windows.add(key)
            w = self._window_by_index[key]
            if key in self._committed:
                flush()
                instructions.append(
                    WindowInstr(
                        key,
                        np.array(
                            [slot_of(n) for n in w.inputs], dtype=np.int64
                        ),
                        np.array(w.inputs, dtype=np.int64),
                        np.array(
                            [slot_of(o) for o in w.outputs], dtype=np.int64
                        ),
                        np.array(w.outputs, dtype=np.int64),
                    )
                )
                recorded.extend(w.outputs)
            else:
                # Not substituted: members evaluate as plain gates and may
                # levelize together with surrounding loose logic (the plan
                # order keeps the concatenation topological).
                pending.extend(w.members)
        flush()

        computed = set(recorded)
        boundary = [
            (s, gid) for gid, s in slot_of_map.items() if gid not in computed
        ]
        out_rec_idx: List[int] = []
        out_rows: List[Tuple[int, ...]] = []
        for i, gid in enumerate(recorded):
            rows = self._out_rows_by_nid.get(gid)
            if rows:
                out_rec_idx.append(i)
                out_rows.append(tuple(rows))
        return ConeSchedule(
            index,
            len(slot_of_map),
            np.array([s for s, _ in boundary], dtype=np.int64),
            np.array([g for _, g in boundary], dtype=np.int64),
            root_out_slots,
            np.array(root_w.outputs, dtype=np.int64),
            instructions,
            np.array([slot_of_map[g] for g in recorded], dtype=np.int64),
            np.array(recorded, dtype=np.int64),
            np.array(out_rec_idx, dtype=np.int64),
            out_rows,
            frozenset(step_windows),
            len(steps),
        )

    def _cone_touch(self, index: int) -> frozenset:
        """Every node id a sweep of ``index``'s cone can read or write.

        A cached preview of the window stays valid exactly as long as
        none of these cached values change and no in-cone window's table
        changes.  Independent of the committed set (a conservative
        superset of any specialization's read/write set), so it is
        computed once per window.
        """
        touch = self._touch_cache.get(index)
        if touch is None:
            ids = set(self._window_by_index[index].inputs)
            for kind, key in self._graph.cone(("window", index)):
                if kind == "node":
                    ids.add(key)
                    ids.update(self.circuit.node(key).fanins)
                else:
                    w = self._window_by_index[key]
                    ids.update(w.members)
                    ids.update(w.inputs)
                    ids.update(w.outputs)
            touch = frozenset(ids)
            self._touch_cache[index] = touch
        return touch  # contract-ok: cache-copy -- frozenset is immutable

    # -- execution ------------------------------------------------------
    def _rows_neq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized valid-bit inequality over packed rows."""
        x = a ^ b
        x[:, -1] &= self._tail
        return x.any(axis=1)

    def _apply_window_table(
        self, instr: WindowInstr, local: np.ndarray
    ) -> None:
        if not self._rows_neq(
            local[instr.in_slots], self._values[instr.in_ids]
        ).any():
            # Inputs clean and the table is the committed one the cache
            # already reflects: outputs are the cached rows.
            local[instr.out_slots] = self._values[instr.out_ids]
            return
        local[instr.out_slots] = gather_window_outputs(
            self._table_t(instr.index), local[instr.in_slots], self.n
        )

    def _run_cone(
        self, cone: ConeSchedule, seed: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Sweep the cone under root-output ``seed`` rows.

        Returns ``None`` when the seed matches the committed state on
        every valid bit (nothing can change), else ``(local, neq)``: the
        local value matrix plus the bulk valid-bit dirty mask aligned
        with ``cone.recorded_slots``.
        """
        stats = self._stats
        if not self._rows_neq(seed, self._values[cone.root_out_ids]).any():
            if stats is not None:
                stats.n_sweep_units += 1
            return None
        if stats is not None:
            stats.n_sweep_units += cone.n_units
        local = np.empty((cone.n_slots, self._n_words), dtype=np.uint64)
        if cone.boundary_slots.size:
            local[cone.boundary_slots] = self._values[cone.boundary_ids]
        local[cone.root_out_slots] = seed
        for instr in cone.instructions:
            if isinstance(instr, WindowInstr):
                self._apply_window_table(instr, local)
            else:
                local[instr.out] = execute_batch(instr, local, self.n)
        neq = self._rows_neq(
            local[cone.recorded_slots], self._values[cone.recorded_ids]
        )
        return local, neq

    def _table_t(self, index: int) -> np.ndarray:
        """Transposed lookup layout of window ``index``'s committed table.

        Keyed on the committed array's identity, so a recommit — or a
        shard worker adopting a parent's committed map — rebuilds it,
        and every other lookup reuses the transpose made at commit.
        """
        table = self._committed[index]
        cached = self._table_t_cache.get(index)
        if cached is None or cached[0] is not table:
            table_t = table_transpose(table)
            if self._sanitize:
                freeze(table_t)
            cached = (table, table_t)
            self._table_t_cache[index] = cached
        # Read-only lookup operand, frozen under sanitize.
        return cached[1]  # contract-ok: cache-copy -- read-only lookup table, frozen under sanitize

    # -- shared input index (commit-invalidated cache) ------------------
    def _window_input_index(self, index: int) -> np.ndarray:
        idx = self._idx_cache.get(index)
        if idx is None:
            idx = self._input_index(self._window_by_index[index], {})
            if self._sanitize:
                freeze(idx)
            self._idx_cache[index] = idx
        # Shared read-only gather index; every consumer only indexes
        # with it, and sanitize mode freezes the cached array.
        return idx  # contract-ok: cache-copy -- read-only gather index, frozen under sanitize

    # -- memoized previews ----------------------------------------------
    def _memo_lookup(
        self, index: int, tables: Sequence[np.ndarray]
    ) -> Optional[List[Tuple[np.ndarray, Tuple[int, ...]]]]:
        """Replay a cached preview if its cone state is unchanged.

        Nothing a sweep of the cone would read has changed since the
        cached run (commit invalidation is exact), so the dirty rows and
        their values are still correct; clean rows read the *current*
        cache, which by the same argument equals what a fresh sweep would
        leave there.
        """
        cached = self._preview_cache.get(index)
        if (
            cached is None
            or len(cached[0]) != len(tables)
            or not all(a is b for a, b in zip(cached[0], tables))
        ):
            return None
        if self._stats is not None:
            self._stats.n_preview_cache_hits += len(cached[2])
        results = []
        for rows, vals in cached[2]:
            out = self._values[self._out_nodes_arr]
            for row, v in zip(rows, vals):
                out[row] = v
            results.append((out, rows))
        return results

    def _memo_store(self, index, tables, results) -> None:
        # The tables tuple keeps the candidate arrays alive, so identity
        # (`is`) checks on later calls cannot collide with recycled ids.
        entries = [
            (rows, [out[row].copy() for row in rows]) for out, rows in results
        ]
        if self._sanitize:
            # Memoized preview rows are replayed into fresh output
            # matrices on every hit; freezing catches any aliasing writer.
            for _, vals in entries:
                for v in vals:
                    freeze(v)
        self._preview_cache[index] = (
            tuple(tables),
            self._cone_touch(index),
            entries,
        )

    def _stacked_seeds(
        self, index: int, checked: Sequence[np.ndarray]
    ) -> np.ndarray:
        """All candidate tables through the shared input index in one
        stacked lookup (:func:`stacked_seed_gather`).

        Seeds are cached per window: they only change when the window's
        input index is invalidated (an upstream commit) or the candidate
        tables do — a downstream-only invalidation reuses them.
        """
        idx = self._window_input_index(index)
        cached = self._seed_cache.get(index)
        if (
            cached is not None
            and cached[1] is idx
            and len(cached[0]) == len(checked)
            and all(a is b for a, b in zip(cached[0], checked))
        ):
            # Seeds are consumed read-only by cone sweeps and frozen
            # under sanitize; copying (n_cand, m, W) per scan would
            # defeat the cache.
            return cached[2]  # contract-ok: cache-copy -- read-only seed stack, frozen under sanitize
        seeds = stacked_seed_gather(checked, idx, self.n)
        if self._sanitize:
            assert_tail_clean(seeds, self.n, "stacked candidate seeds")
            freeze(seeds)
        self._seed_cache[index] = (tuple(checked), idx, seeds)
        return seeds

    # -- public API -----------------------------------------------------
    def preview_batch_delta(
        self, index: int, tables: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
        """Per candidate: (packed outputs, dirtied output rows).

        All candidates share one stacked seed gather; each then sweeps
        only its own compiled cone.  Outputs match :meth:`preview` on
        every valid bit; the dirty-row sets are exact (a row is reported
        iff its valid bits differ from the committed state), which is
        what the delta-QoR path relies on.
        """
        memo = self._memo_lookup(index, tables)
        if memo is not None:
            return memo
        w = self._window_by_index[index]
        checked = [self._check_table(w, t) for t in tables]
        if not checked:
            return []
        cone = self._cone(index)
        seeds = self._stacked_seeds(index, checked)
        results: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
        for c in range(len(checked)):
            swept = self._run_cone(cone, seeds[c])
            if self._stats is not None:
                self._stats.n_preview_sweeps += 1
            out = self._values[self._out_nodes_arr]
            rows: List[int] = []
            if swept is not None:
                local, neq = swept
                for j in np.nonzero(neq[cone.out_rec_idx])[0]:
                    i = int(cone.out_rec_idx[j])
                    vals = local[cone.recorded_slots[i]]
                    for row in cone.out_rows[j]:
                        out[row] = vals
                        rows.append(row)
            results.append((out, tuple(rows)))
        self._memo_store(index, tables, results)
        return results

    def preview_batch(
        self, index: int, tables: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        return [out for out, _ in self.preview_batch_delta(index, tables)]

    # -- stacked iteration scans ----------------------------------------
    def _iteration_schedule(self) -> IterationSchedule:
        sched = self._iter_sched
        if sched is not None:
            return sched
        circuit = self.circuit
        instructions: List[ConeInstr] = []
        pending: List[int] = []
        sources: List[int] = []
        ident = lambda nid: nid  # noqa: E731 - slots are node ids

        def flush() -> None:
            if pending:
                instructions.extend(_levelize(circuit, pending, ident))
                pending.clear()

        for kind, key in self._plan:
            if kind == "node":
                if circuit.node(key).op.is_gate:
                    pending.append(key)
                else:
                    sources.append(key)
                continue
            w = self._window_by_index[key]
            if key in self._committed:
                flush()
                instructions.append(
                    WindowInstr(
                        key,
                        np.array(w.inputs, dtype=np.int64),
                        np.array(w.inputs, dtype=np.int64),
                        np.array(w.outputs, dtype=np.int64),
                        np.array(w.outputs, dtype=np.int64),
                    )
                )
            else:
                pending.extend(w.members)
        flush()
        producer = np.full(circuit.n_nodes, -1, dtype=np.int64)
        for i, instr in enumerate(instructions):
            producer[instr.out_ids] = i
        sched = IterationSchedule(
            instructions,
            np.array(sources, dtype=np.int64),
            producer,
            len(self._plan),
        )
        self._iter_sched = sched
        return sched

    def preview_scan(
        self, requests: Sequence[Tuple[int, Sequence[np.ndarray]]]
    ) -> List[List[Tuple[np.ndarray, Tuple[int, ...]]]]:
        """One iteration's whole candidate scan, stacked into wide passes.

        Args:
            requests: ``(window index, candidate tables)`` pairs for
                *distinct* windows — the full-strategy explorer's
                per-iteration scan.

        Returns:
            Per request, per candidate: ``(packed outputs, dirtied output
            rows)`` exactly as :meth:`preview_batch_delta` would return
            them.

        Memoized windows replay their cached sweeps; the rest are
        evaluated in a single execution of the whole-plan schedule with
        every candidate stacked along the word axis (its seed scattered
        into its own block-column right after the producing instruction),
        so the per-unit dispatch cost is paid once per pass instead of
        once per candidate.  At most :data:`MAX_SCAN_BLOCKS` candidate
        blocks stack into one pass; larger scans split into several.

        Determinism: results are identical to per-window
        :meth:`preview_batch_delta` on every valid bit, and the reported
        dirty-row sets are exact (a row appears iff its valid bits differ
        from the committed state).  Invalidation: the memo a scan
        populates is dropped by :meth:`commit` exactly for the windows
        whose cone state the commit touched — see the class docstring.
        """
        results: List = [None] * len(requests)
        todo: List[Tuple[int, int, List[np.ndarray], Sequence]] = []
        for pos, (index, tables) in enumerate(requests):
            memo = self._memo_lookup(index, tables)
            if memo is not None:
                results[pos] = memo
                continue
            w = self._window_by_index[index]
            checked = [self._check_table(w, t) for t in tables]
            if not checked:
                results[pos] = []
                continue
            todo.append((pos, index, checked, tables))
        start = 0
        while start < len(todo):
            stop, blocks = start, 0
            while stop < len(todo):
                n_cand = len(todo[stop][2])
                if blocks and blocks + n_cand > MAX_SCAN_BLOCKS:
                    break
                blocks += n_cand
                stop += 1
            self._run_scan_chunk(todo[start:stop], blocks, results)
            start = stop
        return results

    def _run_scan_chunk(self, chunk, n_blocks: int, results: List) -> None:
        if not n_blocks:
            for pos, _, _, _ in chunk:
                results[pos] = []
            return
        values = self._values
        w_words = self._n_words
        sched = self._iteration_schedule()
        if self._stats is not None:
            self._stats.n_preview_sweeps += n_blocks
            self._stats.n_sweep_units += sched.n_units
        # Seeds per request; scatter[instruction] lists (gid, block, seed
        # row) overrides applied right after the producing instruction.
        scatter: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
        spans: List[Tuple[int, int, Sequence, int, int]] = []
        block = 0
        for pos, index, checked, tables in chunk:
            w = self._window_by_index[index]
            seeds = self._stacked_seeds(index, checked)
            for out_pos, gid in enumerate(w.outputs):
                at = int(sched.producer_of[gid])
                entry = scatter.setdefault(at, [])
                for c in range(len(checked)):
                    entry.append((gid, block + c, seeds[c, out_pos]))
            spans.append((pos, index, tables, block, len(checked)))
            block += len(checked)
        stacked = np.empty(
            (self.circuit.n_nodes, n_blocks * w_words), dtype=np.uint64
        )
        if sched.source_ids.size:
            stacked[sched.source_ids] = np.broadcast_to(
                values[sched.source_ids][:, None, :],
                (sched.source_ids.size, n_blocks, w_words),
            ).reshape(sched.source_ids.size, n_blocks * w_words)
        word_span = np.arange(w_words, dtype=np.int64)
        for instr_pos, instr in enumerate(sched.instructions):
            if isinstance(instr, WindowInstr):
                # Gather only the blocks whose candidate dirtied this
                # window's inputs — every other block's outputs are the
                # committed rows (one broadcast fill).
                x = stacked[instr.in_slots].reshape(
                    -1, n_blocks, w_words
                ) ^ values[instr.in_ids][:, None, :]
                x[..., -1] &= self._tail
                dirty_blocks = np.flatnonzero(x.any(axis=(0, 2)))
                m = len(instr.out_slots)
                stacked[instr.out_slots] = np.broadcast_to(
                    values[instr.out_ids][:, None, :],
                    (m, n_blocks, w_words),
                ).reshape(m, n_blocks * w_words)
                if dirty_blocks.size:
                    cols = (
                        dirty_blocks[:, None] * w_words + word_span
                    ).ravel()
                    sub = stacked[np.ix_(instr.in_slots, cols)]
                    idx = decode_rows(sub, cols.size * WORD_BITS)
                    stacked[np.ix_(instr.out_slots, cols)] = lookup_packed(
                        self._table_t(instr.index), idx
                    )
            else:
                stacked[instr.out] = execute_batch(instr, stacked, None)
            overrides = scatter.get(instr_pos)
            if overrides:
                for gid, blk, seed_row in overrides:
                    stacked[gid, blk * w_words : (blk + 1) * w_words] = (
                        seed_row
                    )
        # One block-masked compare yields every candidate's dirty rows.
        out_stack = stacked[self._out_nodes_arr]
        blocked = out_stack.reshape(
            len(self._out_nodes_arr), n_blocks, w_words
        ) ^ values[self._out_nodes_arr][:, None, :]
        blocked[..., -1] &= self._tail
        neq = blocked.any(axis=2)
        for pos, index, tables, b0, n_cand in spans:
            per_window: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
            for c in range(n_cand):
                rows = tuple(int(r) for r in np.nonzero(neq[:, b0 + c])[0])
                out = np.ascontiguousarray(
                    out_stack[:, (b0 + c) * w_words : (b0 + c + 1) * w_words]
                )
                per_window.append((out, rows))
            results[pos] = per_window
            self._memo_store(index, tables, per_window)

    def commit(self, index: int, table: np.ndarray) -> None:
        w = self._window_by_index[index]
        table = self._check_table(w, table)
        table_t = table_transpose(table)
        if self._sanitize:
            freeze(table_t)
        seed = lookup_packed(table_t, self._window_input_index(index))
        mask_tail_words(seed, self.n)
        if self._sanitize:
            assert_tail_clean(seed, self.n, "commit seed")
        cone = self._cone(index)
        swept = self._run_cone(cone, seed)
        first_commit = index not in self._committed
        self._committed[index] = table
        self._table_t_cache[index] = (table, table_t)
        changed = set()
        if swept is not None:
            local, neq = swept
            for i in np.nonzero(neq)[0]:
                gid = int(cone.recorded_ids[i])
                self._values[gid] = local[cone.recorded_slots[i]]
                changed.add(gid)
            # Any cached input index built from a changed node is stale.
            for widx in list(self._idx_cache):
                if self._win_input_sets[widx] & changed:
                    del self._idx_cache[widx]
        # A memoized preview is stale if its cone touches a changed value
        # — or this window at all: even with an identical-on-samples
        # overlay, the new table is a different *function*, and a cone
        # re-evaluates it under candidate-dirtied inputs.
        invalid = changed | set(w.members) | set(w.outputs)
        for widx in list(self._preview_cache):
            if self._preview_cache[widx][1] & invalid:
                del self._preview_cache[widx]
        if first_commit:
            # Schedules compiled with this window inlined as plain gates
            # are now wrong (it evaluates through a table); recompile
            # lazily.  The committed set only grows, so each cone
            # recompiles at most once per window it contains.
            self._iter_sched = None
            for widx in list(self._cones):
                if index in self._cones[widx].step_windows:
                    del self._cones[widx]


def make_evaluator(
    circuit: Circuit,
    windows,
    input_words: np.ndarray,
    n_samples: int,
    engine: str = "compiled",
    stats: Optional[RuntimeStats] = None,
    chunk_words: Optional[int] = None,
    shard_jobs: int = 1,
    sanitize: Optional[bool] = None,
    policy=None,
    faults=None,
    cancel=None,
) -> IncrementalEvaluator:
    """Construct the evaluation engine selected by ``engine``.

    ``chunk_words`` (compiled engine only) selects streaming execution:
    the pattern axis is processed in word-aligned chunks of at most that
    many packed words, bounding sample-matrix memory by the chunk budget
    instead of the total pattern count.  ``shard_jobs`` fans the
    streaming chunk loop across worker processes (``1`` = in-process;
    meaningful only with ``chunk_words`` set).  Trajectory floats are
    bit-identical to resident execution for any chunk size and shard
    count (DESIGN.md "Streaming execution" / "Parallel streaming").

    ``sanitize`` enables the runtime contract sanitizer — frozen
    cache-held arrays and tail-bit assertions at engine boundaries
    (``None`` defers to the ``REPRO_SANITIZE`` environment variable; see
    DESIGN.md "Static contracts").

    ``policy`` (a :class:`repro.runtime.parallel.RetryPolicy`) and
    ``faults`` (a :class:`repro.runtime.faults.FaultPlan`) configure the
    streaming shard executor's supervision — retry/timeout/rebuild
    bounds and deterministic chaos injection (DESIGN.md "Fault
    tolerance").  Both are ignored by the resident engines, which have
    no worker pool.

    ``cancel`` is a cooperative :class:`~repro.runtime.cancel.CancelToken`
    checked at the streaming engine's chunk/dispatch boundaries.  It is
    streaming-only — the resident engines' sweeps are single vectorized
    passes with no safe interior interruption point.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if chunk_words is not None:
        if engine != "compiled":
            raise SimulationError(
                "chunked (streaming) execution requires the compiled engine"
            )
        from .streaming import StreamingEvaluator  # lazy: builds on this module

        return StreamingEvaluator(
            circuit, windows, input_words, n_samples,
            chunk_words=chunk_words, stats=stats,
            shard_jobs=shard_jobs, sanitize=sanitize,
            policy=policy, faults=faults, cancel=cancel,
        )
    cls = CompiledEvaluator if engine == "compiled" else IncrementalEvaluator
    return cls(
        circuit, windows, input_words, n_samples, stats=stats,
        sanitize=sanitize,
    )
