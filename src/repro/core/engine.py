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
* **Block-stacked sweeps** — a window's candidates sweep its cone
  together, stacked along the word axis
  (:meth:`CompiledEvaluator._sweep_cone_blocks`, which commits and the
  streaming engine's chunk scans run too).  A whole iteration's scan
  (:meth:`CompiledEvaluator.preview_scan`) stacks every window's
  candidates into passes over the whole-plan schedule and is
  *cone-sparse*: each instruction runs only on the blocks whose window's
  cone it touches, in one reused scratch matrix that a pass fills on
  demand from the committed values (DESIGN.md "Cone-sparse scan").

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
    tail_mask,
)
from ..analysis.sanitize import assert_tail_clean, freeze
from ..errors import SimulationError
from ..runtime import RuntimeStats
from .incremental import IncrementalEvaluator
from .qor import QoREvaluator

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
    step of the streaming engine's chunk base passes.  Output tails
    beyond ``n_valid`` are masked to zero (tail-bit invariant: garbage
    indices in the tail would otherwise read arbitrary table rows).
    """
    idx = decode_rows(in_words, in_words.shape[1] * WORD_BITS)
    return mask_tail_words(lookup_packed(table_t, idx), n_valid)


def _dirty_blocks(
    stacked: np.ndarray, base: np.ndarray, tail: np.uint64
) -> np.ndarray:
    """Blocks of ``(rows, blocks, cw)`` ``stacked`` whose valid bits
    differ from the ``(rows, cw)`` ``base`` rows."""
    x = stacked ^ base[:, None, :]
    x[..., -1] &= tail
    return np.flatnonzero(x.any(axis=(0, 2)))


def _gather_blocks(
    table_t: np.ndarray,
    values: np.ndarray,
    in_rows: np.ndarray,
    out_rows: np.ndarray,
    blocks: np.ndarray,
    cw: int,
    tail: np.uint64,
) -> None:
    """Table-gather the ``cw``-word ``blocks`` (sorted) of a block-stacked
    value matrix: decode ``in_rows`` there and write the lookup into
    ``out_rows``, each block's tail masked like any window output."""
    b0, b1 = int(blocks[0]), int(blocks[-1]) + 1
    if b1 - b0 == blocks.size:
        cols = slice(b0 * cw, b1 * cw)
        ins, outs = (in_rows, cols), (out_rows, cols)
    else:
        cols = (blocks[:, None] * cw + np.arange(cw, dtype=np.int64)).ravel()
        ins, outs = np.ix_(in_rows, cols), np.ix_(out_rows, cols)
    idx = decode_rows(values[ins], blocks.size * cw * WORD_BITS)
    out = lookup_packed(table_t, idx)
    out[:, cw - 1 :: cw] &= tail
    values[outs] = out


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

    The remaining fields let a scan pass derive, in a few vectorized
    ops, which blocks each instruction must run on (DESIGN.md
    "Cone-sparse scan"): ``touches[i, k]`` is true when instruction
    ``i`` writes a node in the downstream cone of the window at plan
    rank ``k``; gate outputs and instruction reads are flat id arrays,
    the reads sorted by node id for ``reduceat``.
    """

    instructions: List[ConeInstr]
    #: node id -> position of the instruction producing it (-1 for none);
    #: lets a scan map its seed overrides to instructions in O(#seeds).
    producer_of: np.ndarray
    n_units: int
    touches: np.ndarray
    #: Gate-instruction output ids and the position of their instruction.
    gate_out_ids: np.ndarray
    gate_out_instr: np.ndarray
    #: Per instruction: gate rows it writes (0 for window gathers).
    gate_rows: np.ndarray
    #: Distinct node ids any instruction reads, the offset of each id's
    #: run in ``read_instr``, and the reading instruction per read.
    read_ids: np.ndarray
    read_starts: np.ndarray
    read_instr: np.ndarray


#: Upper bound on candidate blocks stacked into one pass (bounds the scan's
#: scratch matrix at n_nodes x MAX_SCAN_BLOCKS x W words, and every
#: block-stacked cone sweep at the same block count).
MAX_SCAN_BLOCKS = 64

#: Word the sanitizer writes over the scan scratch before every pass, so
#: a read of an entry the pass did not write shows as a wrong value.
_SCRATCH_POISON = np.uint64(0xA5A5_A5A5_A5A5_A5A5)

_NO_IDS = np.zeros(0, dtype=np.int64)


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
    ``(n_nodes, words_for(n_samples))`` value matrix and, from its first
    stacked scan until :meth:`close`, the scan's scratch matrix: one
    value-matrix copy per block of the widest pass (at most
    :data:`MAX_SCAN_BLOCKS`, unless one window brings more candidates).
    For pattern counts where that matrix is the bottleneck, use the
    streaming subclass (:class:`repro.core.streaming.StreamingEvaluator`,
    selected via ``chunk_words``), which bounds sample-matrix memory by a
    chunk budget and stays trajectory-identical.
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
        # Window index -> its rank among the windows in plan order: the
        # column order of the cone-membership matrix and the order a
        # scan packs its blocks in.
        self._plan_rank = {
            key: rank
            for rank, key in enumerate(
                key for kind, key in self._plan if kind == "window"
            )
        }
        self._cone_member: Optional[np.ndarray] = None
        # The stacked scan's (n_nodes, blocks x W) scratch matrix: grown
        # on demand, never initialized, dropped by close().
        self._scan_buf: Optional[np.ndarray] = None

    def close(self) -> None:
        """Drop the scan scratch matrix (the engine holds nothing else
        that outlives exploration)."""
        self._scan_buf = None

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

    # -- block-stacked cone sweeps --------------------------------------
    def _block_capacity(self, cone: ConeSchedule, chunk_words: int) -> int:
        """Candidate blocks one stacked cone sweep may hold (hook).

        Resident default: ``n_nodes // n_slots`` keeps the stacked local
        matrix no larger than the resident value matrix; always ≥ 1 and
        never beyond :data:`MAX_SCAN_BLOCKS`.  The streaming engine
        overrides this with its chunk budget.
        """
        cap = self.circuit.n_nodes // max(cone.n_slots, 1)
        return int(max(1, min(cap, MAX_SCAN_BLOCKS)))

    def _note_working_set(self, base: np.ndarray, local: np.ndarray) -> None:
        """Record one sweep's sample-matrix bytes (hook; the resident
        engine records its value matrix once, at construction)."""

    def _sweep_cone_blocks(
        self,
        cone: ConeSchedule,
        seeds: np.ndarray,
        base: np.ndarray,
        n_valid: int,
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Sweep stacked candidate seeds through one cone execution.

        ``seeds`` is ``(B, m, cw)`` root-output rows and ``base`` the
        committed value matrix the cone reads (the resident cache, or one
        chunk of base state).  Candidates whose seed matches the base on
        every valid bit are skipped (clean early exit); the rest are
        stacked along the word axis — block-columns of one local value
        matrix, window gathers restricted to the blocks whose inputs the
        candidate actually dirtied — and swept in a single instruction
        walk.

        Returns one entry per input block: ``None`` for clean seeds, else
        ``(local view, neq column)`` where the view is the block's
        ``(n_slots, cw)`` slice and ``neq`` the bulk valid-bit dirty mask
        over ``cone.recorded_slots``.  Per-block results are
        byte-identical on every valid bit to a solo sweep of the same
        candidate (bitwise ops are per-word; block tails never feed
        valid bits).
        """
        cw = base.shape[1]
        tail = tail_mask(n_valid)
        n_blocks = seeds.shape[0]
        x = seeds ^ base[cone.root_out_ids][None, :, :]
        x[..., -1] &= tail
        live = np.flatnonzero(x.any(axis=(1, 2)))
        if self._stats is not None:
            self._stats.n_sweep_units += cone.n_units * live.size + (
                n_blocks - live.size
            )
        out: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * n_blocks
        if not live.size:
            return out
        nb = live.size
        local = np.empty((cone.n_slots, nb * cw), dtype=np.uint64)
        if cone.boundary_slots.size:
            local[cone.boundary_slots] = np.broadcast_to(
                base[cone.boundary_ids][:, None, :],
                (cone.boundary_ids.size, nb, cw),
            ).reshape(cone.boundary_ids.size, nb * cw)
        m = cone.root_out_slots.size
        local[cone.root_out_slots] = (
            seeds[live].transpose(1, 0, 2).reshape(m, nb * cw)
        )
        for instr in cone.instructions:
            if isinstance(instr, WindowInstr):
                # Gather only the blocks whose candidate dirtied this
                # window's inputs; every other block's outputs are the
                # base rows (one broadcast fill).
                dirty = _dirty_blocks(
                    local[instr.in_slots].reshape(-1, nb, cw),
                    base[instr.in_ids],
                    tail,
                )
                if dirty.size < nb:
                    mo = len(instr.out_slots)
                    local[instr.out_slots] = np.broadcast_to(
                        base[instr.out_ids][:, None, :], (mo, nb, cw)
                    ).reshape(mo, nb * cw)
                if dirty.size:
                    _gather_blocks(
                        self._table_t(instr.index), local,
                        instr.in_slots, instr.out_slots, dirty, cw, tail,
                    )
            else:
                local[instr.out] = execute_batch(instr, local, None)
        self._note_working_set(base, local)
        rec = local[cone.recorded_slots].reshape(-1, nb, cw) ^ base[
            cone.recorded_ids
        ][:, None, :]
        rec[..., -1] &= tail
        neq = rec.any(axis=2)
        for j, b in enumerate(live.tolist()):
            out[b] = (local[:, j * cw : (j + 1) * cw], neq[:, j])
        return out

    def _dirty_out_rows(
        self, cone: ConeSchedule, local: np.ndarray, neq: np.ndarray
    ) -> List[Tuple[int, np.ndarray]]:
        """(output row, values) pairs a cone sweep dirtied."""
        out: List[Tuple[int, np.ndarray]] = []
        for j in np.nonzero(neq[cone.out_rec_idx])[0]:
            i = int(cone.out_rec_idx[j])
            vals = local[cone.recorded_slots[i]]
            for row in cone.out_rows[j]:
                out.append((row, vals))
        return out

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

        All candidates share one stacked seed gather, then sweep the
        window's compiled cone together, stacked along the word axis
        (:meth:`_sweep_cone_blocks`, the same sweep the streaming engine
        runs per chunk; at most :meth:`_block_capacity` blocks per
        pass).  Outputs match :meth:`preview` on every valid bit; the
        dirty-row sets are exact (a row is reported iff its valid bits
        differ from the committed state), which is what the delta-QoR
        path relies on.
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
        cap = self._block_capacity(cone, self._n_words)
        results: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
        for b0 in range(0, len(checked), cap):
            for swept in self._sweep_cone_blocks(
                cone, seeds[b0 : b0 + cap], self._values, self.n
            ):
                out = self._values[self._out_nodes_arr]
                rows: List[int] = []
                if swept is not None:
                    for row, vals in self._dirty_out_rows(cone, *swept):
                        out[row] = vals
                        rows.append(row)
                results.append((out, tuple(rows)))
        if self._stats is not None:
            self._stats.n_preview_sweeps += len(checked)
        self._memo_store(index, tables, results)
        return results

    def preview_batch(
        self, index: int, tables: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        return [out for out, _ in self.preview_batch_delta(index, tables)]

    # -- stacked iteration scans ----------------------------------------
    def _cone_members(self) -> np.ndarray:
        """Static ``(n_nodes, n_windows)`` cone membership, built once.

        Entry ``[nid, k]`` is true when node ``nid`` lies in the
        downstream cone of the window at plan rank ``k`` — a loose node
        of the cone or a member of a window inside it (the root window's
        own members excluded: a candidate seeds its outputs instead).
        Independent of the committed set.
        """
        member = self._cone_member
        if member is None:
            member = np.zeros(
                (self.circuit.n_nodes, len(self._plan_rank)), dtype=bool
            )
            for index, rank in self._plan_rank.items():
                ids: List[int] = []
                for kind, key in self._graph.cone(("window", index))[1:]:
                    if kind == "node":
                        ids.append(key)
                    else:
                        ids.extend(self._window_by_index[key].members)
                member[ids, rank] = True
            self._cone_member = member
        return member

    def _iteration_schedule(self) -> IterationSchedule:
        sched = self._iter_sched
        if sched is not None:
            return sched
        circuit = self.circuit
        instructions: List[ConeInstr] = []
        pending: List[int] = []
        ident = lambda nid: nid  # noqa: E731 - slots are node ids

        def flush() -> None:
            if pending:
                instructions.extend(_levelize(circuit, pending, ident))
                pending.clear()

        for kind, key in self._plan:
            if kind == "node":
                if circuit.node(key).op.is_gate:
                    pending.append(key)
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
        n_instr = len(instructions)
        positions = np.arange(n_instr, dtype=np.int64)
        is_gate = np.array(
            [isinstance(instr, GateBatch) for instr in instructions],
            dtype=bool,
        )
        n_out = np.array(
            [instr.out_ids.size for instr in instructions], dtype=np.int64
        )
        out_ids = np.concatenate(
            [instr.out_ids for instr in instructions] + [_NO_IDS]
        )
        out_instr = np.repeat(positions, n_out)
        producer = np.full(circuit.n_nodes, -1, dtype=np.int64)
        producer[out_ids] = out_instr
        touches = np.zeros((n_instr, len(self._plan_rank)), dtype=bool)
        if n_instr:
            touches = np.logical_or.reduceat(
                self._cone_members()[out_ids],
                np.cumsum(n_out) - n_out,
                axis=0,
            )
        reads = [
            instr.fanins.ravel() if isinstance(instr, GateBatch)
            else instr.in_ids
            for instr in instructions
        ]
        read_flat = np.concatenate(reads + [_NO_IDS])
        read_instr = np.repeat(
            positions, [r.size for r in reads]
        ).astype(np.int64)
        order = np.argsort(read_flat, kind="stable")
        read_ids, read_starts = np.unique(
            read_flat[order], return_index=True
        )
        gate_out = is_gate[out_instr]
        sched = IterationSchedule(
            instructions,
            producer,
            len(self._plan),
            touches,
            out_ids[gate_out],
            out_instr[gate_out],
            np.where(is_gate, n_out, 0),
            read_ids,
            read_starts,
            read_instr[order],
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

        Memoized windows replay their cached sweeps; the rest are sorted
        by their window's plan position and packed into passes of at
        most :data:`MAX_SCAN_BLOCKS` candidate blocks (a window with
        more candidates gets a pass of its own).  A pass executes the
        whole-plan schedule once with every candidate stacked along the
        word axis (its seed scattered into its own block-column right
        after the producing instruction), so the per-unit dispatch cost
        is paid once per pass instead of once per candidate.  The pass
        is cone-sparse: each instruction runs only on the contiguous
        block range whose windows' cones it touches, and everything
        else reads the committed values (DESIGN.md "Cone-sparse scan").

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
        todo.sort(key=lambda item: self._plan_rank[item[1]])
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

    def scan_errors(
        self,
        requests: Sequence[Tuple[int, Sequence[np.ndarray]]],
        qor: QoREvaluator,
    ) -> List[List[Tuple[float, Tuple[int, ...]]]]:
        """Per request, per candidate: ``(error, dirtied output rows)``.

        One request takes the window's cone path
        (:meth:`preview_batch_delta`); several take the stacked
        :meth:`preview_scan`.  Each candidate is scored by
        ``qor.evaluate_delta`` over its dirty rows, so ``qor`` must be
        rebased on :meth:`current_outputs`.  Errors are bit-identical to
        the reference oracle's and rows are reported sorted.
        """
        if len(requests) == 1:
            scans = [self.preview_batch_delta(*requests[0])]
        else:
            scans = self.preview_scan(requests)
        return [
            [
                (qor.evaluate_delta(out, rows), tuple(sorted(rows)))
                for out, rows in per_window
            ]
            for per_window in scans
        ]

    def _scan_scratch(self, n_blocks: int) -> np.ndarray:
        """The ``(n_nodes, blocks, W)`` scan scratch, grown to hold
        ``n_blocks`` blocks.  Never initialized: a pass writes every
        entry it reads (under the sanitizer it is poisoned first)."""
        buf = self._scan_buf
        if buf is None or buf.shape[1] < n_blocks:
            # Release the outgrown matrix before allocating its successor.
            self._scan_buf = buf = None
            buf = np.empty(
                (self.circuit.n_nodes, n_blocks, self._n_words),
                dtype=np.uint64,
            )
            self._scan_buf = buf
        if self._sanitize:
            buf.fill(_SCRATCH_POISON)
        return buf

    def _run_scan_chunk(self, chunk, n_blocks: int, results: List) -> None:
        """One stacked pass over ``chunk``'s requests (in plan order).

        Each instruction runs on its active block range ``[lo, hi)``:
        the hull of the blocks whose window's cone it touches.  Each row
        is *needed* over the hull of its readers' ranges (every block for
        a primary output); wherever a row is needed but not computed, it
        is copied from the committed values before the walk.  So every
        entry the pass reads is written first, and the scratch carries
        nothing over from earlier passes.
        """
        values = self._values
        w_words = self._n_words
        sched = self._iteration_schedule()
        n_nodes = self.circuit.n_nodes
        buf = self._scan_scratch(n_blocks)
        flat = buf.reshape(n_nodes, -1)
        # Block range of each request, and the seed rows to scatter right
        # after the instruction producing each root output.
        ranks = np.array(
            [self._plan_rank[index] for _, index, _, _ in chunk],
            dtype=np.int64,
        )
        sizes = np.array([len(c) for _, _, c, _ in chunk], dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        scatter: Dict[int, List[Tuple[int, int, int, np.ndarray]]] = {}
        for (_, index, checked, _), b0, b1 in zip(
            chunk, starts.tolist(), ends.tolist()
        ):
            seeds = self._stacked_seeds(index, checked)
            outputs = self._window_by_index[index].outputs
            for out_pos, gid in enumerate(outputs):
                scatter.setdefault(int(sched.producer_of[gid]), []).append(
                    (gid, b0, b1, seeds[:, out_pos])
                )
        # Active ranges: blocks are laid out in request order, so the
        # blocks of the windows an instruction touches lie inside [start
        # of the first, end of the last); plan order keeps that hull
        # tight.  Inactive instructions get the empty range [n_blocks, 0).
        sub = sched.touches[:, ranks]
        hit = sub.any(axis=1)
        lo = np.where(hit, starts[sub.argmax(axis=1)], n_blocks)
        hi = np.where(
            hit, ends[len(chunk) - 1 - sub[:, ::-1].argmax(axis=1)], 0
        )
        # Need ranges: hull of the readers' ranges; all of a primary output.
        need_lo = np.full(n_nodes, n_blocks, dtype=np.int64)
        need_hi = np.zeros(n_nodes, dtype=np.int64)
        if sched.read_ids.size:
            need_lo[sched.read_ids] = np.minimum.reduceat(
                lo[sched.read_instr], sched.read_starts
            )
            need_hi[sched.read_ids] = np.maximum.reduceat(
                hi[sched.read_instr], sched.read_starts
            )
        need_lo[self._out_nodes_arr] = 0
        need_hi[self._out_nodes_arr] = n_blocks
        # Computed ranges: gate rows of active instructions.  Window
        # outputs count as not computed: the fill writes their committed
        # rows and the gather overwrites the blocks with dirty inputs.
        comp_lo = np.full(n_nodes, n_blocks, dtype=np.int64)
        comp_hi = np.full(n_nodes, n_blocks, dtype=np.int64)
        g_lo = lo[sched.gate_out_instr]
        g_hi = hi[sched.gate_out_instr]
        active = g_lo < g_hi
        comp_lo[sched.gate_out_ids[active]] = g_lo[active]
        comp_hi[sched.gate_out_ids[active]] = g_hi[active]
        self._fill_committed(
            buf,
            np.concatenate([need_lo, np.maximum(need_lo, comp_hi)]),
            np.concatenate([np.minimum(need_hi, comp_lo), need_hi]),
        )
        if self._stats is not None:
            self._stats.n_preview_sweeps += n_blocks
            self._stats.n_sweep_units += sched.n_units
            self._stats.n_scan_gate_words += (
                int(sched.gate_rows @ np.maximum(hi - lo, 0)) * w_words
            )
        # An instruction no candidate's cone reaches (l >= h) is skipped;
        # the seeds its outputs carry are still scattered after it.
        for pos, (instr, l, h) in enumerate(
            zip(sched.instructions, lo.tolist(), hi.tolist())
        ):
            if l < h and isinstance(instr, WindowInstr):
                # Gather only the blocks whose candidate dirtied this
                # window's inputs; the rest hold the committed rows.
                dirty = _dirty_blocks(
                    buf[instr.in_ids, l:h], values[instr.in_ids], self._tail
                )
                if dirty.size:
                    _gather_blocks(
                        self._table_t(instr.index), flat,
                        instr.in_ids, instr.out_ids, dirty + l, w_words,
                        self._tail,
                    )
            elif l < h:
                flat[instr.out, l * w_words : h * w_words] = execute_batch(
                    instr, flat[:, l * w_words : h * w_words], None
                )
            for gid, b0, b1, seed_rows in scatter.get(pos, ()):
                buf[gid, b0:b1] = seed_rows
        # One block-masked compare yields every candidate's dirty rows;
        # each candidate's outputs are one block of a (blocks, outputs,
        # W) copy.
        outs = buf[self._out_nodes_arr, :n_blocks].transpose(1, 0, 2).copy()
        blocked = outs ^ values[self._out_nodes_arr]
        blocked[..., -1] &= self._tail
        neq = blocked.any(axis=2)
        for (pos, index, _, tables), b0, b1 in zip(
            chunk, starts.tolist(), ends.tolist()
        ):
            per_window = [
                (outs[b], tuple(np.flatnonzero(neq[b]).tolist()))
                for b in range(b0, b1)
            ]
            results[pos] = per_window
            self._memo_store(index, tables, per_window)

    def _fill_committed(
        self, buf: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> None:
        """Copy committed rows into ``buf[row, a[i]:b[i]]``, ``row = i %
        n_nodes``, one broadcast store per distinct block range."""
        keep = np.flatnonzero(a < b)
        if not keep.size:
            return
        keep = keep[np.argsort(a[keep] * (buf.shape[1] + 1) + b[keep])]
        lo, hi = a[keep], b[keep]
        starts = np.flatnonzero(
            np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1)
        )
        rows = keep % self.circuit.n_nodes
        vals = self._values[rows][:, None, :]
        ends = starts[1:].tolist() + [rows.size]
        for s, e, l, h in zip(
            starts.tolist(), ends, lo[starts].tolist(), hi[starts].tolist()
        ):
            buf[rows[s:e], l:h] = vals[s:e]

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
        swept = self._sweep_cone_blocks(
            cone, seed[None], self._values, self.n
        )[0]
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
