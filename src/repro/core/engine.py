"""Compiled exploration engine: one scan pass over SoA gate programs.

Algorithm 1's inner loop evaluates every candidate substitution against the
whole sample set; :class:`~repro.core.incremental.IncrementalEvaluator`
already prunes that to the candidate's downstream cone, but it still *walks
the entire quotient plan in interpreted Python* per candidate, paying one
``any(dirty[f] ...)`` + one numpy dispatch per touched node.  This module
compiles the evaluation so a sweep costs a handful of vectorized array
ops per instruction, shared by every candidate of a pass:

* **Structure-of-arrays gate programs** — gates grouped by
  (level, op, arity) with fanin index matrices, executed as gathered-row
  bitwise ufunc reductions over a packed value matrix.  Windows not yet
  substituted are *inlined* into the surrounding levelization (wide
  levels span window boundaries — crucial for shallow-but-wide
  datapaths); substituted windows become single table-gather
  instructions.  The whole-plan :class:`IterationSchedule` is therefore
  specialized to the committed set and recompiled after a window's first
  commit — the committed set only grows, so at most once per window.
  The same compiler serves whole-circuit simulation
  (:func:`simulate_full_compiled` behind
  :func:`repro.circuit.simulate.simulate_full`).
* **Stacked candidate gather** — all candidate tables of one window are
  pushed through the window's shared input index (cached, invalidated on
  commit) in a single transposed-table lookup
  (:func:`~repro.circuit.simulate.lookup_packed`), and dirty tracking
  happens in one bulk valid-bit compare per pass instead of per node.
  Every table lookup in the engine — seeds, commits, committed windows
  inside passes — decodes its index with
  :func:`~repro.circuit.simulate.decode_rows` and gathers with
  ``lookup_packed``; committed tables are transposed once, at commit.
* **One cone-sparse scan pass** — every sweep is a pass of
  :meth:`CompiledEvaluator._run_scan_chunk`: a scan stacks its
  candidates along the word axis (block-columns) in plan order and runs
  the schedule once, each instruction only on the blocks whose window's
  cone it touches, in one reused scratch matrix that the pass fills on
  demand from the committed values (DESIGN.md "Cone-sparse scan").  A
  one-window scan is a pass with one window's blocks, a commit a
  one-block pass, and every chunk of the plan runs the same pass against
  its base state.
* **One scoring fold over one chunk plan** —
  :meth:`CompiledEvaluator.scan_errors` folds every pass's dirtied
  output rows into mergeable per-candidate accumulators over the chunk
  plan and memoizes whole-axis error totals.  The plan derives from
  ``n_samples`` and ``chunk_words``: one chunk keeps its base (the value
  matrix, updated in place on commit); several chunks rebuild each
  chunk's base per scan or commit, and shard across worker processes
  (:mod:`repro.core.streaming`).

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
derive exclusively from valid bits and are bit-identical to the
reference's — asserted by the test suite and
``benchmarks/bench_explore.py``.
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
    plan_chunks,
    simulate_full,
    simulate_outputs,
    table_transpose,
    tail_mask,
    words_for,
)
from ..analysis.sanitize import (
    assert_tail_clean,
    freeze,
    frozen_view,
    sanitize_enabled,
)
from ..errors import SimulationError
from ..partition.plan import quotient_graph
from ..runtime import RuntimeStats, effective_jobs
from ..runtime.executor import (
    ScanShard,
    StreamContext,
    make_shard_executor,
    merge_accumulator,
    new_accumulator,
    plan_shards,
)
from .qor import QoREvaluator


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
    step of a rebuilt chunk base.  Output tails
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


def _fill_from(
    buf: np.ndarray, base: np.ndarray, a: np.ndarray, b: np.ndarray
) -> None:
    """Copy ``base`` rows into the block-stacked ``buf[row, a[i]:b[i]]``,
    ``row = i % n_nodes``, one broadcast store per distinct block range."""
    keep = np.flatnonzero(a < b)
    if not keep.size:
        return
    keep = keep[np.argsort(a[keep] * (buf.shape[1] + 1) + b[keep])]
    lo, hi = a[keep], b[keep]
    starts = np.flatnonzero(
        np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1)
    )
    rows = keep % base.shape[0]
    vals = base[rows][:, None, :]
    ends = starts[1:].tolist() + [rows.size]
    for s, e, l, h in zip(
        starts.tolist(), ends, lo[starts].tolist(), hi[starts].tolist()
    ):
        buf[rows[s:e], l:h] = vals[s:e]


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
# Iteration schedules
# ----------------------------------------------------------------------
@dataclass
class WindowInstr:
    """A *substituted* window: a single table gather through the window's
    packed input rows (un-substituted windows are inlined into the
    surrounding gate batches at compile time)."""

    index: int
    in_ids: np.ndarray
    out_ids: np.ndarray


ScheduleInstr = Union[GateBatch, WindowInstr]


@dataclass
class IterationSchedule:
    """Whole-plan program every sweep runs: scans, commits and chunk
    base rebuilds.

    Slots are node ids.  Uncommitted windows are inlined as gates,
    committed ones are gather instructions, so the schedule is
    specialized to the committed set and recompiled after a window's
    first commit.  A scan pass evaluates candidates of any number of
    windows at once, stacked along the word axis (block-columns), so the
    per-unit dispatch cost is paid once per pass instead of once per
    candidate.

    The remaining fields let a pass derive, in a few vectorized ops,
    which blocks each instruction must run on (DESIGN.md "Cone-sparse
    scan"): ``touches[i, k]`` is true when instruction ``i`` writes a
    node in the downstream cone of the window at plan rank ``k``; gate
    outputs and instruction reads are flat id arrays, the reads sorted
    by node id for ``reduceat``.
    """

    instructions: List[ScheduleInstr]
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


#: Upper bound on candidate blocks stacked into one pass, so the scan
#: scratch holds at most n_nodes x MAX_SCAN_BLOCKS x cw words.  The
#: packer splits a window's candidates across passes at the cap that
#: :meth:`CompiledEvaluator._pass_cap` sets, which is lower when
#: ``chunk_words`` bounds base plus scratch.
MAX_SCAN_BLOCKS = 64

#: Word the sanitizer writes over the scan scratch before every pass, so
#: a read of an entry the pass did not write shows as a wrong value.
_SCRATCH_POISON = np.uint64(0xA5A5_A5A5_A5A5_A5A5)

_NO_IDS = np.zeros(0, dtype=np.int64)


def pack_passes(sizes: Sequence[int], cap: int):
    """Split requests of ``sizes`` candidate blocks into passes of at
    most ``cap`` blocks, in order, a request spilling into the next pass
    where the current one fills up.  Yields lists of ``(request, first
    candidate, end candidate)`` segments."""
    segments: List[Tuple[int, int, int]] = []
    room = cap
    for req, size in enumerate(sizes):
        c0 = 0
        while c0 < size:
            c1 = min(size, c0 + room)
            segments.append((req, c0, c1))
            room -= c1 - c0
            c0 = c1
            if not room:
                yield segments
                segments, room = [], cap
    if segments:
        yield segments


# ----------------------------------------------------------------------
# The compiled evaluator
# ----------------------------------------------------------------------
class CompiledEvaluator:
    """The exploration engine: compiled scan passes over a chunk plan.

    Args:
        circuit: The accurate netlist being explored.
        windows: The decomposition's windows (candidate substitution
            sites).
        input_words: Packed Monte-Carlo stimulus, shape
            ``(n_inputs, words_for(n_samples))``.
        n_samples: Valid pattern count (tail bits beyond it are
            unspecified; see DESIGN.md's tail-bit invariant).
        chunk_words: Maximum packed words per pattern-axis chunk (≥ 1),
            or ``None`` for one whole-axis chunk.  Peak sample-matrix
            memory **per process** is then ``≤ 2 × 8 × n_nodes ×
            chunk_words`` bytes (base state + scan scratch).
        stats: Optional :class:`~repro.runtime.RuntimeStats` accumulator
            for sweep/memo counters and the ``peak_sample_matrix_bytes``
            gauge.
        shard_jobs: Worker processes for chunk-sharded scans (``0`` = all
            cores through :func:`repro.runtime.parallel.effective_jobs`,
            ``1`` = in-process).  Only a plan of more than one chunk
            shards; sharded results are byte-identical to in-process
            ones for any worker count.
        exact_outputs: Precomputed packed exact output rows; skips the
            initial output simulation (the shard-worker fast path).
        sanitize: Runtime contract sanitizer (``None`` defers to
            ``REPRO_SANITIZE``; DESIGN.md "Static contracts").
        policy / faults: Retry/timeout policy
            (:class:`repro.runtime.parallel.RetryPolicy`) and
            deterministic fault plan (:class:`repro.runtime.faults.
            FaultPlan`) of the shard executor (DESIGN.md "Fault
            tolerance").
        cancel: Cooperative :class:`~repro.runtime.cancel.CancelToken`
            checked before every chunk of a scan and at shard dispatch; a
            cancelled scan raises before mutating any committed state.

    The chunk plan (:func:`~repro.circuit.simulate.plan_chunks`) decides
    what stays resident.  A one-chunk plan keeps its base — the
    ``(n_nodes, W)`` value matrix, updated in place on commit — and
    caches each window's input index and candidate seeds.  A plan of
    several chunks rebuilds each chunk's base for every scan and commit,
    so only the inputs and the output rows stay pattern-sized.  Passes
    stack at most ``chunk_words // cw`` blocks of a ``cw``-word chunk
    (:data:`MAX_SCAN_BLOCKS` without ``chunk_words``).  Every plan
    returns the same floats, dirty rows and committed outputs, bit for
    bit (DESIGN.md "Streaming execution").

    Determinism guarantees: scan errors, dirty rows, commits and the
    committed map match the interpreted reference
    (:class:`repro.core.incremental.IncrementalEvaluator`) bit-for-bit
    on every valid bit (full words when ``n_samples`` is a multiple of
    64 — see the module docstring for the tail contract).

    Invalidation semantics: a :meth:`commit` (a) folds the pass's changed
    valid bits into the output rows (and a kept base), (b) drops the
    packed input-index / stacked-seed caches of every window whose
    inputs the changed values touch, (c) drops the memoized error totals
    of every window whose cone state the commit touched (changed values,
    or any table of the committed window — a new table is a different
    *function* even when it matches the old one on the current samples)
    or whose memoized groups read an output row the commit changed (the
    cached group totals include that row), and
    (d) on a window's *first* commit drops the iteration schedule, which
    had inlined it as plain gates (the committed set only grows, so the
    schedule recompiles at most once per window).
    """

    def __init__(
        self,
        circuit: Circuit,
        windows,
        input_words: np.ndarray,
        n_samples: int,
        chunk_words: Optional[int] = None,
        stats: Optional[RuntimeStats] = None,
        shard_jobs: int = 1,
        exact_outputs: Optional[np.ndarray] = None,
        sanitize: Optional[bool] = None,
        policy=None,
        faults=None,
        cancel=None,
    ) -> None:
        if chunk_words is not None and chunk_words < 1:
            raise SimulationError(
                f"chunk_words must be >= 1, got {chunk_words}"
            )
        self.circuit = circuit
        self.windows = list(windows)
        self.n = n_samples
        self._sanitize = sanitize_enabled(sanitize)
        self._stats = stats if stats is not None else RuntimeStats()
        self._committed: Dict[int, np.ndarray] = {}
        self._graph = quotient_graph(circuit, self.windows)
        self._plan = list(self._graph.steps)
        self._window_by_index = {w.index: w for w in self.windows}
        self._n_words = words_for(n_samples)
        words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
        self.input_words = np.ascontiguousarray(words[:, : self._n_words])
        self._out_nodes_arr = np.array(circuit.output_nodes(), dtype=np.int64)
        # The chunk plan every scan and commit walks.  One chunk keeps
        # its base, the value matrix, for the engine's lifetime.
        self._chunk_words = chunk_words
        self._chunks = plan_chunks(n_samples, chunk_words or self._n_words)
        self._values: Optional[np.ndarray] = None
        if len(self._chunks) == 1:
            self._values = simulate_full(circuit, self.input_words, n_samples)
        if exact_outputs is not None:
            exact = np.atleast_2d(np.asarray(exact_outputs, dtype=np.uint64))
        elif self._values is not None:
            exact = self._values[self._out_nodes_arr]
        else:
            exact = simulate_outputs(
                circuit, self.input_words, chunk_words=chunk_words,
                n_samples=n_samples,
            )
        self._exact_outputs = exact.copy()
        if self._sanitize:
            freeze(self._exact_outputs)
        #: Packed output rows under the committed substitutions.
        self._out_words = self._exact_outputs.copy()
        self._shard_jobs = effective_jobs(shard_jobs)
        self._shard_policy = policy
        self._shard_faults = faults
        self._cancel = cancel
        self._executor = None
        self._executor_ready = False
        self._stats.add("chunk_words", chunk_words or 0)
        if len(self._chunks) > 1:
            self._stats.add("shard_jobs", self._shard_jobs)
        self._idx_cache: Dict[int, np.ndarray] = {}
        self._seed_cache: Dict[int, Tuple] = {}
        # window -> (committed table, its transpose): the lookup layout,
        # built once per committed table object.
        self._table_t_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._touch_cache: Dict[int, frozenset] = {}
        self._iter_sched: Optional[IterationSchedule] = None
        #: window -> (tables, metric, output rows the entries' groups
        #: read, entries); each entry is (dirty rows, {group: total}).
        self._scan_memo: Dict[int, Tuple] = {}
        self._win_input_sets = {
            w.index: frozenset(w.inputs) for w in self.windows
        }
        self._win_input_ids = {
            w.index: np.array(w.inputs, dtype=np.int64) for w in self.windows
        }
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
        # The scan pass's flat scratch, viewed as (n_nodes, blocks, cw):
        # grown on demand, never initialized, dropped by close().
        self._scan_buf: Optional[np.ndarray] = None

    @property
    def exact_outputs(self) -> np.ndarray:
        """Packed outputs of the exact circuit, as a read-only view: the
        array backs every QoR comparison for the evaluator's lifetime."""
        return frozen_view(self._exact_outputs)

    def current_outputs(self) -> np.ndarray:
        """Packed outputs under the committed substitutions."""
        return self._out_words.copy()

    @property
    def committed(self) -> Dict[int, np.ndarray]:
        """Copy of the committed substitution map (index -> table)."""
        return dict(self._committed)

    def close(self) -> None:
        """Drop the scan scratch matrix and shut down the shard worker
        pool, if one was started."""
        self._scan_buf = None
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self._executor_ready = False

    def _cone_touch(self, index: int) -> frozenset:
        """Every node id a sweep of ``index``'s cone can read or write.

        A candidate of the window keeps its dirty rows and their values
        exactly as long as none of these cached values change and no
        in-cone window's table changes.  Independent of the committed set
        (a conservative superset of any specialization's read/write set),
        so it is computed once per window.
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

    # -- input indices and seeds (cached on a kept base) ------------------
    def _chunk_index(self, base: np.ndarray, index: int) -> np.ndarray:
        """Per-pattern table row index of window ``index`` over ``base``.

        Cached on a kept base until a commit changes one of the window's
        inputs; a rebuilt chunk base decodes afresh every time.
        """
        idx = self._idx_cache.get(index)
        if idx is None:
            idx = decode_rows(
                base[self._win_input_ids[index]], base.shape[1] * WORD_BITS
            )
            if base is self._values:
                if self._sanitize:
                    freeze(idx)
                self._idx_cache[index] = idx
        # Shared read-only gather index; every consumer only indexes
        # with it, and sanitize mode freezes the cached array.
        return idx  # contract-ok: cache-copy -- read-only gather index, frozen under sanitize

    def _chunk_seeds(
        self,
        base: np.ndarray,
        index: int,
        checked: Sequence[np.ndarray],
        n_valid: int,
    ) -> np.ndarray:
        """``(len(checked), m, cw)`` seeds of window ``index`` over
        ``base``: all candidate tables through the window's input index
        in one stacked lookup (:func:`stacked_seed_gather`).

        On a kept base, seeds are cached per window: they only change
        when the window's input index is invalidated (an upstream
        commit) or the candidate tables do — a downstream-only
        invalidation reuses them.
        """
        idx = self._chunk_index(base, index)
        cached = self._seed_cache.get(index)
        if (
            cached is not None
            and cached[1] is idx
            and len(cached[0]) == len(checked)
            and all(a is b for a, b in zip(cached[0], checked))
        ):
            # Seeds are consumed read-only by scan passes and frozen
            # under sanitize; copying (n_cand, m, W) per scan would
            # defeat the cache.
            return cached[2]  # contract-ok: cache-copy -- read-only seed stack, frozen under sanitize
        seeds = stacked_seed_gather(checked, idx, n_valid)
        if self._sanitize:
            assert_tail_clean(seeds, n_valid, "stacked candidate seeds")
        if base is self._values:
            if self._sanitize:
                freeze(seeds)
            self._seed_cache[index] = (tuple(checked), idx, seeds)
        return seeds

    # -- the scan pass ---------------------------------------------------
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
        instructions: List[ScheduleInstr] = []
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
                        np.array(w.outputs, dtype=np.int64),
                    )
                )
            else:
                # Not substituted: members evaluate as plain gates and may
                # levelize together with surrounding loose logic (the plan
                # order keeps the concatenation topological).
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

    def _todo(
        self,
        requests: Sequence[Tuple[int, Sequence[np.ndarray]]],
        results: List,
        qor: Optional[QoREvaluator] = None,
    ) -> List[Tuple[int, int, List[np.ndarray], Sequence]]:
        """The requests a scan must sweep, as ``(position, window index,
        checked tables, tables)`` in plan order; requests without
        candidates, or (given ``qor``) answered by the memo, are answered
        in ``results`` instead."""
        todo = []
        for pos, (index, tables) in enumerate(requests):
            memo = (
                None if qor is None else self._memo_errors(index, tables, qor)
            )
            if memo is not None:
                results[pos] = memo
                continue
            w = self._window_by_index[index]
            checked = [w.check_table(t) for t in tables]
            if not checked:
                results[pos] = []
                continue
            todo.append((pos, index, checked, tables))
        todo.sort(key=lambda item: self._plan_rank[item[1]])
        return todo

    # -- the scoring fold ------------------------------------------------
    def scan_errors(
        self,
        requests: Sequence[Tuple[int, Sequence[np.ndarray]]],
        qor: QoREvaluator,
    ) -> List[List[Tuple[float, Tuple[int, ...]]]]:
        """Per request, per candidate: ``(error, dirtied output rows)``.

        Args:
            requests: ``(window index, candidate tables)`` pairs for
                distinct windows (a whole full-strategy iteration, or a
                single window on the lazy path).
            qor: The evaluator that must have been rebased on
                :meth:`current_outputs` (the explorer rebases after every
                commit) — its canonical per-packed-word partials are what
                the accumulated slices splice into.

        Returns:
            Per request, per candidate: the error float, bit-identical to
            ``qor.evaluate`` on the candidate's full outputs and to the
            reference oracle's, and the exact dirty-row set, reported in
            sorted order.

        Memoized requests replay their whole-axis totals; the rest fold
        over the chunk plan (:meth:`_execute_scan`), each chunk's passes
        accumulating per candidate (:meth:`_scan_chunk_into`).
        Accumulators are O(outputs), never O(patterns).
        """
        results: List = [None] * len(requests)
        todo = self._todo(requests, results, qor)
        if not todo:
            return results
        accs = [
            [new_accumulator() for _ in checked]
            for (_, _, checked, _) in todo
        ]
        self._execute_scan(todo, accs, qor)
        for (pos, index, _, tables), acc_list in zip(todo, accs):
            entries = [
                (
                    tuple(sorted(acc["rows"])),
                    {
                        g: qor.splice_partials(g, slices)
                        for g, slices in acc["slices"].items()
                    },
                )
                for acc in acc_list
            ]
            self._stats.add("n_preview_sweeps", len(entries))
            results[pos] = [
                (qor.evaluate_spliced(sums), rows) for rows, sums in entries
            ]
            reads = frozenset(
                row
                for _, sums in entries
                for g in sums
                for row in qor.group_rows(g)
            )
            self._scan_memo[index] = (
                tuple(tables), qor.spec.metric, reads, entries,
            )
        return results

    def _memo_errors(
        self, index: int, tables: Sequence[np.ndarray], qor: QoREvaluator
    ) -> Optional[List[Tuple[float, Tuple[int, ...]]]]:
        """Replay a memoized scan of ``index`` if it is still valid.

        Entries are whole-axis totals for the candidate's dirty groups
        only; clean groups read the *current* rebased base sums at
        replay, so an unrelated commit + rebase still yields the exact
        float a fresh scan would produce.  :meth:`commit` drops every
        entry that stops being exact.
        The tables tuple keeps the candidate arrays alive, so identity
        (``is``) checks cannot collide with recycled ids.
        """
        cached = self._scan_memo.get(index)
        if (
            cached is None
            or cached[1] != qor.spec.metric
            or len(cached[0]) != len(tables)
            or not all(a is b for a, b in zip(cached[0], tables))
        ):
            return None
        entries = cached[3]
        self._stats.add("n_preview_cache_hits", len(entries))
        return [(qor.evaluate_spliced(sums), rows) for rows, sums in entries]

    def _execute_scan(
        self,
        todo: Sequence[Tuple[int, int, List[np.ndarray], Sequence]],
        accs: Sequence[Sequence[dict]],
        qor: QoREvaluator,
    ) -> None:
        """Fold every chunk of the plan into ``accs``, in order: across
        shard workers when an executor is up, else in-process — the
        parent *is* a shard worker for the full chunk range.  The cancel
        token is checked before every in-process chunk: a scan mutates
        no committed state, so abandoning it leaves the evaluator
        checkpointable."""
        executor = self._shard_executor()
        if executor is not None:
            requests = tuple(
                (index, tuple(checked)) for (_, index, checked, _) in todo
            )
            committed = tuple(self._committed.items())
            shards = [
                ScanShard(
                    chunks=chs,
                    requests=requests,
                    committed=committed,
                    metric=qor.spec.metric,
                )
                for chs in plan_shards(self._chunks, executor.jobs)
            ]
            # Deterministic shard-order merge of the accumulators and of
            # everything the workers recorded.
            for outcome in executor.run(shards, cancel=self._cancel):
                for acc_list, adds in zip(accs, outcome.accumulators):
                    for acc, add in zip(acc_list, adds):
                        merge_accumulator(acc, add)
                self._stats.merge(outcome.stats)
            self._stats.add("n_shard_tasks", len(shards))
            return
        if len(self._chunks) > 1:
            self._stats.add("n_shard_tasks")
        for chunk in self._chunks:
            if self._cancel is not None:
                self._cancel.check()
            self._scan_chunk_into(chunk, todo, accs, qor)

    def _scan_chunk_into(
        self,
        chunk,
        todo: Sequence[Tuple[int, int, List[np.ndarray], Sequence]],
        accs: Sequence[Sequence[dict]],
        qor: QoREvaluator,
    ) -> None:
        """One chunk's scan passes, folded into the accumulators.

        ``accs`` entries are the mergeable accumulators of
        :func:`repro.runtime.executor.new_accumulator`.  Each candidate's
        dirty rows go through ``qor``'s :meth:`~repro.core.qor.
        QoREvaluator.chunk_scorer`, which yields the partial slices of
        the groups those rows feed.  Only ``qor``'s pattern-independent
        state and the chunk's base rows are read, so the same code runs
        in the parent and in shard workers.
        """
        base = self._chunk_base(chunk)
        score = qor.chunk_scorer(
            base[self._out_nodes_arr], chunk.start, chunk.n_valid
        )
        for owners, outs, dirty in self._chunk_passes(chunk, base, todo):
            for (t, c), out, mask in zip(owners, outs, dirty):
                rows = np.flatnonzero(mask).tolist()
                if not rows:
                    continue
                acc = accs[t][c]
                acc["rows"].update(rows)
                for g, part in score(rows, out[rows]):
                    acc["slices"].setdefault(g, []).append(
                        (chunk.start, chunk.stop, part)
                    )

    def _chunk_passes(
        self,
        chunk,
        base: np.ndarray,
        todo: Sequence[Tuple[int, int, List[np.ndarray], Sequence]],
    ):
        """The stacked scan passes of ``todo`` over one chunk's ``base``.

        Yields, per pass, each block's ``(todo position, candidate)``
        owner, a ``(blocks, outputs, cw)`` copy of the blocks' outputs,
        and the ``(blocks, outputs)`` mask of rows whose valid bits differ
        from ``base``'s.  Passes hold at most :meth:`_pass_cap` blocks, a
        window's candidates spilling into the next pass where one fills
        up; a window's seeds are gathered when its first pass needs them
        and dropped after its last.
        """
        sizes = [len(checked) for _, _, checked, _ in todo]
        seeds: Dict[int, np.ndarray] = {}
        base_out = base[self._out_nodes_arr]
        tail = tail_mask(chunk.n_valid)
        for segments in pack_passes(sizes, self._pass_cap(chunk.n_words)):
            for t, _, _ in segments:
                if t not in seeds:
                    _, index, checked, _ = todo[t]
                    seeds[t] = self._chunk_seeds(
                        base, index, checked, chunk.n_valid
                    )
            buf, _ = self._run_scan_chunk(
                [(todo[t][1], seeds[t][c0:c1]) for t, c0, c1 in segments],
                base,
                chunk.n_valid,
            )
            outs = buf[self._out_nodes_arr].transpose(1, 0, 2).copy()
            x = outs ^ base_out
            x[..., -1] &= tail
            self._note_pass(base, outs.shape[0])
            yield (
                [(t, c) for t, c0, c1 in segments for c in range(c0, c1)],
                outs,
                x.any(axis=2),
            )
            last, _, end = segments[-1]
            seeds = {last: seeds[last]} if end < sizes[last] else {}

    # -- chunk bases, pass caps and the working-set gauge ----------------
    def _chunk_base(self, chunk) -> np.ndarray:
        """The committed values a chunk's passes sweep against: the kept
        value matrix of a one-chunk plan, else the chunk's base rebuilt
        from scratch.

        A rebuild executes the whole-plan iteration schedule (committed
        windows as table gathers, everything else as levelized gate
        batches) on the chunk's input slice.  Valid bits equal the kept
        matrix's word for word; gate tails may differ, which the
        tail-bit invariant permits.
        """
        if self._values is not None:
            return self._values
        cw = chunk.n_words
        circuit = self.circuit
        prog = circuit_program(circuit)
        sched = self._iteration_schedule()
        values = np.zeros((circuit.n_nodes, cw), dtype=np.uint64)
        if prog.input_ids.size:
            values[prog.input_ids] = self.input_words[
                :, chunk.start : chunk.stop
            ]
        if prog.const1_ids.size:
            values[prog.const1_ids] = _FULL_WORD
        for instr in sched.instructions:
            if isinstance(instr, WindowInstr):
                values[instr.out_ids] = gather_window_outputs(
                    self._table_t(instr.index),
                    values[instr.in_ids],
                    chunk.n_valid,
                )
            else:
                values[instr.out] = execute_batch(instr, values, chunk.n_valid)
        self._stats.add("n_chunk_passes")
        return values

    def _pass_cap(self, cw: int) -> int:
        """Blocks per pass over a ``cw``-word chunk: ``chunk_words //
        cw``, so base plus scratch stay within ``2 × n_nodes ×
        chunk_words`` words, and never above :data:`MAX_SCAN_BLOCKS`."""
        if self._chunk_words is None:
            return MAX_SCAN_BLOCKS
        return min(MAX_SCAN_BLOCKS, max(1, self._chunk_words // cw))

    def _note_pass(self, base: np.ndarray, n_blocks: int) -> None:
        """Record one pass's sample-matrix bytes (the chunk's base state
        plus the scan scratch) and its stacked candidate blocks."""
        self._stats.add(
            "peak_sample_matrix_bytes", base.nbytes + self._scan_buf.nbytes
        )
        self._stats.add("n_stacked_blocks", n_blocks)

    def _scan_scratch(self, n_blocks: int, cw: int) -> np.ndarray:
        """The ``(n_nodes, n_blocks, cw)`` scan scratch, a view of one
        flat buffer grown to hold it.  Never initialized: a pass writes
        every entry it reads (under the sanitizer it is poisoned
        first)."""
        size = self.circuit.n_nodes * n_blocks * cw
        buf = self._scan_buf
        if buf is None or buf.size < size:
            # Release the outgrown buffer before allocating its successor.
            self._scan_buf = buf = None
            buf = np.empty(size, dtype=np.uint64)
            self._scan_buf = buf
        view = buf[:size].reshape(self.circuit.n_nodes, n_blocks, cw)
        if self._sanitize:
            view.fill(_SCRATCH_POISON)
        return view

    def _run_scan_chunk(
        self,
        chunk: Sequence[Tuple[int, np.ndarray]],
        base: np.ndarray,
        n_valid: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One stacked pass of the iteration schedule over ``base``.

        Args:
            chunk: ``(window index, seeds)`` pairs of distinct windows in
                plan order; ``seeds`` is ``(B, m, cw)``, one block per
                candidate, its rows the window's outputs.
            base: The ``(n_nodes, cw)`` committed values the candidates
                are swept against — the resident value matrix, or one
                chunk of streamed base state.
            n_valid: Valid patterns in ``base`` (sets the tail mask).

        Returns:
            The ``(n_nodes, blocks, cw)`` scratch after the pass, and the
            per-instruction mask of instructions that ran.

        Each instruction runs on its active block range ``[lo, hi)``:
        the hull of the blocks whose window's cone it touches.  Each row
        is *needed* over the hull of its readers' ranges (every block for
        a primary output); wherever a row is needed but not computed, it
        is copied from ``base`` before the walk.  So every entry the
        pass reads is written first, and the scratch carries nothing over
        from earlier passes.
        """
        cw = base.shape[1]
        tail = tail_mask(n_valid)
        sched = self._iteration_schedule()
        n_nodes = self.circuit.n_nodes
        # Block range of each request, and the seed rows to scatter right
        # after the instruction producing each root output.
        ranks = np.array(
            [self._plan_rank[index] for index, _ in chunk], dtype=np.int64
        )
        sizes = np.array(
            [seeds.shape[0] for _, seeds in chunk], dtype=np.int64
        )
        ends = np.cumsum(sizes)
        starts = ends - sizes
        n_blocks = int(ends[-1])
        buf = self._scan_scratch(n_blocks, cw)
        flat = buf.reshape(n_nodes, -1)
        scatter: Dict[int, List[Tuple[int, int, int, np.ndarray]]] = {}
        for (index, seeds), b0, b1 in zip(
            chunk, starts.tolist(), ends.tolist()
        ):
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
        _fill_from(
            buf,
            base,
            np.concatenate([need_lo, np.maximum(need_lo, comp_hi)]),
            np.concatenate([np.minimum(need_hi, comp_lo), need_hi]),
        )
        self._stats.add("n_sweep_units", sched.n_units)
        self._stats.add(
            "n_scan_gate_words",
            int(sched.gate_rows @ np.maximum(hi - lo, 0)) * cw,
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
                    buf[instr.in_ids, l:h], base[instr.in_ids], tail
                )
                if dirty.size:
                    _gather_blocks(
                        self._table_t(instr.index), flat,
                        instr.in_ids, instr.out_ids, dirty + l, cw, tail,
                    )
            elif l < h:
                flat[instr.out, l * cw : h * cw] = execute_batch(
                    instr, flat[:, l * cw : h * cw], None
                )
            for gid, b0, b1, seed_rows in scatter.get(pos, ()):
                buf[gid, b0:b1] = seed_rows
        return buf, lo < hi

    def _commit_pass(
        self, index: int, seed: np.ndarray, base: np.ndarray, n_valid: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sweep a commit's ``(m, cw)`` seed as a one-block pass on the
        current (pre-commit) schedule.

        Returns the sorted ids of the rows the pass wrote whose valid
        bits differ from ``base``, and those rows.  The pass writes the
        window's outputs and every row of each instruction that ran;
        rows it only filled from ``base`` cannot differ.
        """
        buf, ran = self._run_scan_chunk([(index, seed[None])], base, n_valid)
        producer = self._iter_sched.producer_of
        ids = np.union1d(
            np.flatnonzero(np.append(ran, False)[producer]),
            self._window_by_index[index].outputs,
        )
        rows = buf[ids, 0]
        x = rows ^ base[ids]
        x[:, -1] &= tail_mask(n_valid)
        changed = x.any(axis=1)
        return ids[changed], rows[changed]

    def commit(self, index: int, table: np.ndarray) -> None:
        """Permanently substitute window ``index`` with ``table``.

        Runs the commit's one-block pass against the *old* committed
        state and writes the changed rows back (:meth:`_commit_values`),
        then invalidates exactly what the commit touched: memoized scans
        whose cone state or read output rows it changed (a recommit
        of the same window always invalidates its own memo — a new table
        is a different function even when it matches the old one on the
        current samples), and the schedule that had the window inlined
        (first commit only).
        """
        w = self._window_by_index[index]
        table = w.check_table(table)
        first_commit = index not in self._committed
        changed_nodes, changed_rows = self._commit_values(index, table)
        self._committed[index] = table
        invalid = changed_nodes | set(w.members) | set(w.outputs)
        for widx in list(self._scan_memo):
            if self._cone_touch(widx) & invalid or (
                self._scan_memo[widx][2] & changed_rows
            ):
                del self._scan_memo[widx]
        if first_commit:
            # The schedule inlined this window as plain gates; it now
            # evaluates through a table.  Recompile lazily — the
            # committed set only grows, so at most once per window.
            self._iter_sched = None

    def _commit_values(self, index: int, table: np.ndarray):
        """Sweep a commit chunk by chunk against the *old* committed
        state and write its changed rows into the output rows (and into
        a kept base); returns the changed node ids and output rows.

        Also drops the cached input index of every window whose inputs
        changed, and keeps the new table's transpose for later gathers.
        """
        table_t = table_transpose(table)
        if self._sanitize:
            freeze(table_t)
        changed_nodes: set = set()
        changed_rows: set = set()
        for chunk in self._chunks:
            base = self._chunk_base(chunk)
            seed = lookup_packed(table_t, self._chunk_index(base, index))
            mask_tail_words(seed, chunk.n_valid)
            if self._sanitize:
                assert_tail_clean(seed, chunk.n_valid, "commit seed")
            ids, rows = self._commit_pass(index, seed, base, chunk.n_valid)
            self._note_pass(base, 0)
            if base is self._values:
                base[ids] = rows
            nids = ids.tolist()
            changed_nodes.update(nids)
            for pos, nid in enumerate(nids):
                for row in self._out_rows_by_nid.get(nid, ()):
                    self._out_words[row, chunk.start : chunk.stop] = rows[pos]
                    changed_rows.add(row)
        self._table_t_cache[index] = (table, table_t)
        if changed_nodes:
            # Any cached input index built from a changed node is stale.
            for widx in list(self._idx_cache):
                if self._win_input_sets[widx] & changed_nodes:
                    del self._idx_cache[widx]
        return changed_nodes, changed_rows

    # -- shard workers ------------------------------------------------------
    def _shard_executor(self):
        """The scan executor, built lazily on first use (``None`` when
        in-process execution is in effect: one job, a single chunk, or a
        platform without process pools)."""
        if self._executor_ready:
            return self._executor
        self._executor_ready = True
        if self._shard_jobs > 1 and len(self._chunks) > 1:
            context = StreamContext(
                circuit=self.circuit,
                windows=tuple(self.windows),
                input_words=self.input_words,
                n_samples=self.n,
                chunk_words=self._chunk_words,
                exact_outputs=self._exact_outputs,
                sanitize=self._sanitize,
            )
            self._executor = make_shard_executor(
                context,
                self._shard_jobs,
                policy=self._shard_policy,
                faults=self._shard_faults,
                stats=self._stats,
            )
        return self._executor

    def _sync_scan_state(self, committed: Dict[int, np.ndarray]) -> None:
        """Adopt a parent's committed state (shard-worker entry).

        Mirrors :meth:`commit`'s invalidation without replaying the
        commit passes: newly committed windows drop the iteration
        schedule, which had inlined them.  Each worker serves one parent
        evaluator, whose committed set only grows, and its plan has more
        than one chunk, so it keeps no base to update.
        """
        newly = [k for k in committed if k not in self._committed]
        changed = newly or any(
            not np.array_equal(committed[k], self._committed[k])
            for k in self._committed
        )
        if changed:
            self._committed = {k: v for k, v in committed.items()}
        if newly:
            self._iter_sched = None
