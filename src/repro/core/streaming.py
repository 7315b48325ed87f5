"""Streaming (chunked) exploration engine: million-pattern sweeps in
bounded memory, shardable across worker processes.

The resident engines hold the whole sample set in one
``(n_nodes, words_for(n))`` value matrix; at the paper's 10^6
Monte-Carlo patterns that is GB-scale for large circuits.
:class:`StreamingEvaluator` runs the same compiled scan passes *chunk
by chunk* over the pattern axis instead
(:func:`repro.circuit.simulate.plan_chunks` — the same word-aligned
chunking discipline :func:`~repro.circuit.simulate.simulate_outputs`
uses, tail-mask clamp included), so peak sample-matrix memory is bounded
by ``chunk_words × program width`` rather than
``total_words × program width``.

What stays resident (all independent of the node count):

* the packed input stimulus, ``(n_inputs, W)``;
* the exact and committed packed *output* rows, ``(n_outputs, W)`` each
  (what :meth:`exact_outputs` / :meth:`current_outputs` serve, and what
  :meth:`repro.core.qor.QoREvaluator.rebase` consumes);
* the committed window tables and the compiled schedule (pattern-free).

Scoring is the compiled engine's one fold
(:meth:`~repro.core.engine.CompiledEvaluator.scan_errors`, memo and
commit invalidation included), of which resident execution is the
one-chunk case; this engine supplies only what differs.  Per chunk, a
scan (a) rebuilds the committed base state for the chunk's input slice
(one base pass per chunk per scan or commit), (b) gathers each requested
window's candidate seeds from that base, one input decode per window,
(c) sweeps the candidates through the cone-sparse scan pass
(:meth:`~repro.core.engine.CompiledEvaluator._run_scan_chunk`) against
the chunk's base state, stacked along the word axis at
``chunk_words // cw`` blocks per pass so base plus scratch stay inside
the chunk budget, and (d) folds the dirtied output rows into
per-candidate accumulators — canonical per-packed-word partial slices
for value metrics, exact integer mismatch deltas for hamming
(:meth:`~repro.core.engine.CompiledEvaluator._scan_chunk_into`).
Nothing pattern-sized survives the chunk.

**Sharding** (DESIGN.md "Parallel streaming"): the per-chunk work above
is a pure function of (committed tables, input slice, candidate
tables), so the chunk loop fans out across worker processes through the
pluggable executor layer (:mod:`repro.runtime.executor`).  Contiguous
chunk ranges become picklable :class:`~repro.runtime.executor.ScanShard`
tasks executed by per-process :class:`ShardWorker`\\ s; the returned
accumulators merge in shard order — dirty-row unions, disjoint partial
slices, integer delta sums — so merged results are byte-identical to
serial streaming *by construction*, not by floating-point luck.

Determinism contract (DESIGN.md "Streaming execution"): chunked
execution is byte-identical to resident execution on every trajectory
float.  Three facts compose into that guarantee: bitwise gate/gather
evaluation is per-word, so word-aligned chunking reproduces every valid
bit; the QoR canonical order is *per-packed-word* partials (a partial
depends only on its own 64 samples), so chunk accumulation rebuilds the
identical partials vector; and dirty tracking compares valid bits only,
so per-chunk dirty unions equal the resident dirty sets.  Sharding and
block-stacking change neither: shard boundaries coincide with chunk
boundaries, and a stacked block computes the same per-word bits as a
solo sweep.  The test suite asserts trajectory identity across chunk
sizes *and shard counts* the same way compiled-vs-reference identity is
asserted.

The shared memo stores, per candidate, only the dirty row set and the
affected per-output-word *totals* (floats / integer counts) — whole-axis
reductions, never per-chunk state, so memo keys survive chunk boundaries
by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitize import (
    assert_tail_clean,
    freeze,
)
from ..circuit.netlist import Circuit
from ..circuit.simulate import (
    _FULL_WORD,
    WORD_BITS,
    decode_rows,
    plan_chunks,
    simulate_outputs,
    words_for,
)
from ..errors import SimulationError
from ..runtime import RuntimeStats, effective_jobs
from ..runtime.executor import (
    ScanShard,
    ShardOutcome,
    StreamContext,
    make_shard_executor,
    merge_accumulator,
    new_accumulator,
    plan_shards,
)
from .engine import (
    MAX_SCAN_BLOCKS,
    CompiledEvaluator,
    WindowInstr,
    circuit_program,
    execute_batch,
    gather_window_outputs,
    stacked_seed_gather,
)
from .qor import QoREvaluator, QoRSpec

def auto_chunk_words(
    n_nodes: int,
    budget_bytes: int,
    total_words: int,
    jobs: int = 1,
) -> Optional[int]:
    """Chunk size (packed words) fitting a sample-matrix byte budget.

    The streaming engine's peak sample-matrix working set **per process**
    is one chunk of base state and the scan pass's scratch, which stacks
    at most ``chunk_words // cw`` blocks of a ``cw``-word chunk — at most
    ``2 × 8 × n_nodes`` bytes per chunk word.
    With ``jobs`` shard workers each process holds its own working set
    concurrently, so the budget divides across them::

        chunk_words = budget_bytes // (jobs × 2 × 8 × n_nodes)

    Returns ``None`` when a single-process run's budget already fits the
    resident matrix (``8 × n_nodes × total_words`` bytes): chunking would
    only add per-chunk overhead — and, between 1× and 2× the resident
    size, a *larger* working set — without saving anything.  With
    ``jobs > 1`` the resident fallback is disabled: only the streaming
    engine shards, so a multi-worker request always chunks.
    """
    jobs = max(int(jobs), 1)
    if jobs == 1 and 8 * max(n_nodes, 1) * total_words <= budget_bytes:
        return None
    per_word = 2 * 8 * max(n_nodes, 1) * jobs
    chunk = max(1, int(budget_bytes // per_word))
    if jobs > 1:
        # A generous budget must not collapse the plan below the worker
        # count — a single chunk cannot shard, which would silently drop
        # the explicitly requested parallelism.
        chunk = min(chunk, max(1, -(-total_words // jobs)))
    return chunk


class StreamingEvaluator(CompiledEvaluator):
    """Chunked :class:`CompiledEvaluator`: bounded-memory candidate scans.

    Args:
        circuit / windows / input_words / n_samples / stats: As for
            :class:`CompiledEvaluator`.
        chunk_words: Maximum packed words per pattern-axis chunk (≥ 1).
            Peak sample-matrix memory **per process** is ``≤ 2 × 8 ×
            n_nodes × chunk_words`` bytes (base state + scan scratch),
            recorded in the ``peak_sample_matrix_bytes`` gauge.
        shard_jobs: Worker processes for chunk-sharded scans (``0`` = all
            cores through :func:`repro.runtime.parallel.effective_jobs`,
            ``1`` = in-process execution).  Sharded trajectories are
            byte-identical to serial streaming for any worker count.
        exact_outputs: Precomputed packed exact output rows; skips the
            initial full-axis simulation (the shard-worker fast path —
            workers receive the parent's exact rows in their context).
        cancel: Cooperative :class:`~repro.runtime.cancel.CancelToken`
            checked at chunk and shard-dispatch boundaries; a cancelled
            scan raises before mutating any committed state.

    The resident preview APIs (:meth:`preview`, :meth:`preview_batch`,
    :meth:`preview_batch_delta`, :meth:`preview_scan`) are unavailable —
    they would have to materialize full-width output matrices per
    candidate.  Use the inherited :meth:`scan_errors`, whose fold runs
    over this engine's chunk plan and returns per-candidate error floats
    bit-identical to resident execution.
    """

    def __init__(
        self,
        circuit: Circuit,
        windows,
        input_words: np.ndarray,
        n_samples: int,
        chunk_words: int,
        stats: Optional[RuntimeStats] = None,
        shard_jobs: int = 1,
        exact_outputs: Optional[np.ndarray] = None,
        sanitize: Optional[bool] = None,
        policy=None,
        faults=None,
        cancel=None,
    ) -> None:
        if chunk_words < 1:
            raise SimulationError(
                f"chunk_words must be >= 1, got {chunk_words}"
            )
        self._chunk_words = int(chunk_words)
        self._shard_jobs = effective_jobs(shard_jobs)
        self._executor = None
        self._executor_ready = False
        # Supervision knobs for the shard executor: the retry/timeout
        # policy and the deterministic fault plan (None = defaults / no
        # injection).  Held here because the executor is built lazily.
        self._shard_policy = policy
        self._shard_faults = faults
        # Cooperative cancellation token checked at chunk/dispatch
        # boundaries.
        self._cancel = cancel
        self._precomputed_exact = exact_outputs
        super().__init__(
            circuit, windows, input_words, n_samples, stats=stats,
            sanitize=sanitize,
        )
        self._chunks = [
            c for c in plan_chunks(n_samples, self._chunk_words) if c.n_valid
        ]
        self._out_words = self._exact_outputs.copy()
        self._win_input_ids = {
            w.index: np.array(w.inputs, dtype=np.int64) for w in self.windows
        }
        self._stats.add("chunk_words", self._chunk_words)
        self._stats.add("shard_jobs", self._shard_jobs)

    # -- resident-state override ---------------------------------------
    def _init_values(self, input_words: np.ndarray) -> None:
        """Keep only pattern-axis state that is independent of n_nodes."""
        words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
        self._n_words = words_for(self.n)
        self.input_words = np.ascontiguousarray(words[:, : self._n_words])
        self._values = None  # no resident node-value cache, by design
        if self._precomputed_exact is not None:
            self._exact_outputs = np.atleast_2d(
                np.asarray(self._precomputed_exact, dtype=np.uint64)
            ).copy()
        else:
            self._exact_outputs = simulate_outputs(
                self.circuit,
                self.input_words,
                chunk_words=self._chunk_words,
                n_samples=self.n,
            )
        if self._sanitize:
            freeze(self._exact_outputs)
        chunk = min(self._chunk_words, self._n_words)
        self._stats.add(
            "peak_sample_matrix_bytes", self.circuit.n_nodes * chunk * 8
        )

    def current_outputs(self) -> np.ndarray:
        """Packed outputs under the committed substitutions (resident —
        output rows are O(n_outputs × W), not O(n_nodes × W))."""
        return self._out_words.copy()

    # -- executor lifecycle --------------------------------------------
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

    def close(self) -> None:
        """Shut down the shard worker pool (no-op when in-process)."""
        super().close()
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self._executor_ready = False

    # -- unsupported resident APIs -------------------------------------
    def _no_resident(self, name: str):
        raise SimulationError(
            f"{name} is unavailable on the streaming engine (it would "
            "materialize full-width previews); use scan_errors(...)"
        )

    def preview_batch_delta(self, index, tables):
        self._no_resident("preview_batch_delta")

    def preview_batch(self, index, tables):
        self._no_resident("preview_batch")

    def preview_scan(self, requests):
        self._no_resident("preview_scan")

    # -- chunked base state --------------------------------------------
    def _compute_base(self, chunk) -> np.ndarray:
        """Rebuild one chunk's committed base state from scratch.

        Executes the whole-plan iteration schedule (committed windows as
        table gathers, everything else as levelized gate batches) on the
        chunk's input slice.  Valid bits equal the resident engine's
        cached values word for word; gate tails may differ, which the
        tail-bit invariant permits.
        """
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
        self._stats.add("peak_sample_matrix_bytes", values.nbytes)
        return values

    # -- what this engine supplies to the fold ---------------------------
    def _chunk_base(self, chunk) -> np.ndarray:
        """A scan chunk's base state, rebuilt from scratch.  Checks the
        cancel token first: a scan mutates no committed state, so
        abandoning it at a chunk boundary leaves the evaluator
        checkpointable."""
        if self._cancel is not None:
            self._cancel.check()
        return self._compute_base(chunk)

    def _pass_cap(self, cw: int) -> int:
        """Base plus scratch stay within the ``2 × n_nodes × chunk_words``
        word budget: the scratch holds ``chunk_words // cw`` blocks."""
        return min(MAX_SCAN_BLOCKS, max(1, self._chunk_words // cw))

    def _note_pass(self, base: np.ndarray, n_blocks: int) -> None:
        """Record one pass's sample-matrix bytes (the chunk's base state
        plus the scan scratch) and its stacked candidate blocks."""
        self._stats.add(
            "peak_sample_matrix_bytes", base.nbytes + self._scan_buf.nbytes
        )
        self._stats.add("n_stacked_blocks", n_blocks)

    def _chunk_seeds(
        self,
        base: np.ndarray,
        index: int,
        tables: Sequence[np.ndarray],
        n_valid: int,
    ) -> np.ndarray:
        """``(len(tables), m, cw)`` seeds of window ``index`` over one
        chunk's base state: one input decode, one stacked lookup."""
        idx = decode_rows(
            base[self._win_input_ids[index]], base.shape[1] * WORD_BITS
        )
        seeds = stacked_seed_gather(tables, idx, n_valid)
        if self._sanitize:
            assert_tail_clean(seeds, n_valid, "chunk seeds")
        return seeds

    def _sync_scan_state(self, committed: Dict[int, np.ndarray]) -> None:
        """Adopt a parent's committed state (shard-worker entry).

        Mirrors :meth:`commit`'s invalidation without replaying the
        commit passes: newly committed windows drop the iteration
        schedule, which had inlined them.  Each worker serves one parent
        evaluator, whose committed set only grows.
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

    def _execute_scan(
        self,
        todo: Sequence[Tuple[int, int, List[np.ndarray], Sequence]],
        accs: Sequence[Sequence[dict]],
        qor: QoREvaluator,
    ) -> None:
        """Run the chunk loop for one scan, sharded when possible.

        Falls back to the in-process loop — the parent evaluator *is* a
        shard worker for the full chunk range — whenever the executor is
        absent, the plan collapses to one shard, or the pool breaks.
        """
        executor = self._shard_executor()
        if executor is not None:
            shard_chunks = plan_shards(self._chunks, executor.jobs)
            if len(shard_chunks) > 1:
                requests = tuple(
                    (index, tuple(checked))
                    for (_, index, checked, _) in todo
                )
                committed = tuple(self._committed.items())
                shards = [
                    ScanShard(
                        chunks=chs,
                        requests=requests,
                        committed=committed,
                        metric=qor.spec.metric,
                    )
                    for chs in shard_chunks
                ]
                outcomes = executor.run(shards, cancel=self._cancel)
                if outcomes is not None:
                    # Deterministic shard-order merge of the accumulators
                    # and of everything the workers recorded.
                    for outcome in outcomes:
                        for acc_list, adds in zip(accs, outcome.accumulators):
                            for acc, add in zip(acc_list, adds):
                                merge_accumulator(acc, add)
                        self._stats.merge(outcome.stats)
                    self._stats.add("n_shard_tasks", len(shards))
                    return
                # Pool broke: latch the failure so later scans go
                # straight to the serial loop instead of re-submitting
                # to a dead pool (and re-warning) every iteration.
                executor.close()
                self._executor = None
        self._stats.add("n_shard_tasks")
        super()._execute_scan(todo, accs, qor)

    def _commit_values(self, index: int, table: np.ndarray):
        """Sweep a commit chunk by chunk against the *old* committed
        state and fold the dirtied output rows into the resident output
        matrix; returns the changed node ids and output rows."""
        changed_nodes: set = set()
        changed_rows: set = set()
        for chunk in self._chunks:
            base = self._compute_base(chunk)
            seed = self._chunk_seeds(base, index, [table], chunk.n_valid)[0]
            ids, rows = self._commit_pass(index, seed, base, chunk.n_valid)
            self._note_pass(base, 0)
            for nid, vals in zip(ids.tolist(), rows):
                changed_nodes.add(nid)
                for row in self._out_rows_by_nid.get(nid, ()):
                    self._out_words[row, chunk.start : chunk.stop] = vals
                    changed_rows.add(row)
        return changed_nodes, changed_rows


class ShardWorker:
    """Per-process execution state behind the shard executor.

    Built once per worker from a pickled
    :class:`~repro.runtime.executor.StreamContext` (pool initializer);
    holds a full :class:`StreamingEvaluator` — compiled schedule, scan
    scratch — plus per-metric :class:`~repro.core.qor.QoREvaluator`\\ s,
    all of which persist across tasks so repeat scans amortize
    compilation.  Each task syncs the parent's committed state and
    runs the fold's per-chunk step
    (:meth:`~repro.core.engine.CompiledEvaluator._scan_chunk_into`) over
    its chunk range — literally the same code path the serial engine
    runs, which is what makes sharded outcomes byte-identical to serial
    streaming.
    """

    def __init__(self, context: StreamContext) -> None:
        self.stats = RuntimeStats()
        self.evaluator = StreamingEvaluator(
            context.circuit,
            list(context.windows),
            context.input_words,
            context.n_samples,
            chunk_words=context.chunk_words,
            stats=self.stats,
            shard_jobs=1,
            exact_outputs=context.exact_outputs,
            sanitize=getattr(context, "sanitize", False),
        )
        self._qors: Dict[str, QoREvaluator] = {}

    def _qor(self, metric: str) -> QoREvaluator:
        qor = self._qors.get(metric)
        if qor is None:
            ev = self.evaluator
            qor = QoREvaluator(
                ev.circuit, ev.exact_outputs, ev.n, QoRSpec(metric),
                sanitize=ev._sanitize,
            )
            self._qors[metric] = qor
        return qor

    def run(self, shard: ScanShard) -> ShardOutcome:
        ev = self.evaluator
        ev._sync_scan_state(dict(shard.committed))
        qor = self._qor(shard.metric)
        todo = ev._todo(shard.requests, [None] * len(shard.requests))
        accs = [
            [new_accumulator() for _ in checked]
            for (_, _, checked, _) in todo
        ]
        mark = self.stats.copy()
        for chunk in shard.chunks:
            ev._scan_chunk_into(chunk, todo, accs, qor)
        return ShardOutcome(accs, self.stats.delta(mark))
