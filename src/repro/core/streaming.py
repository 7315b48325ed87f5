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

Per chunk, a scan (a) rebuilds the committed base state for the chunk's
input slice (one base pass per chunk per scan or commit), (b) gathers
every requested window's candidate seeds through per-chunk input-index /
stacked-seed caches shared across that window's candidates, (c) sweeps
the candidates through the resident engine's cone-sparse scan pass
(:meth:`~repro.core.engine.CompiledEvaluator._run_scan_chunk`) against
the chunk's base state, stacked along the word axis at
``chunk_words // cw`` blocks per pass so base plus scratch stay inside
the chunk budget, and (d) folds the dirtied output rows into
per-candidate accumulators — canonical per-packed-word partial slices
for value metrics, exact integer mismatch deltas for hamming.  Step (d)
decodes the chunk's committed word integers (or counts its committed
mismatches) once and shares them across the chunk's candidates; each
candidate patches in only its dirty rows
(:meth:`~repro.core.qor.QoREvaluator.patched_word_ints`).  Nothing
pattern-sized survives the chunk.

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

Memoization across iterations stores, per candidate, only the dirty row
set and the affected per-output-word *totals* (floats / integer counts)
— valid exactly while no commit touches the window's cone or any output
row sharing an output word with the candidate's dirty rows, which is
what :meth:`StreamingEvaluator.commit` invalidates on (memo keys
therefore survive chunk boundaries by construction: totals are
whole-axis reductions, never per-chunk state).
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
    pack_passes,
    circuit_program,
    execute_batch,
    gather_window_outputs,
    stacked_seed_gather,
)
from .qor import QoREvaluator, QoRSpec, circuit_words

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
            recorded in ``stats.peak_sample_matrix_bytes``.
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
    candidate.  Use :meth:`scan_errors`, which folds QoR accumulation
    into the chunk loop and returns per-candidate error floats that are
    bit-identical to the resident engine's
    ``evaluate_delta(preview...)`` path.
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
        # Output row -> positions of the output words containing it (the
        # same mapping QoREvaluator builds; used for memo invalidation).
        self._row_word_positions: List[Tuple[int, ...]] = [
            tuple(
                pos
                for pos, w in enumerate(circuit_words(circuit))
                if row in w.indices
            )
            for row in range(circuit.n_outputs)
        ]
        #: window -> (tables, metric, affected word positions, entries);
        #: each entry is (dirty rows, {word pos: total} | {row: count}).
        self._stream_memo: Dict[int, Tuple] = {}
        if stats is not None:
            stats.chunk_words = self._chunk_words
            stats.shard_jobs = self._shard_jobs

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
        if self._stats is not None:
            chunk = min(self._chunk_words, self._n_words)
            self._stats.note_sample_matrix(
                self.circuit.n_nodes * chunk * 8
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
        if self._stats is not None:
            self._stats.n_chunk_passes += 1
            self._stats.note_sample_matrix(values.nbytes)
        return values

    def _note_pass(self, base: np.ndarray) -> None:
        """Record one pass's sample-matrix bytes: the chunk's base state
        plus the scan scratch."""
        if self._stats is not None:
            self._stats.note_sample_matrix(base.nbytes + self._scan_buf.nbytes)

    # -- the shard task body -------------------------------------------
    def _scan_chunk_into(
        self,
        chunk,
        todo: Sequence[Tuple[int, int, List[np.ndarray], Sequence]],
        accs: Sequence[Sequence[dict]],
        hamming: bool,
        qor: QoREvaluator,
    ) -> None:
        """One chunk's full scan work, folded into the accumulators.

        This is the self-contained unit a shard task executes: base
        state, per-window seed gathers, scan passes against the base, and
        per-candidate accumulation — ``accs`` entries are the
        mergeable accumulators of :func:`repro.runtime.executor.
        new_accumulator`.  Only ``qor``'s pattern-independent state is
        read (exact word integers, relative denominators, word specs), so
        the same code runs in the parent and in shard workers.
        """
        base = self._compute_base(chunk)
        base_out = base[self._out_nodes_arr]
        cw = chunk.n_words
        # The chunk's committed word integers (value metrics) or per-row
        # mismatch counts (hamming), computed once and shared by every
        # candidate of the chunk: a candidate only patches its dirty rows.
        base_ints: Dict[int, np.ndarray] = {}
        base_ham = (
            qor.row_hamming(base_out, None, chunk.start, chunk.n_valid)
            if hamming
            else None
        )
        # Base plus scratch stay within the 2 x n_nodes x chunk_words
        # word budget: the scratch holds chunk_words // cw blocks.
        cap = min(MAX_SCAN_BLOCKS, max(1, self._chunk_words // cw))
        sizes = [len(checked) for _, _, checked, _ in todo]
        # Seeds are gathered when a window's first pass needs them and
        # dropped after its last, so only the windows of one pass hold
        # seeds at a time.
        seeds: Dict[int, np.ndarray] = {}
        for segments in pack_passes(sizes, cap):
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
            self._note_pass(base)
            outs, neq = self._block_outputs(buf, base, chunk.n_valid)
            if self._stats is not None:
                self._stats.n_stacked_blocks += outs.shape[0]
            owners = [(t, c) for t, c0, c1 in segments for c in range(c0, c1)]
            for (t, c), out, dirty in zip(owners, outs, neq):
                rows = np.flatnonzero(dirty).tolist()
                if not rows:
                    continue
                acc = accs[t][c]
                acc["rows"].update(rows)
                new_words = out[rows]
                if hamming:
                    cand = qor.row_hamming(
                        new_words, rows, chunk.start, chunk.n_valid
                    )
                    for row, d in zip(rows, (cand - base_ham[rows]).tolist()):
                        acc["deltas"][row] = acc["deltas"].get(row, 0) + d
                    continue
                old_words = base_out[rows]
                for wpos in qor.word_positions(rows):
                    ints = base_ints.get(wpos)
                    if ints is None:
                        ints = qor.word_ints(wpos, base_out, chunk.n_valid)
                        base_ints[wpos] = ints
                    approx = qor.patched_word_ints(
                        wpos, ints, rows, new_words, old_words
                    )
                    acc["slices"].setdefault(wpos, []).append(
                        (
                            chunk.start,
                            chunk.stop,
                            qor.ints_partials(wpos, approx, chunk.start),
                        )
                    )
            last, _, end = segments[-1]
            seeds = {last: seeds[last]} if end < sizes[last] else {}

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
            self._stream_memo.clear()
        if newly:
            self._iter_sched = None

    # -- memoized error replay -----------------------------------------
    def _memo_errors(
        self, index: int, tables: Sequence[np.ndarray], qor: QoREvaluator
    ) -> Optional[List[Tuple[float, Tuple[int, ...]]]]:
        """Replay a cached scan if the window's cone state is unchanged.

        Cached payloads are whole-axis totals (per-output-word floats /
        per-row integer counts) for the candidate's dirty words only;
        clean words read the *current* rebased base sums at replay, so an
        unrelated commit + rebase still yields the exact float a fresh
        chunked scan would produce.
        """
        cached = self._stream_memo.get(index)
        if (
            cached is None
            or cached[1] != qor.spec.metric
            or len(cached[0]) != len(tables)
            or not all(a is b for a, b in zip(cached[0], tables))
        ):
            return None
        entries = cached[3]
        if self._stats is not None:
            self._stats.n_preview_cache_hits += len(entries)
        hamming = qor.spec.metric == "hamming"
        out = []
        for rows, payload in entries:
            err = (
                qor.evaluate_spliced_hamming(payload)
                if hamming
                else qor.evaluate_spliced(payload)
            )
            out.append((err, rows))
        return out

    # -- public API -----------------------------------------------------
    def scan_errors(
        self,
        requests: Sequence[Tuple[int, Sequence[np.ndarray]]],
        qor: QoREvaluator,
    ) -> List[List[Tuple[float, Tuple[int, ...]]]]:
        """Chunked candidate scan returning QoR errors directly.

        Args:
            requests: ``(window index, candidate tables)`` pairs for
                distinct windows (a whole full-strategy iteration, or a
                single window on the lazy path).
            qor: The evaluator that must have been rebased on
                :meth:`current_outputs` (the explorer rebases after every
                commit) — its canonical per-packed-word partials are what
                the chunk accumulation splices into.

        Returns:
            Per request, per candidate: ``(error, dirty output rows)``.
            The error float is bit-identical to the resident engine's
            ``qor.evaluate_delta(preview_batch_delta(...))`` for the
            same candidate; the dirty-row set is exact and identical,
            reported in sorted order.

        Execution: non-memoized requests run over the chunk plan — fanned
        across shard workers when the executor is active, in-process
        otherwise — and the per-shard accumulators merge in shard order
        (byte-identical either way; see the module docstring).  Memory
        per process: one chunk of base state plus the scan scratch;
        accumulators are O(outputs), never O(patterns).
        """
        hamming = qor.spec.metric == "hamming"
        results: List = [None] * len(requests)
        todo: List[Tuple[int, int, List[np.ndarray], Sequence]] = []
        for pos, (index, tables) in enumerate(requests):
            memo = self._memo_errors(index, tables, qor)
            if memo is not None:
                results[pos] = memo
                continue
            w = self._window_by_index[index]
            checked = [self._check_table(w, t) for t in tables]
            if not checked:
                results[pos] = []
                continue
            todo.append((pos, index, checked, tables))
        if not todo:
            return results

        accs = [
            [new_accumulator() for _ in checked]
            for (_, _, checked, _) in todo
        ]
        self._execute_scan(todo, accs, hamming, qor)

        for (pos, index, checked, tables), acc_list in zip(todo, accs):
            per_window: List[Tuple[float, Tuple[int, ...]]] = []
            entries = []
            for acc in acc_list:
                if self._stats is not None:
                    self._stats.n_preview_sweeps += 1
                rows = tuple(sorted(acc["rows"]))
                if hamming:
                    base_tot = qor.base_row_hamming()
                    payload = {
                        row: int(base_tot[row]) + d
                        for row, d in acc["deltas"].items()
                    }
                    err = qor.evaluate_spliced_hamming(payload)
                else:
                    payload = {
                        wpos: qor.splice_partials(wpos, slices)
                        for wpos, slices in acc["slices"].items()
                    }
                    err = qor.evaluate_spliced(payload)
                per_window.append((err, rows))
                entries.append((rows, payload))
            results[pos] = per_window
            affected = frozenset(
                wpos
                for rows, _ in entries
                for row in rows
                for wpos in self._row_word_positions[row]
            )
            self._stream_memo[index] = (
                tuple(tables), qor.spec.metric, affected, entries,
            )
        return results

    def _execute_scan(
        self,
        todo: Sequence[Tuple[int, int, List[np.ndarray], Sequence]],
        accs: Sequence[Sequence[dict]],
        hamming: bool,
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
                    self._merge_outcomes(accs, outcomes, len(shards))
                    return
                # Pool broke: latch the failure so later scans go
                # straight to the serial loop instead of re-submitting
                # to a dead pool (and re-warning) every iteration.
                executor.close()
                self._executor = None
        if self._stats is not None:
            self._stats.n_shard_tasks += 1
        for chunk in self._chunks:
            if self._cancel is not None:
                # A scan mutates no committed state, so abandoning it at
                # a chunk boundary leaves the evaluator checkpointable.
                self._cancel.check()
            self._scan_chunk_into(chunk, todo, accs, hamming, qor)

    def _merge_outcomes(
        self,
        accs: Sequence[Sequence[dict]],
        outcomes: Sequence[ShardOutcome],
        n_shards: int,
    ) -> None:
        """Deterministic shard-order merge of returned accumulators."""
        stats = self._stats
        for outcome in outcomes:
            for acc_list, add_list in zip(accs, outcome.accumulators):
                for acc, add in zip(acc_list, add_list):
                    merge_accumulator(acc, add)
            if stats is not None:
                stats.n_chunk_passes += outcome.n_chunk_passes
                stats.n_sweep_units += outcome.n_sweep_units
                stats.n_stacked_blocks += outcome.n_stacked_blocks
                stats.note_sample_matrix(outcome.peak_bytes)
        if stats is not None:
            stats.n_shard_tasks += n_shards

    def commit(self, index: int, table: np.ndarray) -> None:
        """Permanently substitute window ``index``, chunk by chunk.

        Runs the commit's one-block pass chunk by chunk against the *old*
        committed state, folds dirtied output rows into the resident
        output matrix, then invalidates exactly what the commit touched:
        the schedule that had the window inlined (first commit only),
        memoized scans whose cone state or affected output words
        the commit changed (a recommit of the same window always
        invalidates its own memo — a new table is a different function
        even when it matches the old one on the current samples).
        """
        w = self._window_by_index[index]
        table = self._check_table(w, table)
        first_commit = index not in self._committed
        changed_nodes: set = set()
        changed_rows: set = set()
        for chunk in self._chunks:
            base = self._compute_base(chunk)
            seed = self._chunk_seeds(base, index, [table], chunk.n_valid)[0]
            ids, rows = self._commit_pass(index, seed, base, chunk.n_valid)
            self._note_pass(base)
            for nid, vals in zip(ids.tolist(), rows):
                changed_nodes.add(nid)
                for row in self._out_rows_by_nid.get(nid, ()):
                    self._out_words[row, chunk.start : chunk.stop] = vals
                    changed_rows.add(row)
        self._committed[index] = table
        invalid_nodes = changed_nodes | set(w.members) | set(w.outputs)
        changed_words = {
            wpos
            # contract-ok: set-iteration -- commutative set-into-set union
            for row in changed_rows
            for wpos in self._row_word_positions[row]
        }
        for widx in list(self._stream_memo):
            _, _, affected, _ = self._stream_memo[widx]
            if self._cone_touch(widx) & invalid_nodes or (
                affected & changed_words
            ):
                del self._stream_memo[widx]
        if first_commit:
            # The schedule inlined this window as plain gates; recompile
            # lazily, as the resident engine does.
            self._iter_sched = None


class ShardWorker:
    """Per-process execution state behind the shard executor.

    Built once per worker from a pickled
    :class:`~repro.runtime.executor.StreamContext` (pool initializer);
    holds a full :class:`StreamingEvaluator` — compiled schedule, scan
    scratch — plus per-metric :class:`~repro.core.qor.QoREvaluator`\\ s,
    all of which persist across tasks so repeat scans amortize
    compilation.  Each task syncs the parent's committed state and
    runs :meth:`StreamingEvaluator._scan_chunk_into` over its chunk
    range — literally the same code path the serial engine runs, which
    is what makes sharded outcomes byte-identical to serial streaming.
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
        hamming = shard.metric == "hamming"
        todo = []
        for pos, (index, tables) in enumerate(shard.requests):
            w = ev._window_by_index[index]
            checked = [ev._check_table(w, t) for t in tables]
            todo.append((pos, index, checked, tables))
        accs = [
            [new_accumulator() for _ in checked]
            for (_, _, checked, _) in todo
        ]
        stats = self.stats
        before = (
            stats.n_chunk_passes,
            stats.n_sweep_units,
            stats.n_stacked_blocks,
        )
        for chunk in shard.chunks:
            ev._scan_chunk_into(chunk, todo, accs, hamming, qor)
        return ShardOutcome(
            accumulators=accs,
            n_chunk_passes=stats.n_chunk_passes - before[0],
            n_sweep_units=stats.n_sweep_units - before[1],
            n_stacked_blocks=stats.n_stacked_blocks - before[2],
            peak_bytes=stats.peak_sample_matrix_bytes,
        )
