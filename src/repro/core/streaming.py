"""Chunk sizing from a memory budget, and the shard worker.

:class:`~repro.core.engine.CompiledEvaluator` runs every scan and commit
over a chunk plan of the pattern axis
(:func:`repro.circuit.simulate.plan_chunks` — the same word-aligned
chunking discipline :func:`~repro.circuit.simulate.simulate_outputs`
uses, tail-mask clamp included).  A one-chunk plan keeps its base, the
``(n_nodes, W)`` value matrix; a plan of several chunks rebuilds each
chunk's base per scan or commit, so peak sample-matrix memory is bounded
by ``chunk_words × program width`` rather than ``total_words × program
width``.  This module sizes that plan from a byte budget
(:func:`auto_chunk_words`) and holds the per-process state that runs a
plan's chunks in shard workers (:class:`ShardWorker`).

**Sharding** (DESIGN.md "Parallel streaming"): the per-chunk work is a
pure function of (committed tables, input slice, candidate tables), so
the chunk loop fans out across worker processes through the process-pool
shard executor (:mod:`repro.runtime.executor`).  Contiguous chunk ranges
become picklable :class:`~repro.runtime.executor.ScanShard` tasks
executed by per-process :class:`ShardWorker`\\ s; the returned
accumulators merge in shard order — dirty-row unions and disjoint
partial slices, the same two components for every metric — so merged
results are byte-identical to in-process execution *by construction*,
not by floating-point luck.

Determinism contract (DESIGN.md "Streaming execution"): every chunk plan
is byte-identical to the one-chunk plan on every trajectory float.
Three facts compose into that guarantee: bitwise gate/gather evaluation
is per-word, so word-aligned chunking reproduces every valid bit; the
QoR canonical order is *per-packed-word* partials of each scored group
(a partial depends only on its own 64 samples), so chunk accumulation
rebuilds the identical partials vector; and dirty tracking compares
valid bits only, so per-chunk dirty unions equal the whole-axis dirty
sets.  Sharding and
block-stacking change neither: shard boundaries coincide with chunk
boundaries, and a stacked block computes the same per-word bits as a
solo sweep.
"""

from __future__ import annotations

from typing import Dict

from ..runtime import RuntimeStats
from ..runtime.executor import (
    ScanShard,
    ShardOutcome,
    StreamContext,
    new_accumulator,
)
from .engine import CompiledEvaluator
from .qor import QoREvaluator, QoRSpec


def auto_chunk_words(
    n_nodes: int,
    budget_bytes: int,
    total_words: int,
    jobs: int = 1,
) -> int:
    """Chunk size (packed words) fitting a sample-matrix byte budget.

    The engine's peak sample-matrix working set **per process** is one
    chunk of base state and the scan pass's scratch, which stacks at most
    ``chunk_words // cw`` blocks of a ``cw``-word chunk — at most ``2 × 8
    × n_nodes`` bytes per chunk word.  With ``jobs`` shard workers each
    process holds its own working set concurrently, so the budget
    divides across them::

        chunk_words = budget_bytes // (jobs × 2 × 8 × n_nodes)

    A chunk size covering the whole axis gives a one-chunk plan, whose
    kept base is the value matrix and whose passes stack ``chunk_words //
    total_words`` blocks, so base plus scratch still fit the budget.
    """
    jobs = max(int(jobs), 1)
    per_word = 2 * 8 * max(n_nodes, 1) * jobs
    chunk = max(1, int(budget_bytes // per_word))
    if jobs > 1:
        # A generous budget must not collapse the plan below the worker
        # count — a single chunk cannot shard, which would silently drop
        # the explicitly requested parallelism.
        chunk = min(chunk, max(1, -(-total_words // jobs)))
    return chunk


class ShardWorker:
    """Per-process execution state behind the shard executor.

    Built once per worker from a pickled
    :class:`~repro.runtime.executor.StreamContext` (pool initializer);
    holds a full :class:`~repro.core.engine.CompiledEvaluator` over the
    parent's chunk plan — compiled schedule, scan scratch — plus
    per-metric :class:`~repro.core.qor.QoREvaluator`\\ s, all of which
    persist across tasks so repeat scans amortize compilation.  Each task
    syncs the parent's committed state and runs the fold's per-chunk step
    (:meth:`~repro.core.engine.CompiledEvaluator._scan_chunk_into`) over
    its chunk range — literally the same code path the parent runs
    in-process, which is what makes sharded outcomes byte-identical.
    """

    def __init__(self, context: StreamContext) -> None:
        self.stats = RuntimeStats()
        self.evaluator = CompiledEvaluator(
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
