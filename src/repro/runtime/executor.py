"""Pluggable shard execution for the streaming exploration engine.

The streaming engine's candidate scans are chunk loops over the pattern
axis, and every chunk's work — base-state rebuild, cone sweeps, QoR
partial accumulation — is a pure function of (committed tables, input
slice, candidate tables).  That makes the pattern axis shardable: this
module packages contiguous chunk ranges into self-contained, picklable
:class:`ScanShard` tasks, fans them across a persistent process pool,
and merges the returned accumulators in deterministic shard order.

The merge contract (DESIGN.md "Parallel streaming") is what keeps
sharded runs byte-identical to serial streaming:

* **dirty rows** are sets defined by valid-bit inequality — per-shard
  sets union to the serial set because chunk ranges partition the axis;
* **value-metric partials** are canonical per-packed-word slices over
  disjoint word ranges — splicing them into the rebased base partials
  rebuilds the identical vector whatever the sharding;
* **hamming deltas** are exact integer mismatch counts — addition is
  associative, so any grouping sums to the serial total.

Workers are initialized once per process with a pickled
:class:`StreamContext` (circuit, windows, stimulus, exact outputs) and
keep their evaluator machinery — compiled schedules, cone-epoch chunk
caches — alive across tasks; each task ships only the small per-scan
state (committed tables, candidate tables, epoch watermarks).

The caller owns the *total* fallback: :func:`make_shard_executor`
returns ``None`` when sharding is pointless (one job) or unavailable
(sandboxed platforms without process pools), and the streaming engine
then runs the identical shard tasks in-process.  *Partial* failure is
handled inside :class:`ProcessShardExecutor` itself: each shard is a
supervised future (:class:`~repro.runtime.parallel.PoolSupervisor`)
with bounded retries, an attempt timeout that defeats hung workers,
bounded pool rebuilds on ``BrokenProcessPool``, and a per-shard
in-process fallback — survivors' outcomes are kept and only the failed
shards re-run, which the merge contract makes byte-identical to any
other execution of the same shard plan.
"""

from __future__ import annotations

import hashlib
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import ShardFailure
from .cancel import CancelToken
from .faults import FaultPlan, _raise_injected
from .parallel import (
    PoolSupervisor,
    RetryPolicy,
    effective_jobs,
    format_worker_failure,
)

T = TypeVar("T")


# ----------------------------------------------------------------------
# Task payloads (everything here must pickle cleanly)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamContext:
    """Per-run static state shipped once per worker process.

    Attributes:
        circuit / windows: The decomposition being explored.
        input_words: Packed Monte-Carlo stimulus ``(n_inputs, W)``.
        n_samples: Valid pattern count.
        chunk_words: The run's chunk size (workers walk the same
            word-aligned plan as the parent, so shard boundaries always
            coincide with chunk boundaries).
        exact_outputs: Packed exact output rows ``(n_outputs, W)`` —
            lets workers build their QoR evaluators without re-simulating
            the whole circuit.
        cache_chunks: Cone-epoch base-slice cache capacity per worker.
        sanitize: Propagates the runtime sanitizer (frozen cache arrays,
            tail-bit assertions — see ``repro.analysis.sanitize``) into
            worker evaluators, and enables the submit-time payload audit.
    """

    circuit: object
    windows: Tuple
    input_words: np.ndarray
    n_samples: int
    chunk_words: int
    exact_outputs: np.ndarray
    cache_chunks: int = 0
    sanitize: bool = False


@dataclass(frozen=True)
class ScanShard:
    """One shard task: a contiguous chunk range of one candidate scan.

    Attributes:
        chunks: The pattern-axis chunks this shard owns (a contiguous
            slice of the run's chunk plan).
        requests: ``(window index, candidate tables)`` pairs — the scan's
            non-memoized requests, identical in every shard.
        committed: The committed substitution map at scan time (small:
            tables only, no pattern-sized state).
        epoch: The parent's commit epoch (tags freshly cached slices).
        chunk_epochs: ``(chunk start, last-dirtying epoch)`` watermarks;
            a worker-cached base slice for a chunk is valid iff its
            stored epoch is >= the chunk's watermark.
        metric: QoR metric name for this scan's accumulation.
        lineage: Id of the parent evaluator that issued the scan.  Epochs
            of different parents are not comparable, so a worker drops
            its cached base slices when the lineage changes.
    """

    chunks: Tuple
    requests: Tuple[Tuple[int, Tuple[np.ndarray, ...]], ...]
    committed: Tuple[Tuple[int, np.ndarray], ...]
    epoch: int
    chunk_epochs: Tuple[Tuple[int, int], ...]
    metric: str
    lineage: int


@dataclass
class ShardOutcome:
    """Mergeable result of one shard task.

    ``accumulators[i][c]`` is the accumulator (see :func:`new_accumulator`)
    for candidate ``c`` of request ``i``, covering only this shard's
    chunks.  The counters are per-task deltas folded into the parent's
    :class:`~repro.runtime.RuntimeStats`; ``peak_bytes`` is the *worker
    process's* sample-matrix high-water mark (per-process — the figure
    the budget-per-worker formula bounds).
    """

    accumulators: List[List[dict]]
    n_chunk_passes: int = 0
    n_cache_hits: int = 0
    n_cache_misses: int = 0
    n_sweep_units: int = 0
    n_stacked_blocks: int = 0
    peak_bytes: int = 0


#: Registry of every payload type that crosses the process boundary.
#: The ``shard-pickle`` lint rule statically audits these classes'
#: fields (repro.analysis.pickleaudit), and sanitize mode deep-walks
#: instances at submit time — register any new payload type here.
SHARD_PAYLOAD_CLASSES: Tuple[type, ...] = (
    StreamContext,
    ScanShard,
    ShardOutcome,
)


# ----------------------------------------------------------------------
# Accumulator algebra (shared by the serial loop and the shard merge)
# ----------------------------------------------------------------------
def new_accumulator() -> dict:
    """Empty per-candidate accumulator.

    ``rows``: dirtied output rows (set); ``slices``: word position ->
    list of ``(word start, word stop, partials slice)`` over disjoint
    chunk ranges; ``deltas``: output row -> integer hamming mismatch
    delta vs. the committed state.
    """
    return {"rows": set(), "slices": {}, "deltas": {}}


def merge_accumulator(into: dict, add: dict) -> None:
    """Fold one shard's accumulator into the running total.

    Union/concatenate/add — each component is order-insensitive by
    construction (see the module docstring), so merging in shard order
    reproduces the serial accumulation byte for byte.
    """
    into["rows"] |= add["rows"]
    for wpos, slices in add["slices"].items():
        into["slices"].setdefault(wpos, []).extend(slices)
    for row, delta in add["deltas"].items():
        into["deltas"][row] = into["deltas"].get(row, 0) + delta


def plan_shards(items: Sequence[T], n_shards: int) -> List[Tuple[T, ...]]:
    """Split ``items`` into at most ``n_shards`` contiguous, balanced runs.

    Deterministic: sizes differ by at most one, larger shards first.
    Contiguity keeps each shard's chunks adjacent on the pattern axis,
    and shard *ranges* are stable across scans while the chunk plan is
    unchanged — pool scheduling still assigns tasks to whichever worker
    is free, so workers re-pin their chunk caches to the range they
    actually receive (see ``ChunkBaseCache.drop_outside``).
    """
    items = list(items)
    n = effective_jobs(n_shards, len(items))
    base, extra = divmod(len(items), n)
    out: List[Tuple[T, ...]] = []
    pos = 0
    for s in range(n):
        size = base + (1 if s < extra else 0)
        if size:
            out.append(tuple(items[pos : pos + size]))
            pos += size
    return out


# ----------------------------------------------------------------------
# Worker-process entry points
# ----------------------------------------------------------------------
_WORKER = None


def _init_worker(context: StreamContext) -> None:
    """Pool initializer: build the per-process shard worker once.

    The import is deferred so :mod:`repro.runtime` never imports
    :mod:`repro.core` at module load (core already imports runtime).
    """
    global _WORKER
    from ..core.streaming import ShardWorker
    from .parallel import bind_worker_to_parent

    bind_worker_to_parent()
    _WORKER = ShardWorker(context)


def _run_shard(shard: ScanShard) -> ShardOutcome:
    return _WORKER.run(shard)


def _run_shard_faulted(shard: ScanShard, kind: str, seconds: float) -> ShardOutcome:
    """Worker entry point for an injected crash/hang on this attempt.

    Faults are injected at submission time by *wrapping* the real task
    rather than patching worker internals, so the failure travels the
    exact exception/timeout machinery a real crash would: a ``crash``
    raises :class:`~repro.runtime.faults.InjectedFault` out of the
    worker, a ``hang`` sleeps past the supervisor's attempt timeout
    (bounded, so a worker the supervisor failed to terminate still
    exits) and then runs the task normally.
    """
    if kind == "crash":
        _raise_injected(f"injected worker crash (shard of {len(shard.chunks)} chunks)")
    time.sleep(seconds)
    return _run_shard(shard)


# ----------------------------------------------------------------------
# Executor backends
# ----------------------------------------------------------------------
class ShardExecutor:
    """Interface of the executor layer.

    ``run`` maps shard tasks to outcomes in task order, or returns
    ``None`` when the backend failed and the caller should execute the
    same shards in-process (the serial path is always available — the
    parent evaluator *is* a shard worker for the full chunk range).
    """

    jobs: int = 1

    def run(
        self,
        shards: Sequence[ScanShard],
        cancel: Optional[CancelToken] = None,
    ) -> Optional[List[ShardOutcome]]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial
        pass


class ProcessShardExecutor(ShardExecutor):
    """Supervised process-pool backend with persistent worker state.

    The pool lives as long as the executor (one pool per exploration
    run, not per scan), so workers amortize schedule compilation and
    keep their cone-epoch chunk caches warm across iterations.

    Each ``run`` dispatches per-shard futures through a
    :class:`~repro.runtime.parallel.PoolSupervisor`: a failed or
    timed-out shard is retried on the pool (bounded, with backoff; a
    timeout or ``BrokenProcessPool`` kills and rebuilds the pool within
    the respawn budget) and finally re-run in-process on a parent-side
    :class:`~repro.core.streaming.ShardWorker` while every surviving
    shard's outcome is kept.  A shard that fails even in-process raises
    :class:`~repro.errors.ShardFailure` carrying the formatted worker
    traceback of its last pool attempt.  ``faults`` threads the
    deterministic chaos harness through submission (``crash``/``hang``
    clauses wrap the attempt, ``pool`` clauses simulate a break at
    dispatch).
    """

    def __init__(
        self,
        context: StreamContext,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        stats=None,
    ) -> None:
        self.jobs = jobs
        self._context = context
        self._faults = faults
        self._scan_no = 0
        self._dispatch_lock = threading.Lock()
        self._local_worker = None
        self._sanitize = bool(getattr(context, "sanitize", False))
        if self._sanitize:
            from ..analysis.pickleaudit import audit_payload

            audit_payload(context, "StreamContext")
        self._supervisor = PoolSupervisor(
            lambda: ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker, initargs=(context,)
            ),
            policy=policy,
            stats=stats,
            kind="shard",
        )
        # Build eagerly so platform-level pool failures surface here and
        # make_shard_executor can degrade to the serial streaming path.
        self._supervisor.start()

    def _run_in_process(self, shard: ScanShard) -> ShardOutcome:
        """Parent-side fallback: the same task body, no pool.

        The import is deferred for the same layering reason as
        :func:`_init_worker`.  The worker instance is kept — like a pool
        worker it re-syncs committed state per task, so reuse across
        scans is exact.
        """
        if self._local_worker is None:
            from ..core.streaming import ShardWorker

            self._local_worker = ShardWorker(self._context)
        return self._local_worker.run(shard)

    def run(
        self,
        shards: Sequence[ScanShard],
        cancel: Optional[CancelToken] = None,
    ) -> Optional[List[ShardOutcome]]:
        shards = list(shards)
        if self._sanitize:
            from ..analysis.pickleaudit import audit_payload

            for i, shard in enumerate(shards):
                audit_payload(shard, f"ScanShard[{i}]")
        # One scan dispatch at a time: the supervisor's retry bookkeeping
        # and the scan counter are not re-entrant, and a shared (leased)
        # executor may be driven by several job threads concurrently.
        # Serializing scans keeps the pool warm across jobs while each
        # scan's shard order — and therefore its merge — stays exactly
        # the serial one.
        with self._dispatch_lock:
            scan = self._scan_no
            self._scan_no += 1
            inject_break = (
                self._faults.pool_break(scan)
                if self._faults is not None
                else False
            )

            def submit(pool, i, attempt):
                fault = (
                    self._faults.shard_fault(scan, i, attempt)
                    if self._faults is not None
                    else None
                )
                if fault is not None:
                    return pool.submit(
                        _run_shard_faulted, shards[i], fault.kind, fault.seconds
                    )
                return pool.submit(_run_shard, shards[i])

            def run_local(i, last_exc):
                warnings.warn(
                    f"shard {i} exhausted pool attempts; running in-process",
                    RuntimeWarning,
                )
                try:
                    return self._run_in_process(shards[i])
                except Exception as exc:
                    detail = (
                        format_worker_failure(last_exc)
                        if last_exc is not None
                        else "(never reached the pool)"
                    )
                    raise ShardFailure(
                        f"shard {i} failed on the pool and in-process; "
                        f"last pool failure:\n{detail}"
                    ) from exc

            return self._supervisor.run(
                submit, run_local, len(shards), inject_break=inject_break,
                cancel=cancel,
            )

    def close(self) -> None:
        self._supervisor.close()


def make_shard_executor(
    context: StreamContext,
    jobs: int,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    stats=None,
) -> Optional[ShardExecutor]:
    """Build the executor for ``jobs`` workers, or ``None`` for in-process.

    ``jobs`` resolves through the same :func:`~repro.runtime.parallel.
    effective_jobs` policy as every other dispatch layer (``0`` = all
    cores).  ``None`` (one job, or no process-pool support on this
    platform) tells the streaming engine to run its shards serially —
    byte-identical by the merge contract, just on one core.  ``policy``,
    ``faults`` and ``stats`` configure the supervised retry loop (see
    :class:`ProcessShardExecutor`).
    """
    jobs = effective_jobs(jobs)
    if jobs <= 1:
        return None
    try:
        return ProcessShardExecutor(
            context, jobs, policy=policy, faults=faults, stats=stats
        )
    except (OSError, PermissionError) as exc:  # pragma: no cover - platform
        warnings.warn(
            f"process pool unavailable ({exc}); streaming shards run "
            "in-process",
            RuntimeWarning,
        )
        return None


# ----------------------------------------------------------------------
# Cross-run pool sharing (the exploration service's executor seam)
# ----------------------------------------------------------------------
def context_key(context: StreamContext, jobs: int) -> str:
    """Content key of a :class:`StreamContext` + worker count.

    Two runs whose contexts hash identically would initialize workers
    with byte-identical state (same circuit structure, windows, packed
    stimulus, chunk plan, cache capacity, sanitize mode), so they can
    share one warm pool.  Hashed by content, never by object identity —
    the same circuit submitted by two different clients collides, which
    is the point.
    """
    from .cache import array_token, canonical_circuit_bytes

    digest = hashlib.sha256(b"blasys-shard-context-v1")
    for token in (
        canonical_circuit_bytes(context.circuit),
        repr(tuple(
            (w.index, w.members, w.inputs, w.outputs)
            for w in context.windows
        )).encode(),
        array_token(context.input_words),
        array_token(context.exact_outputs),
        repr((
            context.n_samples,
            context.chunk_words,
            context.cache_chunks,
            context.sanitize,
            int(jobs),
        )).encode(),
    ):
        digest.update(b"\x00")
        digest.update(token)
    return digest.hexdigest()


class LeasedShardExecutor(ShardExecutor):
    """A job's view of a registry-owned :class:`ProcessShardExecutor`.

    ``close()`` releases the lease instead of killing the pool — the
    registry keeps the pool warm for the next job with the same context
    (schedule compilation and chunk caches amortize across jobs) and
    tears it down only on :meth:`ShardExecutorRegistry.close`.  ``run``
    forwards to the shared executor, whose internal dispatch lock
    serializes concurrent scans from different job threads.
    """

    def __init__(self, registry: "ShardExecutorRegistry", key: str,
                 inner: ProcessShardExecutor) -> None:
        self._registry = registry
        self._key = key
        self._inner = inner
        self.jobs = inner.jobs
        self._released = False

    def run(
        self,
        shards: Sequence[ScanShard],
        cancel: Optional[CancelToken] = None,
    ) -> Optional[List[ShardOutcome]]:
        return self._inner.run(shards, cancel=cancel)

    def close(self) -> None:
        if not self._released:
            self._released = True
            self._registry.release(self._key)


class ShardExecutorRegistry:
    """Shared shard pools for concurrent exploration jobs.

    The service's replacement for :func:`make_shard_executor`
    (:attr:`~repro.runtime.cancel.RunContext.executor_factory`): jobs
    whose streaming contexts hash identically (:func:`context_key`)
    lease one shared supervised pool instead of each building their own,
    and a **worker budget** bounds the total worker processes across all
    live pools — a lease that would exceed it returns ``None``, which
    degrades that job to in-process streaming (byte-identical by the
    merge contract) rather than oversubscribing the host.

    Pools are refcounted by lease but deliberately kept warm at
    refcount zero; :meth:`close` (service shutdown) or :meth:`evict_idle`
    reclaims them.  A pool whose creation fails platform-side is
    remembered as dead so every subsequent lease degrades immediately
    instead of re-attempting the spawn.
    """

    def __init__(self, max_total_workers: int = 0, stats=None) -> None:
        #: ``0`` = unbounded (resolve to "all cores" is deliberately NOT
        #: applied here: the budget is a cap on pool *sum*, not a count).
        self.max_total_workers = int(max_total_workers)
        self._stats = stats
        self._lock = threading.Lock()
        self._pools: Dict[str, ProcessShardExecutor] = {}
        self._leases: Dict[str, int] = {}
        self._dead: set = set()
        self._closed = False
        #: Diagnostic counters: pools actually built vs. leases served
        #: (their difference is the cross-job sharing win) and leases
        #: degraded to in-process execution by the worker budget.
        self.pools_built = 0
        self.leases = 0
        self.rejected_leases = 0

    def _live_workers(self) -> int:
        return sum(pool.jobs for pool in self._pools.values())

    def lease(
        self,
        context: StreamContext,
        jobs: int,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        stats=None,
    ) -> Optional[ShardExecutor]:
        """Lease a shared executor for ``context``, or ``None`` to degrade.

        Matches :func:`make_shard_executor`'s signature so it can stand
        in as a :class:`~repro.runtime.cancel.RunContext` executor
        factory.  ``faults`` is honored per-lease only when a fresh pool
        is built (an existing shared pool keeps its own plan — fault
        clauses are scoped to the run that created the pool); retry
        ``policy`` likewise binds at pool construction.  Supervision
        counters feed the registry's service-level ``stats`` (per-job
        attribution of shared-pool events would be arbitrary).
        """
        jobs = effective_jobs(jobs)
        if jobs <= 1:
            return None
        key = context_key(context, jobs)
        with self._lock:
            if self._closed or key in self._dead:
                return None
            pool = self._pools.get(key)
            if pool is None:
                if (
                    self.max_total_workers > 0
                    and self._live_workers() + jobs > self.max_total_workers
                ):
                    self.rejected_leases += 1
                    warnings.warn(
                        f"shard worker budget ({self.max_total_workers}) "
                        f"exhausted ({self._live_workers()} live); job "
                        "degrades to in-process streaming",
                        RuntimeWarning,
                    )
                    return None
                try:
                    pool = ProcessShardExecutor(
                        context, jobs, policy=policy, faults=faults,
                        stats=self._stats if self._stats is not None else stats,
                    )
                except (OSError, PermissionError) as exc:  # pragma: no cover
                    warnings.warn(
                        f"process pool unavailable ({exc}); jobs degrade "
                        "to in-process streaming",
                        RuntimeWarning,
                    )
                    self._dead.add(key)
                    return None
                self._pools[key] = pool
                self._leases[key] = 0
                self.pools_built += 1
            self._leases[key] += 1
            self.leases += 1
            return LeasedShardExecutor(self, key, pool)

    def release(self, key: str) -> None:
        with self._lock:
            if key in self._leases and self._leases[key] > 0:
                self._leases[key] -= 1

    def evict_idle(self) -> int:
        """Close pools with no live lease; returns how many were closed."""
        with self._lock:
            idle = [k for k, n in self._leases.items() if n == 0]
            closed = 0
            for key in idle:
                pool = self._pools.pop(key, None)
                self._leases.pop(key, None)
                if pool is not None:
                    pool.close()
                    closed += 1
            return closed

    def close(self) -> None:
        """Tear down every pool (leased or idle).  Used at shutdown —
        leaseholders' in-flight scans fail over to their in-process
        fallback path, which is exactly the degradation contract."""
        with self._lock:
            self._closed = True
            pools = list(self._pools.values())
            self._pools.clear()
            self._leases.clear()
        for pool in pools:
            pool.close()
