"""Process-pool shard execution for the exploration engine's chunk plans.

A chunk plan's candidate scans are chunk loops over the pattern
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
keep their evaluator machinery — compiled schedules and cone programs
— alive across tasks; each task ships only the small per-scan state
(committed tables and candidate tables).

The caller owns the *total* fallback: :func:`make_shard_executor`
returns ``None`` when sharding is pointless (one job) or unavailable
(sandboxed platforms without process pools), and the engine
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

import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar

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
from .stats import RuntimeStats

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
        metric: QoR metric name for this scan's accumulation.
    """

    chunks: Tuple
    requests: Tuple[Tuple[int, Tuple[np.ndarray, ...]], ...]
    committed: Tuple[Tuple[int, np.ndarray], ...]
    metric: str


@dataclass
class ShardOutcome:
    """Mergeable result of one shard task.

    ``accumulators[i][c]`` is the accumulator (see :func:`new_accumulator`)
    for candidate ``c`` of request ``i``, covering only this shard's
    chunks.  ``stats`` is everything the task recorded, as one generic
    :class:`~repro.runtime.RuntimeStats` delta the parent merges: every
    counter sums, and gauges such as the *worker process's* sample-matrix
    high-water mark (the figure the budget-per-worker formula bounds)
    merge by maximum.
    """

    accumulators: List[List[dict]]
    stats: RuntimeStats


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
    so a shard's result covers one slice of the pattern axis and the
    shard-order merge reproduces the serial chunk order.
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
# The executor
# ----------------------------------------------------------------------
class ProcessShardExecutor:
    """Supervised process-pool shard executor with persistent worker state.

    The pool lives as long as the executor (one pool per exploration
    run, not per scan), so workers amortize schedule compilation across
    iterations.

    Each ``run`` dispatches per-shard futures through a
    :class:`~repro.runtime.parallel.PoolSupervisor`: a crashed or
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
        stats: Optional[RuntimeStats] = None,
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
    ) -> List[ShardOutcome]:
        """Run ``shards``, returning their outcomes in task order."""
        shards = list(shards)
        if self._sanitize:
            from ..analysis.pickleaudit import audit_payload

            for i, shard in enumerate(shards):
                audit_payload(shard, f"ScanShard[{i}]")
        # One scan dispatch at a time: the supervisor's retry bookkeeping
        # and the scan counter are not re-entrant, so a caller driving
        # the executor from more than one thread still gets each scan's
        # shard order — and therefore its merge — exactly the serial one.
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
    stats: Optional[RuntimeStats] = None,
) -> Optional[ProcessShardExecutor]:
    """Build the executor for ``jobs`` workers, or ``None`` for in-process.

    ``jobs`` resolves through the same :func:`~repro.runtime.parallel.
    effective_jobs` policy as every other dispatch layer (``0`` = all
    cores).  ``None`` (one job, or no process-pool support on this
    platform) tells the engine to run its chunks in-process —
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
