"""Execution runtime: parallel task dispatch and persistent result caching.

The profiling phase of BLASYS (BMF sweep + per-variant synthesis for every
window) is embarrassingly parallel across windows and fully deterministic
given a window's truth table and the profiling parameters.  This package
exploits both properties:

* :mod:`repro.runtime.parallel` — supervised process-pool dispatch
  (:class:`~repro.runtime.parallel.PoolSupervisor` /
  :func:`~repro.runtime.parallel.supervised_map`) with deterministic
  result ordering (``jobs=1`` degrades to a plain serial loop): bounded
  per-item retries with backoff (:class:`~repro.runtime.parallel.
  RetryPolicy`), attempt timeouts that defeat hung workers, bounded pool
  rebuilds, and per-item in-process fallback; an exception an item
  itself raises is not retried.
* :mod:`repro.runtime.cache` — a content-addressed on-disk cache keyed by a
  canonical hash of the task inputs, so threshold sweeps and repeated CLI
  invocations skip redundant factorization/synthesis work entirely;
  corrupt entries are quarantined as misses, writes are fsync-durable.
* :mod:`repro.runtime.driver` — the task driver tying the two together:
  same-run duplicate tasks are computed once, cache hits short-circuit
  dispatch, and each computed task's recorded work is merged into the
  run's :class:`~repro.runtime.stats.RuntimeStats`.
* :mod:`repro.runtime.stats` — the one counter table and the nested
  wall-clock spans every layer records into (DESIGN.md "Observability").
* :mod:`repro.runtime.executor` — the streaming engine's shard executor:
  picklable chunk-range tasks over a persistent supervised pool.
* :mod:`repro.runtime.faults` — deterministic fault injection
  (``REPRO_FAULTS=<spec>``) for chaos-testing every recovery path above.
* :mod:`repro.runtime.checkpoint` — atomic exploration checkpoints for
  kill-and-resume with byte-identical continuations.
* :mod:`repro.runtime.cancel` — cooperative cancellation tokens and
  scoped SIGINT/SIGTERM handling (:class:`~repro.runtime.cancel.
  ShutdownGuard`) so interrupted runs checkpoint and close their pools
  instead of leaking workers.

The driver is deliberately generic (tasks in, payloads out, ordering
preserved); window profiling in :mod:`repro.core.profile` is its first
client, and the streaming shard executor reuses the same supervised seam.
"""

from __future__ import annotations

from .cache import (
    CACHE_VERSION,
    ProfileCache,
    array_token,
    canonical_circuit_bytes,
)
from .cancel import CancelToken, ShutdownGuard
from .checkpoint import (
    CHECKPOINT_VERSION,
    ExploreCheckpoint,
    fingerprint_tokens,
    load_checkpoint,
    save_checkpoint,
)
from .driver import run_tasks
from .faults import FAULTS_ENV, FaultClause, FaultPlan, InjectedFault, faults_enabled
from .parallel import (
    PoolSupervisor,
    RetryPolicy,
    effective_jobs,
    format_worker_failure,
    resolve_jobs,
    supervised_map,
)
from .stats import COUNTERS, RuntimeStats, format_bytes

__all__ = [
    "CACHE_VERSION",
    "COUNTERS",
    "CHECKPOINT_VERSION",
    "CancelToken",
    "ExploreCheckpoint",
    "FAULTS_ENV",
    "FaultClause",
    "FaultPlan",
    "InjectedFault",
    "PoolSupervisor",
    "ProfileCache",
    "RetryPolicy",
    "RuntimeStats",
    "ShutdownGuard",
    "array_token",
    "canonical_circuit_bytes",
    "effective_jobs",
    "faults_enabled",
    "fingerprint_tokens",
    "format_bytes",
    "format_worker_failure",
    "load_checkpoint",
    "resolve_jobs",
    "run_tasks",
    "save_checkpoint",
    "supervised_map",
]
