"""The task driver: dedup + cache lookup + parallel dispatch.

:func:`run_tasks` is the seam between "what work exists" (a task list in a
fixed order) and "how it gets done" (cache hits, same-run deduplication,
process-pool dispatch).  Results always come back aligned with the input
task order, so callers are oblivious to scheduling.

Payloads may expose ``n_factorizations`` / ``n_syntheses`` attributes;
the driver sums them into :class:`RuntimeStats` for *computed* payloads
only — a warm-cache run therefore reports zero factorizations and zero
syntheses, which the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .cache import ProfileCache
from .cancel import CancelToken
from .faults import FaultPlan
from .parallel import RetryPolicy, effective_jobs, supervised_map

T = TypeVar("T")
R = TypeVar("R")


def format_bytes(n: int) -> str:
    """Human-readable byte count (kB below 1 MB, MB above)."""
    if n >= 1e6:
        return f"{n / 1e6:.2f} MB"
    return f"{n / 1e3:.1f} kB"


@dataclass
class RuntimeStats:
    """Work accounting for one (or several accumulated) driver runs.

    Attributes:
        n_tasks: Tasks submitted.
        tasks_computed: Tasks actually executed (not served by cache/dedup).
        cache_hits / cache_misses: Persistent-cache lookups.
        dedup_hits: Tasks served by an identical task in the same run.
        n_factorizations: Factorization *calls* performed — one per ladder
            invocation on the ladder profiling path, one per degree on the
            legacy per-degree path.  (Each call internally sweeps every
            association threshold, so absolute greedy-descent counts on
            the ASSO path are ``len(taus)`` times this.)
        n_ladder_levels: Degree results those calls produced; the ratio
            ``n_ladder_levels / n_factorizations`` is the ladder's
            amortization factor (1.0 on the per-degree path).
        n_syntheses: Synthesis/tech-map area evaluations performed.
        n_preview_sweeps: Candidate sweeps actually run by the
            exploration evaluator (one per candidate table scanned).
        n_preview_cache_hits: Candidates scored from the compiled
            engines' ``scan_errors`` memo of whole-axis error totals (a
            commit drops exactly the entries whose cone or affected
            output words it changed; the rest replay).
        n_sweep_units: Quotient-plan units visited across all sweeps — the
            full plan length per candidate sweep on the reference engine,
            and per scan pass on the compiled ones (a pass stacks many
            candidates; a commit is a pass of one); the ratio between
            engines is the stacking win.
        n_scan_gate_words: Gate node rows × packed words the compiled
            engines' scan passes evaluated.  A dense pass would evaluate
            every gate row on every block (``gates × blocks × W``); the
            cone-sparse scan runs each instruction only on the blocks
            whose window's cone it touches, and this counter shows the
            difference.
        n_cones_compiled: Always ``0``: every sweep runs the one
            whole-plan scan pass, and no engine compiles per-window cone
            schedules.  Kept only for the benchmark's tracer, which
            reads it.
        n_chunk_passes: Base-state chunk evaluations performed by the
            streaming engine (one per chunk per scan/commit pass; zero on
            the resident engines).
        n_shard_tasks: Shard tasks executed by the streaming executor —
            in-process shards included, so serial streaming reports the
            per-scan task count too.
        shard_jobs: Resolved worker count of the streaming shard
            executor (``1`` = in-process execution).
        n_stacked_blocks: Candidate blocks the streaming engine's scan
            passes executed (candidates stacked along the word axis
            within a chunk's budget; one block = one candidate in one
            chunk's pass).
        n_chunk_cache_hits / n_chunk_cache_misses: Always ``0``: every
            chunk gets one base pass.  Kept only for the benchmark's
            tracer, which reads them.
        chunk_words: Chunk size (packed words) of the streaming engine's
            pattern-axis plan; ``0`` means resident (unchunked) execution.
        peak_sample_matrix_bytes: Largest packed sample-value matrix held
            at any point *per process* — the resident engines record
            their full ``(n_nodes, W)`` cache, the streaming engine its
            per-chunk base state plus its scan scratch.  This is the
            number the (per-worker) chunk budget bounds; total footprint
            across a sharded run is ~``shard_jobs`` times it.
        jobs: Resolved worker count of the last run.
        n_shard_retries / n_shard_fallbacks: Supervised shard executor
            resilience events — pool re-submissions of a failed/timed-out
            shard, and shards that exhausted their retries and re-ran
            in-process (survivor outcomes kept either way).
        n_task_retries / n_task_fallbacks: Same, for the profiling task
            driver's supervised pool.
        n_pool_rebuilds: Compromised pools (broken / hung-worker
            timeout) killed and respawned, across both supervised
            layers.
        n_checkpoints: Exploration checkpoints written by ``explore()``.
        cache_corrupt: Persistent-cache entries quarantined after
            failing to unpickle (each also counted a miss).
        cache_corrupt_purged: Quarantined ``*.pkl.corrupt`` files deleted
            by the cache's bounded-retention sweep (oldest first).
        kernel_backend: Always ``"numpy"``: the hot loops have one
            implementation.  Kept only for the benchmark's provenance
            line, which reads it.
    """

    n_tasks: int = 0
    tasks_computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_hits: int = 0
    n_factorizations: int = 0
    n_ladder_levels: int = 0
    n_syntheses: int = 0
    n_preview_sweeps: int = 0
    n_preview_cache_hits: int = 0
    n_sweep_units: int = 0
    n_scan_gate_words: int = 0
    n_cones_compiled: int = 0
    n_chunk_passes: int = 0
    n_shard_tasks: int = 0
    shard_jobs: int = 1
    n_stacked_blocks: int = 0
    n_chunk_cache_hits: int = 0
    n_chunk_cache_misses: int = 0
    chunk_words: int = 0
    peak_sample_matrix_bytes: int = 0
    jobs: int = 1
    n_shard_retries: int = 0
    n_shard_fallbacks: int = 0
    n_task_retries: int = 0
    n_task_fallbacks: int = 0
    n_pool_rebuilds: int = 0
    n_checkpoints: int = 0
    cache_corrupt: int = 0
    cache_corrupt_purged: int = 0
    kernel_backend: str = "numpy"

    def note_sample_matrix(self, nbytes: int) -> None:
        """Record a sample-matrix working-set high-water mark."""
        if nbytes > self.peak_sample_matrix_bytes:
            self.peak_sample_matrix_bytes = int(nbytes)

    def summary(self) -> str:
        text = (
            f"runtime: {self.tasks_computed}/{self.n_tasks} tasks computed "
            f"(jobs={self.jobs}), cache {self.cache_hits} hit / "
            f"{self.cache_misses} miss, {self.dedup_hits} deduped, "
            f"{self.n_factorizations} factorizations "
            f"({self.n_ladder_levels} degree results), "
            f"{self.n_syntheses} syntheses, "
            f"{self.n_preview_sweeps} preview sweeps "
            f"({self.n_preview_cache_hits} memoized, "
            f"{self.n_sweep_units} sweep units, "
            f"{self.n_scan_gate_words} scan gate words)"
        )
        if self.peak_sample_matrix_bytes:
            mode = (
                f"chunk={self.chunk_words} words, "
                f"{self.n_chunk_passes} chunk passes"
                if self.chunk_words
                else "resident"
            )
            text += (
                f", peak sample matrix "
                f"{format_bytes(self.peak_sample_matrix_bytes)} ({mode})"
            )
        if self.n_shard_tasks:
            text += (
                f", {self.n_shard_tasks} shard tasks "
                f"(shard-jobs={self.shard_jobs}, "
                f"{self.n_stacked_blocks} stacked blocks)"
            )
        resilience = self.resilience_summary()
        if resilience:
            text += f", {resilience}"
        return text

    def resilience_summary(self) -> str:
        """Fault-recovery accounting, or ``""`` when nothing misbehaved."""
        events = (
            self.n_shard_retries
            + self.n_shard_fallbacks
            + self.n_task_retries
            + self.n_task_fallbacks
            + self.n_pool_rebuilds
            + self.cache_corrupt
        )
        if not events and not self.n_checkpoints:
            return ""
        parts = []
        if events:
            quarantine = f"{self.cache_corrupt} corrupt cache entries quarantined"
            if self.cache_corrupt_purged:
                quarantine += f" ({self.cache_corrupt_purged} purged)"
            parts.append(
                f"recovered: {self.n_shard_retries} shard retries / "
                f"{self.n_shard_fallbacks} shard fallbacks, "
                f"{self.n_task_retries} task retries / "
                f"{self.n_task_fallbacks} task fallbacks, "
                f"{self.n_pool_rebuilds} pool rebuilds, "
                + quarantine
            )
        if self.n_checkpoints:
            parts.append(f"{self.n_checkpoints} checkpoints written")
        return ", ".join(parts)


def _count_work(stats: RuntimeStats, payloads: Sequence) -> None:
    for payload in payloads:
        stats.n_factorizations += getattr(payload, "n_factorizations", 0)
        stats.n_ladder_levels += getattr(payload, "n_ladder_levels", 0)
        stats.n_syntheses += getattr(payload, "n_syntheses", 0)


def run_tasks(
    tasks: Sequence[T],
    task_fn: Callable[[T], R],
    key_fn: Optional[Callable[[T], str]] = None,
    cache: Optional[ProfileCache] = None,
    jobs: int = 1,
    stats: Optional[RuntimeStats] = None,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[List[R], RuntimeStats]:
    """Execute ``task_fn`` over ``tasks``; results in task order.

    Dispatch is supervised (:func:`~repro.runtime.parallel.
    supervised_map`): a worker death, hung attempt or injected fault
    costs that task bounded retries plus at worst an in-process re-run
    instead of aborting the whole profiling pass, and results stay
    byte-identical to the serial loop because tasks are pure functions
    of their inputs.  An exception the task itself raises is a bug, not
    a fault: it stops the pass at once as a
    :class:`~repro.errors.ShardFailure`.

    Args:
        tasks: Work items (picklable when ``jobs > 1``).
        task_fn: Pure module-level function computing one payload.
        key_fn: Content key for a task.  When given, same-key tasks are
            computed once per run, and ``cache`` (if any) is consulted and
            populated under that key.
        cache: Persistent store; only meaningful together with ``key_fn``.
        jobs: Worker processes (``0`` = all cores, ``1`` = serial loop).
        stats: Accumulator to update in place (a fresh one is made if None).
        policy: Retry/timeout/rebuild bounds for the supervised pool
            (defaults applied by the supervisor when None).
        faults: Deterministic chaos plan; ``task`` clauses crash matching
            attempts (see :mod:`repro.runtime.faults`).
        cancel: Cooperative cancellation token checked at dispatch
            boundaries (see :mod:`repro.runtime.cancel`).

    Returns:
        ``(payloads, stats)`` with ``payloads[i]`` the result for
        ``tasks[i]`` — byte-identical whatever ``jobs`` is and whichever
        tasks were retried or fell back.
    """
    stats = stats if stats is not None else RuntimeStats()
    stats.jobs = effective_jobs(jobs)
    tasks = list(tasks)
    stats.n_tasks += len(tasks)
    results: List[Optional[R]] = [None] * len(tasks)
    corrupt_before = cache.corrupt if cache is not None else 0
    purged_before = cache.corrupt_purged if cache is not None else 0

    if key_fn is None:
        payloads = supervised_map(
            task_fn, tasks, jobs, policy=policy, faults=faults, stats=stats,
            cancel=cancel,
        )
        stats.tasks_computed += len(payloads)
        _count_work(stats, payloads)
        return list(payloads), stats

    positions: dict = {}
    order: List[Tuple[str, T]] = []
    for i, task in enumerate(tasks):
        key = key_fn(task)
        if key in positions:
            positions[key].append(i)
            stats.dedup_hits += 1
            continue
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                stats.cache_hits += 1
                results[i] = hit
                continue
            stats.cache_misses += 1
        positions[key] = [i]
        order.append((key, task))

    payloads = supervised_map(
        task_fn,
        [task for _, task in order],
        jobs,
        policy=policy,
        faults=faults,
        stats=stats,
        cancel=cancel,
    )
    for (key, _), payload in zip(order, payloads):
        if cache is not None:
            cache.put(key, payload)
        for i in positions[key]:
            results[i] = payload
    stats.tasks_computed += len(payloads)
    _count_work(stats, payloads)
    if cache is not None:
        stats.cache_corrupt += cache.corrupt - corrupt_before
        stats.cache_corrupt_purged += cache.corrupt_purged - purged_before
    return results, stats
