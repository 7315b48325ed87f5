"""The task driver: dedup + cache lookup + parallel dispatch.

:func:`run_tasks` is the seam between "what work exists" (a task list in a
fixed order) and "how it gets done" (cache hits, same-run deduplication,
process-pool dispatch).  Results always come back aligned with the input
task order, so callers are oblivious to scheduling.

Every computed task runs under :func:`~repro.runtime.stats.recorded`, and
the driver merges what it recorded into :class:`RuntimeStats` — *computed*
tasks only, so a warm-cache run reports zero factorizations and zero
syntheses, which the test suite asserts.  Cache traffic arrives as the
delta of the cache's own stats over the run.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .cache import ProfileCache
from .cancel import CancelToken
from .faults import FaultPlan
from .parallel import RetryPolicy, effective_jobs, supervised_map
from .stats import RuntimeStats, recorded

T = TypeVar("T")
R = TypeVar("R")


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
    stats.add("jobs", effective_jobs(jobs))
    tasks = list(tasks)
    stats.add("n_tasks", len(tasks))
    if key_fn is None:
        cache = None
    cache_mark = cache.stats.copy() if cache is not None else None
    results: List[Optional[R]] = [None] * len(tasks)
    positions: dict = {}
    order: List[Tuple[object, T]] = []
    for i, task in enumerate(tasks):
        key = i if key_fn is None else key_fn(task)
        if key in positions:
            positions[key].append(i)
            stats.add("dedup_hits")
            continue
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
        positions[key] = [i]
        order.append((key, task))

    outcomes = supervised_map(
        partial(recorded, task_fn),
        [task for _, task in order],
        jobs,
        policy=policy,
        faults=faults,
        stats=stats,
        cancel=cancel,
    )
    for (key, _), (payload, delta) in zip(order, outcomes):
        stats.merge(delta)
        if cache is not None:
            cache.put(key, payload)
        for i in positions[key]:
            results[i] = payload
    stats.add("tasks_computed", len(outcomes))
    if cache is not None:
        stats.merge(cache.stats.delta(cache_mark))
    return results, stats
