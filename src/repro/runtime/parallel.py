"""Process-pool execution with deterministic result ordering.

Profiling tasks are CPU-bound pure functions of their (picklable) inputs,
which makes a :class:`concurrent.futures.ProcessPoolExecutor` the right
tool: no shared state, no GIL contention, and ``executor.map`` already
returns results in submission order, so parallel runs are byte-identical
to serial ones.

``jobs=1`` (the default everywhere) never touches multiprocessing — it is
a plain loop, so single-job behaviour is unchanged on platforms where
process pools are restricted.  Pool *creation* failures (sandboxes without
semaphores, exotic platforms) degrade to the serial loop with a warning
rather than failing the run.

Two dispatch strategies live here:

* :func:`parallel_map` — the original all-or-nothing ``pool.map``: one
  worker exception aborts the whole batch.  Kept for callers whose items
  are cheap to re-run wholesale.
* :class:`PoolSupervisor` / :func:`supervised_map` — per-item futures
  with a bounded retry/backoff policy (:class:`RetryPolicy`), attempt
  timeouts that defeat hung workers, bounded pool rebuilds on
  ``BrokenProcessPool``, and per-item in-process fallback.  Only
  infrastructure faults are retried; an exception the item itself
  raises is a bug and stops the batch at once.  Items are
  pure functions of their inputs, so a retried or locally re-run item
  returns byte-identical results — the supervisor changes *where* work
  runs, never *what* it computes.  The streaming shard executor
  (:mod:`repro.runtime.executor`) and the profiling driver
  (:mod:`repro.runtime.driver`) both route through this layer, so the
  retry semantics cannot drift between them.
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import ShardFailure, WorkerTimeout
from .cancel import CancelToken
from .faults import FaultPlan, InjectedFault, _raise_injected

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int) -> int:
    """Normalize a job count: ``0`` (or negative/None) means all cores."""
    if not jobs or jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return int(jobs)


def effective_jobs(jobs: int, n_items: Optional[int] = None) -> int:
    """The single jobs-resolution policy every dispatch layer routes through.

    ``0`` (or negative/None) means all cores; a known work-item count
    clamps the result (spawning more workers than items only costs
    process startup).  Used by :func:`parallel_map`, the profiling driver
    (:func:`repro.runtime.driver.run_tasks`) and the streaming shard
    executor (:mod:`repro.runtime.executor`), so "how many workers does
    ``--jobs`` mean" cannot drift between layers.
    """
    resolved = resolve_jobs(jobs)
    if n_items is not None:
        resolved = min(resolved, max(int(n_items), 1))
    return resolved


def bind_worker_to_parent() -> None:
    """Pool-worker initializer: die when the parent process dies.

    ``fork``-started workers survive a SIGKILLed parent — a killed
    ``blasys run`` would leave its pool behind, each worker holding
    every descriptor it inherited and computing results nobody will
    read.  ``PR_SET_PDEATHSIG`` makes the kernel deliver SIGTERM to the
    worker the moment its parent exits for any reason.  Linux-only and
    best-effort: on other platforms workers rely on the pools' normal
    shutdown paths, which every graceful exit already runs.
    """
    import signal as _signal

    # fork inherits the parent's Python-level signal handlers.  A CLI
    # run inside ShutdownGuard handles SIGTERM/SIGINT by cancelling a
    # token — in a worker that handler is a no-op on a dead copy of the
    # token, so the death signal below would be absorbed and the worker
    # would linger.  Workers must die on these signals.
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        try:
            _signal.signal(signum, _signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, _signal.SIGTERM)
        if os.getppid() == 1:
            # The parent died between fork and prctl: the death signal
            # will never fire, so honor the contract by hand.
            os._exit(0)
    except Exception:  # pragma: no cover - non-Linux platforms
        pass


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], jobs: int = 1
) -> List[R]:
    """``[fn(x) for x in items]`` across ``jobs`` worker processes.

    Results are returned in input order regardless of completion order.
    ``fn`` and every item must be picklable when ``jobs > 1``.  Worker
    exceptions propagate to the caller.
    """
    items = list(items)
    jobs = effective_jobs(jobs, len(items))
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=bind_worker_to_parent
        )
    except (OSError, PermissionError) as exc:  # pragma: no cover
        warnings.warn(
            f"process pool unavailable ({exc}); running serially", RuntimeWarning
        )
        return [fn(item) for item in items]
    try:
        with pool:
            return list(pool.map(fn, items))
    except BrokenProcessPool as exc:  # pragma: no cover
        # Workers died (sandbox restrictions, fork failure) — distinct from
        # an exception *raised by fn*, which propagates to the caller above.
        warnings.warn(
            f"process pool broke ({exc}); re-running serially", RuntimeWarning
        )
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Supervised dispatch: retries, timeouts, pool rebuilds, local fallback
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy shared by every supervised dispatch layer.

    Attributes:
        max_retries: Pool re-submissions per item after its first attempt
            (so an item runs at most ``1 + max_retries`` times on the
            pool before falling back in-process).
        timeout: Per-attempt wall-clock bound in seconds; ``None`` waits
            forever.  A timed-out attempt marks the pool compromised —
            a hung worker cannot be cancelled, so the pool is killed,
            rebuilt (within ``max_rebuilds``), and the item retried.
        backoff / max_backoff: Exponential backoff between retry rounds:
            round ``k`` sleeps ``min(backoff * 2**k, max_backoff)``.
        max_rebuilds: Pool respawns after the initial build.  Once spent,
            every remaining item runs in-process.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff: float = 0.05
    max_backoff: float = 2.0
    max_rebuilds: int = 2

    def backoff_for(self, retry_round: int) -> float:
        """Sleep before retry round ``retry_round`` (0-based)."""
        return min(self.backoff * (2.0**retry_round), self.max_backoff)


def format_worker_failure(exc: BaseException) -> str:
    """Format an exception chain (incl. remote worker tracebacks).

    ``concurrent.futures`` attaches the worker-side traceback to the
    re-raised exception's ``__cause__``; formatting the full chain keeps
    the original crash site visible through the retry machinery.
    """
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).rstrip()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, including hung workers.

    ``shutdown`` alone never returns a hung worker to the OS — the
    process would outlive the run and block interpreter exit — so the
    worker processes are terminated explicitly after the shutdown
    request.  Termination order is irrelevant (the pool is already
    discarded).
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


class PoolSupervisor:
    """Supervised per-item future dispatch over a rebuildable pool.

    Owns the retry loop shared by the shard executor and the task
    driver: submit every pending item, collect each future under the
    policy's attempt timeout, classify failures (timeout and broken-pool
    compromise the pool → kill + rebuild within budget; an injected
    fault or ``MemoryError`` leaves the pool alive), retry failed items
    with exponential backoff up to ``policy.max_retries``, and run
    anything still failing in-process via the caller's ``run_local`` —
    in sorted item order, so the fallback path is deterministic.  Any
    other exception raised by an item is a bug in the item, not a
    fault of the pool: it raises :class:`~repro.errors.ShardFailure` at
    once with the worker traceback, with no retry and no fallback.

    ``kind`` selects which :class:`~repro.runtime.driver.RuntimeStats`
    counters the supervisor feeds (``"shard"`` → ``n_shard_retries`` /
    ``n_shard_fallbacks``, ``"task"`` → ``n_task_retries`` /
    ``n_task_fallbacks``; pool rebuilds always count in
    ``n_pool_rebuilds``).
    """

    _COUNTERS = {
        "shard": ("n_shard_retries", "n_shard_fallbacks"),
        "task": ("n_task_retries", "n_task_fallbacks"),
    }

    def __init__(
        self,
        make_pool: Callable[[], ProcessPoolExecutor],
        policy: Optional[RetryPolicy] = None,
        stats=None,
        kind: str = "shard",
    ) -> None:
        self._make_pool = make_pool
        self.policy = policy or RetryPolicy()
        self._stats = stats
        self._retry_counter, self._fallback_counter = self._COUNTERS[kind]
        self._kind = kind
        self._pool: Optional[ProcessPoolExecutor] = None
        self._spawns = 0
        self._dead = False

    # -- bookkeeping ---------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self._stats is not None and hasattr(self._stats, name):
            setattr(self._stats, name, getattr(self._stats, name) + n)

    # -- pool lifecycle ------------------------------------------------
    def start(self) -> None:
        """Build the pool eagerly, propagating creation failures.

        Callers that want "no pool at all" to mean "use a different code
        path entirely" (``make_shard_executor``) call this inside their
        own try/except; ``run`` itself treats later creation failures as
        "fall back in-process".
        """
        self._pool = self._make_pool()
        self._spawns = 1

    def _acquire(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is not None:
            return self._pool
        if self._dead or self._spawns > self.policy.max_rebuilds:
            return None
        try:
            self._pool = self._make_pool()
        except (OSError, PermissionError) as exc:  # pragma: no cover
            self._dead = True
            warnings.warn(
                f"{self._kind} pool unavailable ({exc}); running in-process",
                RuntimeWarning,
            )
            return None
        if self._spawns > 0:
            self._count("n_pool_rebuilds")
        self._spawns += 1
        return self._pool

    def discard(self, why: str) -> None:
        """Kill the current pool (it is compromised) and warn."""
        if self._pool is None:
            return
        warnings.warn(
            f"{self._kind} pool compromised ({why}); "
            "terminating worker processes",
            RuntimeWarning,
        )
        _kill_pool(self._pool)
        self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None
        self._dead = True

    # -- the supervised dispatch loop ----------------------------------
    def run(
        self,
        submit: Callable[[ProcessPoolExecutor, int, int], "object"],
        run_local: Callable[[int, Optional[BaseException]], R],
        n_items: int,
        inject_break: bool = False,
        cancel: Optional[CancelToken] = None,
    ) -> List[R]:
        """Run items ``0..n_items-1``, returning results in item order.

        ``submit(pool, item, attempt)`` submits one attempt and returns
        its future (the attempt index lets fault injection target "shard
        k, attempt j").  ``run_local(item, last_exc)`` executes the item
        in-process once retries are exhausted or no pool is available;
        ``last_exc`` is the item's last pool-side failure (``None`` when
        the item never reached the pool).  ``inject_break`` simulates a
        ``BrokenProcessPool`` at dispatch time — the pool is discarded
        and rebuilt exactly as a real break would be, without charging
        any item a retry.

        ``cancel`` makes the dispatch loop cooperative: the token is
        checked before every dispatch/retry round and before the
        in-process fallback, so a shutdown request stops the batch at a
        round boundary (already-submitted futures finish on the pool and
        are discarded) with :class:`~repro.errors.ShutdownRequested`.
        """
        results: List[R] = [None] * n_items  # type: ignore[list-item]
        attempts = [0] * n_items
        last_exc: List[Optional[BaseException]] = [None] * n_items
        pending = list(range(n_items))
        fallback: List[int] = []
        retry_round = 0
        while pending:
            if cancel is not None:
                cancel.check()
            pool = self._acquire()
            if pool is None:
                fallback.extend(pending)
                pending = []
                break
            if inject_break:
                inject_break = False
                self.discard("injected pool break")
                continue
            futures = [(i, submit(pool, i, attempts[i])) for i in pending]
            failed: List[int] = []
            compromised: Optional[str] = None
            for i, fut in futures:
                try:
                    results[i] = fut.result(timeout=self.policy.timeout)
                except FuturesTimeout:
                    last_exc[i] = WorkerTimeout(
                        f"{self._kind} {i} exceeded the "
                        f"{self.policy.timeout:.3g}s attempt timeout"
                    )
                    failed.append(i)
                    if compromised is None:
                        compromised = f"{self._kind} {i} attempt timed out"
                        self.discard(compromised)
                except (BrokenProcessPool, OSError) as exc:
                    last_exc[i] = exc
                    failed.append(i)
                    if compromised is None:
                        compromised = f"worker died: {exc}"
                        self.discard(compromised)
                except CancelledError as exc:
                    # The pool was discarded earlier in this collection
                    # round (timeout / break) before this attempt started;
                    # not Exception-derived on modern Pythons, so caught
                    # explicitly.  Retry on the rebuilt pool.
                    if last_exc[i] is None:
                        last_exc[i] = exc
                    failed.append(i)
                except (InjectedFault, MemoryError) as exc:
                    # Infrastructure faults that leave the pool healthy:
                    # the chaos harness's stand-in for a worker crash, and
                    # a worker that ran out of memory.  Retry this item.
                    last_exc[i] = exc
                    failed.append(i)
                except Exception as exc:
                    # A bug in the item itself: a re-run would raise it
                    # again or, worse, hide it.
                    raise ShardFailure(
                        f"{self._kind} {i} raised in its worker "
                        f"(not retried):\n{format_worker_failure(exc)}"
                    ) from exc
            pending = []
            for i in failed:
                attempts[i] += 1
                if attempts[i] <= self.policy.max_retries:
                    self._count(self._retry_counter)
                    pending.append(i)
                else:
                    fallback.append(i)
            if pending:
                delay = self.policy.backoff_for(retry_round)
                retry_round += 1
                if delay > 0:
                    time.sleep(delay)
        for i in sorted(fallback):
            if cancel is not None:
                cancel.check()
            self._count(self._fallback_counter)
            results[i] = run_local(i, last_exc[i])
        return results


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    stats=None,
    cancel: Optional[CancelToken] = None,
) -> List[R]:
    """:func:`parallel_map` with per-item retries and local fallback.

    A worker death, hung attempt, or injected fault costs only the
    affected item bounded retries plus (at worst) one in-process re-run
    — the rest of the batch's pool results are kept.  Items are pure
    functions of their inputs, so results are byte-identical to the
    serial loop regardless of which items were retried or fell back.
    A failure that survives the in-process fallback propagates
    unwrapped; an exception ``fn`` raises in a worker raises
    :class:`~repro.errors.ShardFailure` at once (see
    :class:`PoolSupervisor`).

    ``faults`` threads the deterministic chaos harness through: a
    matching ``task`` clause replaces that attempt's submission with an
    :class:`~repro.runtime.faults.InjectedFault` raiser.  ``cancel``
    makes dispatch cooperative (checked per item on the serial path,
    per round on the supervised pool path).
    """
    items = list(items)
    jobs = effective_jobs(jobs, len(items))
    if jobs == 1 or len(items) <= 1:
        results = []
        for item in items:
            if cancel is not None:
                cancel.check()
            results.append(fn(item))
        return results
    supervisor = PoolSupervisor(
        lambda: ProcessPoolExecutor(
            max_workers=jobs, initializer=bind_worker_to_parent
        ),
        policy=policy,
        stats=stats,
        kind="task",
    )

    def submit(pool, i, attempt):
        if faults is not None and faults.task_fault(i, attempt):
            return pool.submit(
                _raise_injected,
                f"injected task fault: task {i}, attempt {attempt}",
            )
        return pool.submit(fn, items[i])

    def run_local(i, last_exc):
        return fn(items[i])

    try:
        return supervisor.run(submit, run_local, len(items), cancel=cancel)
    finally:
        supervisor.close()
