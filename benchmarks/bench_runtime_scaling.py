"""Runtime scaling — serial vs parallel profiling, cold vs warm cache.

Profiling (BMF sweep + variant synthesis per window) dominates BLASYS
runtime alongside Monte-Carlo evaluation.  This benchmark reports, for the
paper's mult8 benchmark:

* serial (``jobs=1``) vs process-parallel (``jobs=0`` = all cores) wall
  time — the speedup scales with core count (a 1-core CI box shows ~1x);
* cold-cache vs warm-cache wall time — the warm run must perform **zero**
  factorizations and zero variant syntheses (asserted below).

No faults are injected, so the serial, parallel and cold runs must also
report zero task retries, task fallbacks and pool rebuilds: a recovery
event there is a bug the retry path hid.  Under ``REPRO_FAULTS`` recovery
events are expected and the check is skipped.

Environment knobs are shared with the rest of the harness (see conftest).
"""

from __future__ import annotations

import os
import time

from repro.bench import get_benchmark
from repro.core.profile import profile_windows
from repro.partition import decompose
from repro.runtime import ProfileCache, RuntimeStats, resolve_jobs

from conftest import WINDOW, print_header


def _assert_fault_free(stats, leg: str) -> None:
    """Without an injected fault plan, any recovery event is a bug that
    the retry/fallback path would otherwise hide."""
    if os.environ.get("REPRO_FAULTS"):
        return
    events = {
        "task retries": stats.n_task_retries,
        "task fallbacks": stats.n_task_fallbacks,
        "pool rebuilds": stats.n_pool_rebuilds,
    }
    assert not any(events.values()), f"{leg}: resilience events {events}"


def test_runtime_scaling(benchmark, tmp_path):
    circuit = get_benchmark("mult8").factory()
    windows = decompose(circuit, WINDOW, WINDOW)
    cache_dir = tmp_path / "profile-cache"

    def timed(**kwargs):
        stats = RuntimeStats()
        t0 = time.perf_counter()
        profile_windows(
            circuit, windows, weight_mode="significance",
            runtime_stats=stats, **kwargs,
        )
        return time.perf_counter() - t0, stats

    t_serial, s_serial = timed(jobs=1)
    n_cores = resolve_jobs(0)
    t_parallel, s_parallel = timed(jobs=0)
    t_cold, s_cold = timed(jobs=0, cache=ProfileCache(cache_dir))
    t_warm, s_warm = timed(jobs=1, cache=ProfileCache(cache_dir))

    print_header(f"Runtime scaling: mult8 profiling ({len(windows)} windows)")
    print(f"{'configuration':24s} {'wall(s)':>8s} {'speedup':>8s}  work")
    rows = [
        (f"serial (jobs=1)", t_serial, s_serial),
        (f"parallel (jobs={n_cores})", t_parallel, s_parallel),
        ("cold cache", t_cold, s_cold),
        ("warm cache", t_warm, s_warm),
    ]
    for label, t, s in rows:
        speedup = t_serial / t if t > 0 else float("inf")
        print(
            f"{label:24s} {t:8.2f} {speedup:7.1f}x  "
            f"{s.n_factorizations} factorizations, {s.n_syntheses} syntheses"
        )

    for label, s in (
        ("serial", s_serial), ("parallel", s_parallel), ("cold", s_cold)
    ):
        _assert_fault_free(s, label)

    # Warm-cache wall-time reduction and zero re-work are hard guarantees;
    # parallel speedup depends on the machine's core count.
    assert s_warm.tasks_computed == 0
    assert s_warm.n_factorizations == 0
    assert s_warm.n_syntheses == 0
    assert t_warm < t_serial

    # Timed kernel: a fully warm profiling pass (the steady state of
    # threshold sweeps and repeated CLI runs).
    benchmark.pedantic(
        lambda: profile_windows(
            circuit, windows, weight_mode="significance",
            cache=ProfileCache(cache_dir),
        ),
        rounds=1,
        iterations=1,
    )
