"""Exploration-engine benchmark: the compiled engine's stacked scan passes
vs. the interpreted reference evaluator.

Measures the three levers of the compiled engine (see DESIGN.md
"Exploration engine") on the paper's headline configuration — mult8 at the
k = m = 10 window budget — and writes the results to ``BENCH_explore.json``
at the repository root so the perf trajectory accumulates across PRs:

* **candidate-scan throughput** — the explorer's per-iteration candidate
  scan (every active window's next-degree variants through the
  production ``scan_errors`` call) timed against both engines over a
  replayed exploration; every candidate's ``(error, dirty rows)`` pair is
  asserted identical between the engines.
* **sweep units touched** — quotient-plan units visited per preview: the
  full plan per candidate on the reference path vs. the full plan per
  pass of stacked candidates on the compiled path
  (``RuntimeStats.n_sweep_units``).
* **scan gate words** — gate node rows × packed words the compiled
  engine's cone-sparse stacked scan evaluated
  (``RuntimeStats.n_scan_gate_words``), against the dense count
  ``Σ gates × blocks × W`` a scan running every gate on every block would
  evaluate; every run (``--smoke`` included) asserts it stays below.
* **end-to-end explore()** — Algorithm 1 at paper window budgets, wall
  time per engine, with the trajectories asserted byte-identical
  (qor floats, areas, window choices, degree vectors — all of it).
* **streaming execution** (``--samples``) — the chunked engine at the
  paper's actual Monte-Carlo scale (10^6 patterns by default for the
  mode), recording wall time, throughput, peak RSS, and the peak
  per-process sample-matrix bytes, asserted against the configured chunk
  budget (``2 × 8 × n_nodes × chunk_words``).  At smoke
  scale the streamed trajectory is additionally asserted byte-identical
  to resident execution.  ``--shard-jobs`` fans the chunk loop across
  worker processes (smoke included — the CI leg runs ``--smoke
  --shard-jobs 2`` and still asserts trajectory identity, and that every
  work counter that does not depend on sharding equals the serial run's).
* **sharded scaling** (``--scaling``) — the 10^6-sample streaming run
  repeated across shard worker counts (1, 2, 4 by default), recording
  wall time and peak *per-process* sample-matrix bytes per row, with
  every sharded trajectory asserted byte-identical to the serial row.
  The ≥ 1.5× speedup bar at ≥ 4 workers is asserted only when the host
  actually exposes ≥ 4 usable cores (single-core CI boxes record honest
  rows instead of failing on physics).

The streaming and scaling legs inject no faults, so both assert zero
shard retries, shard fallbacks and pool rebuilds (``--smoke`` included):
a recovery event there means a bug the retry path hid.  Under
``REPRO_FAULTS`` (the chaos leg) recovery events are expected, and the
trajectory identity assertions prove them invisible instead.

Runs standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_explore.py                    # full
    PYTHONPATH=src python benchmarks/bench_explore.py --smoke            # CI
    PYTHONPATH=src python benchmarks/bench_explore.py --samples 1000000  # paper scale
    PYTHONPATH=src python benchmarks/bench_explore.py --scaling          # shard sweep

and doubles as a pytest smoke test (``test_explore_engine_smoke``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_explore.json"

#: The headline configuration: the paper's window budget on mult8.
BENCH_NAME = "mult8"
WINDOW = 10
SAMPLES_FULL = 4096
SAMPLES_SMOKE = 512
ITERATIONS_FULL = 30
ITERATIONS_SMOKE = 4

#: Required on the full run (the committed BENCH_explore.json).
MIN_PREVIEW_SPEEDUP = 3.0
MIN_EXPLORE_SPEEDUP = 2.0

#: Work counters a sharded run must report exactly as the serial run does.
SHARD_INVARIANT_COUNTERS = (
    "n_scan_gate_words",
    "n_sweep_units",
    "n_chunk_passes",
    "n_stacked_blocks",
    "n_preview_sweeps",
    "n_preview_cache_hits",
)


def _setup(smoke: bool):
    from repro.bench import get_benchmark
    from repro.core.profile import profile_windows
    from repro.partition import decompose

    circuit = get_benchmark(BENCH_NAME).factory()
    windows = decompose(circuit, WINDOW, WINDOW)
    # estimate_area=False isolates the evaluation engine: variant areas
    # only feed tie-breaking/reporting and are identical on both engines.
    profiles = profile_windows(circuit, windows, estimate_area=False)
    return circuit, windows, profiles


def _make_pair(circuit, windows, n_samples, seed=7):
    from repro.circuit.stimulus import stimulus_input_words
    from repro.core.engine import CompiledEvaluator
    from repro.core.incremental import IncrementalEvaluator
    from repro.runtime import RuntimeStats

    rng = np.random.default_rng(seed)
    words = stimulus_input_words(circuit, n_samples, rng)
    ref_stats, comp_stats = RuntimeStats(), RuntimeStats()
    ref = IncrementalEvaluator(circuit, windows, words, n_samples, stats=ref_stats)
    comp = CompiledEvaluator(circuit, windows, words, n_samples, stats=comp_stats)
    return ref, comp, ref_stats, comp_stats


def _scan_tables(profiles):
    """The explorer's candidate scan: every window's next-degree tables."""
    scan = []
    for p in profiles:
        f = p.max_degree - 1
        if f >= 1 and f in p.variants:
            scan.append((p.window.index, [v.table for v in p.variants[f]]))
    return scan


def _preview_throughput(circuit, windows, profiles, n_samples, iterations):
    """Candidate-scan throughput over a replayed exploration.

    Replays the explorer's hot loop state-by-state: at each iteration both
    engines score every active window's next-degree candidates with
    ``scan_errors`` (the production call), the greedy winner is committed
    to both and the QoR state rebased, and only the scan time is
    accumulated.  Memoization and its commit-time invalidation behave
    exactly as in production, and every candidate's ``(error, dirty
    rows)`` pair is asserted identical between the engines.
    """
    from repro.core.qor import QoREvaluator

    ref, comp, ref_stats, comp_stats = _make_pair(circuit, windows, n_samples)
    ref_qor = QoREvaluator(circuit, ref.exact_outputs, n_samples)
    comp_qor = QoREvaluator(circuit, comp.exact_outputs, n_samples)
    ref_qor.rebase(ref.exact_outputs)
    comp_qor.rebase(comp.exact_outputs)
    by_index = {p.window.index: p for p in profiles}
    fs = {p.window.index: p.max_degree for p in profiles}

    # Warm-up: compile the schedule outside the timed region.  Copied
    # tables keep the warm-up out of the memo (fresh identities), so the
    # first timed iteration starts cold for both engines.
    warm = [(i, [t.copy() for t in ts]) for i, ts in _scan_tables(profiles)]
    comp.scan_errors(warm, comp_qor)
    ref.scan_errors(warm, ref_qor)

    ref_s = comp_s = 0.0
    n_previews = 0
    ref_units0, comp_units0 = ref_stats.n_sweep_units, comp_stats.n_sweep_units
    memo0 = comp_stats.n_preview_cache_hits
    gate_words0 = comp_stats.n_scan_gate_words
    # The dense count: every gate row the scan's schedule holds (gates
    # outside committed windows) on every scanned block.
    n_gates = sum(1 for node in circuit.nodes if node.op.is_gate)
    n_members = {w.index: len(w.members) for w in windows}
    dense_gate_words = 0
    for _ in range(iterations):
        scan = []
        for index, f in fs.items():
            if f > 1 and (f - 1) in by_index[index].variants:
                tables = [v.table for v in by_index[index].variants[f - 1]]
                scan.append((index, tables))
        if not scan:
            break
        t0 = time.perf_counter()
        ref_scores = ref.scan_errors(scan, ref_qor)
        t1 = time.perf_counter()
        blocks0 = comp_stats.n_preview_sweeps
        comp_scores = comp.scan_errors(scan, comp_qor)
        t2 = time.perf_counter()
        scan_gates = n_gates - sum(n_members[i] for i in comp.committed)
        dense_gate_words += (
            scan_gates
            * (comp_stats.n_preview_sweeps - blocks0)
            * ((n_samples + 63) // 64)
        )
        ref_s += t1 - t0
        comp_s += t2 - t1
        # Identical scores for every candidate, then commit the greedy
        # winner and rebase both QoR states.
        assert comp_scores == ref_scores, "scan_errors diverged"
        best = None
        for (index, tables), scored in zip(scan, ref_scores):
            for table, (err, _) in zip(tables, scored):
                n_previews += 1
                if best is None or err < best[0]:
                    best = (err, index, table)
        _, index, table = best
        for ev, qor in ((ref, ref_qor), (comp, comp_qor)):
            ev.commit(index, table)
            qor.rebase(ev.current_outputs())
        fs[index] -= 1
    return {
        "iterations_replayed": iterations,
        "n_previews": n_previews,
        "reference": {
            "wall_s": round(ref_s, 4),
            "previews_per_sec": round(n_previews / ref_s, 1),
            "sweep_units_per_preview": round(
                (ref_stats.n_sweep_units - ref_units0) / n_previews, 1
            ),
        },
        "compiled": {
            "wall_s": round(comp_s, 4),
            "previews_per_sec": round(n_previews / comp_s, 1),
            "memoized_previews": comp_stats.n_preview_cache_hits - memo0,
            "sweep_units_per_preview": round(
                (comp_stats.n_sweep_units - comp_units0) / n_previews, 1
            ),
            "scan_gate_words": comp_stats.n_scan_gate_words - gate_words0,
            "dense_gate_words": dense_gate_words,
        },
        "preview_speedup": round(ref_s / comp_s, 3),
        "scan_errors_identical": True,  # asserted above
    }


def _explore_end_to_end(circuit, windows, profiles, n_samples, max_iterations):
    from repro.core.explorer import ExplorerConfig, explore

    def run(engine):
        config = ExplorerConfig(
            max_inputs=WINDOW,
            max_outputs=WINDOW,
            n_samples=n_samples,
            max_iterations=max_iterations,
            strategy="full",
            engine=engine,
        )
        t0 = time.perf_counter()
        result = explore(circuit, config, windows=windows, profiles=profiles)
        return time.perf_counter() - t0, result

    ref_s, ref = run("reference")
    comp_s, comp = run("compiled")
    key = lambda r: [
        (p.iteration, p.window_index, p.f, p.qor, p.est_area, p.fs)
        for p in r.trajectory
    ]
    identical = key(ref) == key(comp) and ref.n_evaluations == comp.n_evaluations
    return {
        "n_samples": n_samples,
        "max_iterations": max_iterations,
        "iterations_run": len(comp.trajectory) - 1,
        "n_evaluations": comp.n_evaluations,
        "reference": {
            "wall_s": round(ref_s, 4),
            "sweep_units": ref.runtime_stats.n_sweep_units,
        },
        "compiled": {
            "wall_s": round(comp_s, 4),
            "sweep_units": comp.runtime_stats.n_sweep_units,
            "scan_gate_words": comp.runtime_stats.n_scan_gate_words,
        },
        "explore_speedup": round(ref_s / comp_s, 3),
        "trajectories_byte_identical": identical,
    }


#: Streaming-mode defaults: the paper's Monte-Carlo scale on mult8.
SAMPLES_STREAMING = 1_000_000
CHUNK_WORDS_STREAMING = 1024
ITERATIONS_STREAMING = 4
CHUNK_WORDS_SMOKE = 2

#: Sharded-scaling defaults: the worker counts swept.
SCALING_JOBS = (1, 2, 4)
MIN_SHARD_SPEEDUP = 1.5


def _usable_cores() -> int:
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    import resource
    import sys

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes.
    return usage / 1e6 if sys.platform == "darwin" else usage / 1024.0


def _trajectory_key(result):
    return [
        (p.iteration, p.window_index, p.f, p.qor, p.est_area, p.fs)
        for p in result.trajectory
    ]


def _assert_fault_free(stats, leg: str) -> None:
    """Without an injected fault plan, any recovery event is a bug that
    the retry/fallback path would otherwise hide."""
    if os.environ.get("REPRO_FAULTS"):
        return
    events = {
        "shard retries": stats.n_shard_retries,
        "shard fallbacks": stats.n_shard_fallbacks,
        "pool rebuilds": stats.n_pool_rebuilds,
    }
    assert not any(events.values()), f"{leg}: resilience events {events}"


def _run_streaming_once(
    circuit, windows, profiles, n_samples, chunk_words, max_iterations,
    shard_jobs=1,
):
    import time

    from repro.core.explorer import ExplorerConfig, explore

    config = ExplorerConfig(
        max_inputs=WINDOW,
        max_outputs=WINDOW,
        n_samples=n_samples,
        max_iterations=max_iterations,
        strategy="full",
        chunk_words=chunk_words,
        shard_jobs=shard_jobs if chunk_words is not None else None,
    )
    t0 = time.perf_counter()
    result = explore(circuit, config, windows=windows, profiles=profiles)
    return time.perf_counter() - t0, result


def _streaming(
    circuit, windows, profiles, n_samples, chunk_words, max_iterations,
    verify_resident, shard_jobs=1,
):
    """Chunked explore() at scale: wall, throughput, memory vs. budget.

    ``verify_resident`` additionally runs the resident compiled engine on
    the same configuration and asserts the trajectories byte-identical —
    feasible at smoke scale; at 10^6 patterns the identity is carried by
    the test suite's property tests instead and this run asserts the
    memory bound.  A sharded ``verify_resident`` run also reruns serial
    streaming and asserts :data:`SHARD_INVARIANT_COUNTERS` equal.  ``shard_jobs`` fans the chunk loop across worker
    processes; the peak sample-matrix figure is then *per process*.
    """
    wall_s, chunked = _run_streaming_once(
        circuit, windows, profiles, n_samples, chunk_words, max_iterations,
        shard_jobs=shard_jobs,
    )
    stats = chunked.runtime_stats
    _assert_fault_free(stats, "streaming")
    budget_bytes = 2 * 8 * circuit.n_nodes * chunk_words
    resident_bytes = 8 * circuit.n_nodes * (
        (n_samples + 63) // 64
    )
    assert stats.peak_sample_matrix_bytes <= budget_bytes, (
        f"peak sample matrix {stats.peak_sample_matrix_bytes} exceeds the "
        f"chunk budget {budget_bytes}"
    )
    report = {
        "n_samples": n_samples,
        "chunk_words": chunk_words,
        "shard_jobs": stats.shard_jobs,
        "iterations_run": len(chunked.trajectory) - 1,
        "n_evaluations": chunked.n_evaluations,
        "n_chunk_passes": stats.n_chunk_passes,
        "n_shard_tasks": stats.n_shard_tasks,
        "n_stacked_blocks": stats.n_stacked_blocks,
        "wall_s": round(wall_s, 3),
        "candidate_samples_per_sec": round(
            chunked.n_evaluations * n_samples / wall_s
        ),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "peak_sample_matrix_mb_per_process": round(
            stats.peak_sample_matrix_bytes / 1e6, 3
        ),
        "chunk_budget_mb_per_process": round(budget_bytes / 1e6, 3),
        "resident_matrix_mb": round(resident_bytes / 1e6, 3),
        "memory_bounded_by_budget": True,  # asserted above
    }
    if verify_resident:
        _, resident = _run_streaming_once(
            circuit, windows, profiles, n_samples, None, max_iterations
        )
        assert _trajectory_key(chunked) == _trajectory_key(resident), (
            "streamed trajectory diverged from resident execution"
        )
        report["trajectories_byte_identical"] = True
        if stats.shard_jobs > 1:
            _, serial = _run_streaming_once(
                circuit, windows, profiles, n_samples, chunk_words,
                max_iterations,
            )
            serial_stats = serial.runtime_stats
            differ = {
                name: (getattr(stats, name), getattr(serial_stats, name))
                for name in SHARD_INVARIANT_COUNTERS
                if getattr(stats, name) != getattr(serial_stats, name)
            }
            assert not differ, f"sharded counters differ from serial: {differ}"
            report["counters_equal_serial"] = True
    return report


def _scaling(circuit, windows, profiles, n_samples, chunk_words, jobs_list):
    """Shard-worker scaling sweep at one streaming configuration.

    Every sharded row's trajectory is asserted byte-identical to the
    serial (jobs=1) row; wall-clock speedup vs. serial is recorded per
    row and the ≥ ``MIN_SHARD_SPEEDUP``× bar at ≥ 4 workers is enforced
    only when the host exposes ≥ 4 usable cores.
    """
    rows = []
    serial_wall = None
    serial_key = None
    cores = _usable_cores()
    for jobs in jobs_list:
        wall_s, result = _run_streaming_once(
            circuit, windows, profiles, n_samples, chunk_words,
            ITERATIONS_STREAMING, shard_jobs=jobs,
        )
        stats = result.runtime_stats
        _assert_fault_free(stats, f"scaling at {jobs} workers")
        key = _trajectory_key(result)
        if serial_wall is None:
            serial_wall, serial_key = wall_s, key
        assert key == serial_key, (
            f"sharded trajectory at {jobs} workers diverged from serial"
        )
        rows.append({
            "shard_jobs": jobs,
            "wall_s": round(wall_s, 3),
            "speedup_vs_serial": round(serial_wall / wall_s, 3),
            "candidate_samples_per_sec": round(
                result.n_evaluations * n_samples / wall_s
            ),
            "n_shard_tasks": stats.n_shard_tasks,
            "n_chunk_passes": stats.n_chunk_passes,
            "peak_sample_matrix_mb_per_process": round(
                stats.peak_sample_matrix_bytes / 1e6, 3
            ),
            "trajectory_identical_to_serial": True,  # asserted above
        })
    section = {
        "n_samples": n_samples,
        "chunk_words": chunk_words,
        "usable_cores": cores,
        "rows": rows,
    }
    wide = [r for r in rows if r["shard_jobs"] >= 4]
    if cores >= 4 and wide:
        best = max(r["speedup_vs_serial"] for r in wide)
        assert best >= MIN_SHARD_SPEEDUP, (
            f"shard speedup {best} below {MIN_SHARD_SPEEDUP}x at >=4 "
            f"workers on a {cores}-core host"
        )
    return section


def _merge_section(section_name: str, section: dict, write: bool) -> None:
    if not write:
        return
    report = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    report[section_name] = section
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def run_streaming(
    n_samples: int, chunk_words: int, shard_jobs: int = 1,
    write: bool = True,
) -> dict:
    """The ``--samples`` mode: streaming section only, merged into the
    committed JSON (the full-run sections are left untouched)."""
    circuit, windows, profiles = _setup(smoke=False)
    section = _streaming(
        circuit,
        windows,
        profiles,
        n_samples,
        chunk_words,
        ITERATIONS_STREAMING,
        verify_resident=False,
        shard_jobs=shard_jobs,
    )
    _merge_section("streaming", section, write)
    return section


def run_scaling(
    n_samples: int, chunk_words: int, jobs_list=SCALING_JOBS,
    write: bool = True, smoke: bool = False,
) -> dict:
    """The ``--scaling`` mode: shard sweep section only, merged into the
    committed JSON (``smoke`` shrinks the sweep to CI scale and writes
    nothing, like every other smoke mode)."""
    circuit, windows, profiles = _setup(smoke)
    section = _scaling(
        circuit, windows, profiles, n_samples, chunk_words, list(jobs_list)
    )
    _merge_section("streaming_scaling", section, write and not smoke)
    return section


def run(smoke: bool = False, write: bool = True, shard_jobs: int = 1) -> dict:
    circuit, windows, profiles = _setup(smoke)
    n_samples = SAMPLES_SMOKE if smoke else SAMPLES_FULL
    report = {
        "bench": "explore_engine",
        "smoke": smoke,
        "benchmark": BENCH_NAME,
        "window": WINDOW,
        "n_windows": len(windows),
        "n_nodes": circuit.n_nodes,
        "preview": _preview_throughput(
            circuit,
            windows,
            profiles,
            n_samples,
            iterations=ITERATIONS_SMOKE if smoke else ITERATIONS_FULL,
        ),
        "explore": _explore_end_to_end(
            circuit,
            windows,
            profiles,
            n_samples,
            ITERATIONS_SMOKE if smoke else ITERATIONS_FULL,
        ),
        # The chunked path, exercised on every run (tiny chunk so several
        # chunk boundaries land inside the sample set) and asserted
        # trajectory-identical to resident execution — sharded across
        # worker processes when --shard-jobs asks for it (the CI leg).
        "streaming_smoke": _streaming(
            circuit,
            windows,
            profiles,
            n_samples,
            CHUNK_WORDS_SMOKE,
            ITERATIONS_SMOKE,
            verify_resident=True,
            shard_jobs=shard_jobs,
        ),
    }
    assert report["explore"]["trajectories_byte_identical"], (
        "compiled trajectories diverged from the reference engine"
    )
    prev, expl = report["preview"], report["explore"]
    assert (
        prev["compiled"]["sweep_units_per_preview"]
        < prev["reference"]["sweep_units_per_preview"]
    ), "stacked scan passes did not reduce sweep units"
    assert (
        0 < prev["compiled"]["scan_gate_words"]
        < prev["compiled"]["dense_gate_words"]
    ), "the stacked scan evaluated as many gate words as a dense scan"
    if not smoke:
        # Wall-clock is noisy on shared CI boxes; only the full local run
        # (the committed BENCH_explore.json) must clear the speedup bars.
        assert prev["preview_speedup"] >= MIN_PREVIEW_SPEEDUP, (
            f"preview speedup {prev['preview_speedup']} below "
            f"{MIN_PREVIEW_SPEEDUP}x"
        )
        assert expl["explore_speedup"] >= MIN_EXPLORE_SPEEDUP, (
            f"explore speedup {expl['explore_speedup']} below "
            f"{MIN_EXPLORE_SPEEDUP}x"
        )
        if write:
            # Preserve the sections prior --samples/--scaling runs wrote;
            # the full run refreshes every other section.
            if OUT_PATH.exists():
                prior = json.loads(OUT_PATH.read_text())
                for section in ("streaming", "streaming_scaling"):
                    if section in prior:
                        report[section] = prior[section]
            OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_explore_engine_smoke() -> None:
    run(smoke=True, write=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration for CI (no JSON written)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="streaming mode: run only the chunked-engine section at this "
        f"many Monte-Carlo patterns (paper scale: {SAMPLES_STREAMING})",
    )
    parser.add_argument(
        "--chunk-words",
        type=int,
        default=CHUNK_WORDS_STREAMING,
        help="packed words per chunk for the --samples/--scaling modes",
    )
    parser.add_argument(
        "--shard-jobs",
        type=int,
        default=None,
        help="shard worker processes for the streaming legs (--samples "
        "and the --smoke streaming section; trajectory identity is still "
        "asserted).  With --scaling, sweeps {1, N} instead of the default "
        f"{SCALING_JOBS}",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="shard-worker scaling sweep at --samples scale (default "
        f"{SAMPLES_STREAMING} patterns, workers {SCALING_JOBS}); records "
        "wall time and peak per-process sample-matrix bytes per row.  "
        "Honors --smoke (CI-sized sweep, nothing written)",
    )
    args = parser.parse_args()
    if args.scaling:
        jobs_list = (
            SCALING_JOBS
            if args.shard_jobs is None
            else sorted({1, max(args.shard_jobs, 1)})
        )
        if args.smoke:
            report = run_scaling(
                SAMPLES_SMOKE, CHUNK_WORDS_SMOKE, jobs_list, smoke=True
            )
        else:
            report = run_scaling(
                args.samples or SAMPLES_STREAMING, args.chunk_words, jobs_list
            )
    elif args.samples is not None:
        report = run_streaming(
            args.samples, args.chunk_words, shard_jobs=args.shard_jobs or 1
        )
    else:
        report = run(smoke=args.smoke, shard_jobs=args.shard_jobs or 1)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
