"""Traced replay of ``run_blasys`` and the per-layer metrics it yields.

The replay calls the flow's public functions one by one, with the arguments
``run_blasys`` would pass them, and records one span per call:

    evaluate_design(baseline) -> decompose -> profile_windows ->
    explore(windows=, profiles=) -> per threshold:
    best_point / realize / evaluate_design / measure_error

Each leg is a root span; the layer spans are its children and share its
leg id.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from typing import Dict, List

from repro.core.explorer import explore
from repro.flow import measure_error
from repro.partition import decompose
from repro.core.profile import profile_windows
from repro.runtime import RuntimeStats
from repro.synth.library import DEFAULT_CLOCK_MHZ, LIB65
from repro.synth.synthesis import evaluate_design

from gate import leg_digest, resilience_events
from workloads import LegOutcome, decompose_args, profile_kwargs, run_config

#: ``run_blasys`` defaults the replay must match.
ACTIVITY_SAMPLES = 2048


def fraction(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder: name, start, end, parent, leg."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, leg: int):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on exit
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = {
                "id": sid, "name": name, "leg": leg, "parent": parent,
                "start": start, "end": end,
            }


def replay_leg(leg, circuit, seed, cache_dir, tracer: Tracer, leg_id: int):
    """Traced replay of one leg; returns ``(LegOutcome, layer record)``."""
    config = run_config(leg, seed, cache_dir)

    def synth(design):
        return evaluate_design(
            design, LIB65, n_activity_samples=ACTIVITY_SAMPLES,
            clock_mhz=DEFAULT_CLOCK_MHZ, match_macros=config.match_macros,
        )

    span = tracer.span
    profile_stats = RuntimeStats()
    designs, design_records = {}, {}
    root_id = len(tracer.spans)
    try:
        with span("leg", leg_id):
            with span("synth", leg_id):
                baseline = synth(circuit)
            with span("decompose", leg_id):
                windows = decompose(circuit, *decompose_args(config))
            with span("profile", leg_id):
                profiles = profile_windows(
                    circuit, windows, **profile_kwargs(config),
                    runtime_stats=profile_stats,
                )
            with span("explore", leg_id):
                exploration = explore(
                    circuit, config, windows=windows, profiles=profiles
                )
            for thr in leg.thresholds:
                with span("best_point", leg_id):
                    point = exploration.best_point(thr)
                if point is None or point.iteration == 0:
                    continue
                with span("realize", leg_id):
                    realized = exploration.realize(point)
                with span("synth", leg_id):
                    metrics = synth(realized)
                with span("measure", leg_id):
                    measured = measure_error(
                        circuit, realized, leg.final_samples, spec=config.qor
                    )
                designs[thr] = realized
                design_records[thr] = (point, metrics, measured)
    except Exception:  # a raising call is a failed operation
        return LegOutcome(error=traceback.format_exc()), None
    explore_stats = exploration.runtime_stats
    root = tracer.spans[root_id]
    outcome = LegOutcome(
        wall_s=root["end"] - root["start"],
        designs=designs,
        savings={
            thr: m.savings_vs(baseline) for thr, (_, m, _) in design_records.items()
        },
        digest=leg_digest(exploration, design_records),
        resilience_events=(
            resilience_events(profile_stats) + resilience_events(explore_stats)
        ),
        kernel_backend=explore_stats.kernel_backend,
    )
    record = {
        "leg": leg_id,
        "windows": len(windows),
        "profile": profile_stats,
        "explore": explore_stats,
        "iterations": len(exploration.trajectory) - 1,
        "evaluations": exploration.n_evaluations,
        "synth_calls": 1 + len(design_records),
        "measured_samples": leg.final_samples * len(design_records),
        "resilience_events": outcome.resilience_events,
    }
    return outcome, record


def layer_metrics(spans: List[dict], records: List[dict]) -> Dict[str, float]:
    """Per-layer split of one traced iteration (all legs summed)."""
    roots = {s["id"] for s in spans if s["parent"] is None}
    busy: Dict[str, float] = {}
    for s in spans:
        if s["parent"] in roots:
            busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
    traced_wall = sum(s["end"] - s["start"] for s in spans if s["id"] in roots)

    def total(kind: str, attr: str) -> int:
        return sum(getattr(r[kind], attr) for r in records)

    def count(key: str) -> int:
        return sum(r[key] for r in records)

    hits, misses = total("profile", "cache_hits"), total("profile", "cache_misses")
    sweeps = total("explore", "n_preview_sweeps")
    memo = total("explore", "n_preview_cache_hits")
    chunk_hits = total("explore", "n_chunk_cache_hits")
    chunk_misses = total("explore", "n_chunk_cache_misses")
    explore_s = busy.get("explore", 0.0)
    measure_s = busy.get("measure", 0.0)
    return {
        "decompose.s": busy.get("decompose", 0.0),
        "decompose.windows": count("windows"),
        "profile.s": busy.get("profile", 0.0),
        "profile.tasks_computed": total("profile", "tasks_computed"),
        "profile.factorizations": total("profile", "n_factorizations"),
        "profile.syntheses": total("profile", "n_syntheses"),
        "profile.dedup_hits": total("profile", "dedup_hits"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": fraction(hits, hits + misses),
        "explore.s": explore_s,
        "explore.iterations": count("iterations"),
        "explore.evaluations": count("evaluations"),
        "explore.evals_per_s": fraction(count("evaluations"), explore_s),
        "explore.preview_sweeps": sweeps,
        "explore.preview_memo_ratio": fraction(memo, memo + sweeps),
        "explore.sweep_units": total("explore", "n_sweep_units"),
        "explore.cones_compiled": total("explore", "n_cones_compiled"),
        "stream.chunk_passes": total("explore", "n_chunk_passes"),
        "stream.stacked_blocks": total("explore", "n_stacked_blocks"),
        "stream.chunk_cache_hit_ratio": fraction(
            chunk_hits, chunk_hits + chunk_misses
        ),
        "stream.peak_sample_matrix_mb": max(
            r["explore"].peak_sample_matrix_bytes for r in records
        ) / 1e6,
        "executor.shard_tasks": total("explore", "n_shard_tasks"),
        "executor.resilience_events": count("resilience_events"),
        "realize.s": busy.get("realize", 0.0),
        "synth.s": busy.get("synth", 0.0),
        "synth.calls": count("synth_calls"),
        "measure.s": measure_s,
        "measure.samples_per_s": fraction(count("measured_samples"), measure_s),
        "trace.coverage": fraction(sum(busy.values()), traced_wall),
    }
