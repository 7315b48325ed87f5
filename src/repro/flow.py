"""End-to-end BLASYS flow: decompose → profile → explore → realize → report.

This is the library's main entry point, mirroring the paper's evaluation
procedure (§4): run Algorithm 1 against an error threshold, realize the
chosen approximate netlist, synthesize both it and the accurate baseline
through the same cost oracle, and report savings plus independently
re-measured error metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import ExplorationError
from .circuit.netlist import Circuit
from .circuit.simulate import simulate_outputs
from .circuit.stimulus import stimulus_input_words
from .core.explorer import (
    ExplorationResult,
    ExplorerConfig,
    TrajectoryPoint,
    explore,
)
from .core.qor import QoREvaluator, QoRSpec
from .runtime import CancelToken, format_bytes
from .synth.library import DEFAULT_CLOCK_MHZ, LIB65, Library
from .synth.synthesis import DesignMetrics, evaluate_design


@dataclass(frozen=True)
class RealizedDesign:
    """One approximate design realized at a threshold.

    Attributes:
        threshold: The error threshold this design was selected for.
        point: The trajectory point it realizes.
        circuit: The synthesized approximate netlist.
        metrics: Area/power/delay of the realized netlist.
        measured: Independently re-measured error metrics (fresh samples).
        savings: Percent savings vs. the accurate baseline.
    """

    threshold: float
    point: TrajectoryPoint
    circuit: Circuit
    metrics: DesignMetrics
    measured: Dict[str, float]
    savings: Dict[str, float]


@dataclass
class FlowResult:
    """Output of :func:`run_blasys`."""

    circuit: Circuit
    baseline: DesignMetrics
    exploration: ExplorationResult
    designs: Dict[float, RealizedDesign] = field(default_factory=dict)
    #: Metric that drove exploration; the summary reports it, not always mre.
    qor_metric: str = "mre"

    def summary(self) -> str:
        """Human-readable per-threshold savings table (Table 2 style)."""
        lines = [
            f"{self.circuit.name}: baseline area={self.baseline.area_um2:.1f}um2 "
            f"power={self.baseline.power_uw:.1f}uW delay={self.baseline.delay_ns:.2f}ns"
        ]
        for thr in sorted(self.designs):
            d = self.designs[thr]
            val = d.measured[self.qor_metric]
            shown = (
                f"{val:.2%}" if self.qor_metric in ("mre", "nmae") else f"{val:.4g}"
            )
            lines.append(
                f"  thr={thr:>5.0%}  area-{d.savings['area']:5.1f}%  "
                f"power-{d.savings['power']:5.1f}%  delay-{d.savings['delay']:5.1f}%  "
                f"(measured {self.qor_metric} {shown})"
            )
        stats = self.exploration.runtime_stats
        if stats is not None:
            lines.append(f"  {stats.summary()}")
            if stats.peak_sample_matrix_bytes:
                chunk = (
                    f"{stats.chunk_words} words"
                    if stats.chunk_words
                    else "resident (unchunked)"
                )
                per_process = (
                    " per process" if stats.shard_jobs > 1 else ""
                )
                lines.append(
                    f"  memory: peak sample matrix "
                    f"{format_bytes(stats.peak_sample_matrix_bytes)}"
                    f"{per_process}, chunk size {chunk}"
                )
            if stats.n_shard_tasks:
                lines.append(
                    f"  sharding: {stats.n_shard_tasks} shard tasks on "
                    f"{stats.shard_jobs} worker(s), "
                    f"{stats.n_stacked_blocks} stacked candidate blocks, "
                    f"chunk cache {stats.n_chunk_cache_hits} hit / "
                    f"{stats.n_chunk_cache_misses} miss"
                )
        return "\n".join(lines)


def measure_error(
    accurate: Circuit,
    approximate: Circuit,
    n_samples: int = 65536,
    seed: int = 1234,
    spec: QoRSpec = QoRSpec(),
) -> Dict[str, float]:
    """Monte-Carlo error metrics of ``approximate`` vs ``accurate``.

    Uses a sample set independent of the one that guided exploration, like
    the paper's final 10^6-vector evaluation.  All metrics are returned;
    ``spec`` additionally exposes its configured metric under the ``"qor"``
    key so callers can read the driving metric uniformly.
    """
    if accurate.n_inputs != approximate.n_inputs:
        raise ExplorationError("circuits have different input counts")
    rng = np.random.default_rng(seed)
    words = stimulus_input_words(accurate, n_samples, rng)
    exact_out = simulate_outputs(accurate, words, n_samples=n_samples)
    approx_out = simulate_outputs(approximate, words, n_samples=n_samples)
    evaluator = QoREvaluator(accurate, exact_out, n_samples, spec)
    metrics = evaluator.metrics(approx_out)
    metrics["qor"] = metrics[spec.metric]
    return metrics


def run_blasys(
    circuit: Circuit,
    thresholds: Sequence[float] = (0.05,),
    config: Optional[ExplorerConfig] = None,
    final_samples: int = 65536,
    library: Library = LIB65,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
    activity_samples: int = 2048,
    cancel: Optional[CancelToken] = None,
) -> FlowResult:
    """Run the complete BLASYS flow against one or more error thresholds.

    Args:
        circuit: Accurate input circuit (word metadata recommended; see
            :mod:`repro.bench` for examples).
        thresholds: Error thresholds (in the explorer's metric, default
            average relative error) to realize designs for.
        config: Exploration configuration; its ``threshold`` is overridden
            with ``max(thresholds)`` unless it is already an exhaustive
            (``None`` + ``error_cap``) setup.  A configured threshold below
            ``max(thresholds)`` raises :class:`ExplorationError` instead of
            silently realizing nothing at the larger thresholds.
        final_samples: Sample count for the independent error re-measurement.
        cancel: Cooperative cancellation token forwarded to
            :func:`~repro.core.explorer.explore`.

    Raises:
        ExplorationError: No thresholds given, or ``config.threshold`` is
            inconsistent with (smaller than) the requested thresholds.

    Returns:
        A :class:`FlowResult` with baseline metrics, the full exploration
        trajectory, and one realized design per threshold.
    """
    if not thresholds:
        raise ExplorationError("need at least one threshold")
    config = config or ExplorerConfig()
    top = max(thresholds)
    if config.threshold is None and config.error_cap is None:
        config = _replace_threshold(config, top)
    elif config.threshold is not None and config.threshold < top:
        raise ExplorationError(
            f"config.threshold={config.threshold} is below the largest "
            f"requested threshold {top}; exploration would stop early and "
            "silently produce no design there — raise config.threshold "
            "(or leave it None) or drop the larger thresholds"
        )

    baseline = evaluate_design(
        circuit,
        library,
        n_activity_samples=activity_samples,
        clock_mhz=clock_mhz,
        match_macros=config.match_macros,
    )
    exploration = explore(circuit, config, cancel=cancel)

    result = FlowResult(
        circuit, baseline, exploration, qor_metric=config.qor.metric
    )
    for thr in thresholds:
        point = exploration.best_point(thr)
        if point is None or point.iteration == 0:
            continue  # no approximation fits this threshold
        realized = exploration.realize(point)
        metrics = evaluate_design(
            realized,
            library,
            n_activity_samples=activity_samples,
            clock_mhz=clock_mhz,
            match_macros=config.match_macros,
        )
        measured = measure_error(
            circuit, realized, final_samples, spec=config.qor
        )
        result.designs[thr] = RealizedDesign(
            threshold=thr,
            point=point,
            circuit=realized,
            metrics=metrics,
            measured=measured,
            savings=metrics.savings_vs(baseline),
        )
    return result


def _replace_threshold(config: ExplorerConfig, threshold: float) -> ExplorerConfig:
    """Copy ``config`` with a new stop threshold (dataclass is frozen)."""
    from dataclasses import replace

    return replace(config, threshold=threshold)
