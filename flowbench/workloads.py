"""Workload definitions, set-up, and the untraced ``run_blasys`` leg.

A workload is a fixed list of legs; a leg is one ``run_blasys`` call on a
registry circuit.  The workload seed becomes ``ExplorerConfig.seed`` (the
exploration's Monte-Carlo vectors) and seeds the correctness gate's fresh
vectors; circuits come from the registry generators.  The benchmark sets
only stable config fields: ``n_samples``, ``seed``, ``strategy``,
``cache_dir``, stop bounds, and, for the streaming leg, ``chunk_words`` and
``shard_jobs``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.bench.registry import get_benchmark
from repro.core.explorer import ExplorerConfig
from repro.core.profile import profile_windows
from repro.flow import run_blasys
from repro.partition import decompose
from repro.runtime import ProfileCache, RetryPolicy

from gate import leg_digest, resilience_events


@dataclass(frozen=True)
class Leg:
    circuit: str
    thresholds: Tuple[float, ...]
    strategy: str = "full"
    n_samples: int = 4096
    final_samples: int = 65536
    max_iterations: Optional[int] = None
    chunk_words: Optional[int] = None
    shard_jobs: Optional[int] = None

    def config(self, seed: int, cache_dir: str) -> ExplorerConfig:
        return ExplorerConfig(
            n_samples=self.n_samples,
            seed=seed,
            strategy=self.strategy,
            cache_dir=cache_dir,
            max_iterations=self.max_iterations,
            chunk_words=self.chunk_words,
            shard_jobs=self.shard_jobs,
        )


@dataclass(frozen=True)
class Workload:
    legs: Tuple[Leg, ...]
    #: Prefill one profile cache in set-up and share it across legs;
    #: otherwise every leg starts from a fresh, empty cache directory.
    warm: bool
    #: Set-up repetitions per run; ``setup_s`` reports their median.
    setup_reps: int


_THR3 = (0.01, 0.02, 0.05)
_PAPER = dict(
    n_samples=262144, final_samples=1_000_000, max_iterations=10,
    chunk_words=512, shard_jobs=2,
)

WORKLOADS: Dict[str, Workload] = {
    "flow_cold": Workload(
        (Leg("adder32", _THR3), Leg("mult8", _THR3), Leg("mac", _THR3)),
        warm=False, setup_reps=5,
    ),
    # The paper-scale streaming leg rides on the warm workload rather than
    # being a workload of its own: alone, its two-process wall spread too
    # much from run to run on a 2-core host to hold a regression bound.
    "sweep_warm": Workload(
        (Leg("fir", (0.01,), "full"), Leg("fir", (0.01,), "lazy"),
         Leg("mult8", (0.05,), **_PAPER)),
        warm=True, setup_reps=1,
    ),
}

#: Reduced sizes for ``--small`` (the self-test): the same code path per
#: workload — cold/warm cache, both strategies, streaming + sharding — on
#: the smallest registry circuit.
SMALL: Dict[str, Workload] = {
    "flow_cold": Workload((Leg("adder32", (0.05,)),), warm=False, setup_reps=1),
    "sweep_warm": Workload(
        (Leg("adder32", (0.02, 0.05), "full"), Leg("adder32", (0.02, 0.05), "lazy"),
         Leg("adder32", (0.05,), n_samples=16384, final_samples=131072,
             max_iterations=4, chunk_words=64, shard_jobs=2)),
        warm=True, setup_reps=1,
    ),
}


def run_config(leg: Leg, seed: int, cache_dir: str) -> ExplorerConfig:
    """The config ``run_blasys`` explores with (threshold = max of the leg's)."""
    return replace(leg.config(seed, cache_dir), threshold=max(leg.thresholds))


def decompose_args(config: ExplorerConfig) -> tuple:
    return config.max_inputs, config.max_outputs, config.refine_passes


def profile_kwargs(config: ExplorerConfig) -> dict:
    """The ``profile_windows`` arguments ``explore()`` derives from ``config``."""
    return dict(
        method=config.method,
        algebra=config.algebra,
        taus=config.taus,
        weight_mode=config.weight_mode,
        selection=config.selection,
        library=config.library,
        espresso_options=config.espresso,
        estimate_area=config.estimate_area,
        match_macros=config.match_macros,
        jobs=config.jobs,
        cache=ProfileCache(config.cache_dir) if config.cache_dir else None,
        policy=RetryPolicy(
            max_retries=config.shard_retries, timeout=config.shard_timeout
        ),
    )


def make_circuits(workload: Workload) -> Dict[str, object]:
    """One freshly generated circuit per distinct registry name."""
    names = dict.fromkeys(leg.circuit for leg in workload.legs)
    return {name: get_benchmark(name).factory() for name in names}


def prefill(workload: Workload, circuits, cache_dir: str) -> None:
    """Fill ``cache_dir`` with every leg's window profiles (warm set-up)."""
    for leg in workload.legs:
        circuit = circuits[leg.circuit]
        config = leg.config(0, cache_dir)  # profiles do not depend on the seed
        windows = decompose(circuit, *decompose_args(config))
        profile_windows(circuit, windows, **profile_kwargs(config))


@dataclass
class LegOutcome:
    """What one leg produced, in the form the gate checks."""

    wall_s: float = 0.0
    #: threshold -> realized approximate circuit
    designs: Dict[float, object] = field(default_factory=dict)
    #: threshold -> {"area": %, "power": %, "delay": %}
    savings: Dict[float, Dict[str, float]] = field(default_factory=dict)
    digest: str = ""
    resilience_events: int = 0
    kernel_backend: str = ""
    error: str = ""


def run_leg(leg: Leg, circuit, seed: int, cache_dir: str) -> LegOutcome:
    """One untraced ``run_blasys`` call, timed around the call alone."""
    t0 = time.perf_counter()
    try:
        result = run_blasys(
            circuit,
            thresholds=leg.thresholds,
            config=leg.config(seed, cache_dir),
            final_samples=leg.final_samples,
        )
    except Exception:  # a raising call is a failed operation
        return LegOutcome(error=traceback.format_exc())
    wall = time.perf_counter() - t0
    stats = result.exploration.runtime_stats
    return LegOutcome(
        wall_s=wall,
        designs={thr: d.circuit for thr, d in result.designs.items()},
        savings={thr: d.savings for thr, d in result.designs.items()},
        digest=leg_digest(
            result.exploration,
            {thr: (d.point, d.metrics, d.measured)
             for thr, d in result.designs.items()},
        ),
        resilience_events=resilience_events(stats),
        kernel_backend=stats.kernel_backend,
    )
