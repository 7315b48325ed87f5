"""The paper's primary contribution: BMF-based approximate synthesis."""

from . import bmf
from .qor import METRICS, QoREvaluator, QoRSpec, circuit_words
from .incremental import IncrementalEvaluator
from .engine import CompiledEvaluator
from .profile import (
    CandidateVariant,
    WEIGHT_MODES,
    WindowProfile,
    output_significance,
    profile_windows,
    window_weights,
)
from .explorer import (
    STRATEGIES,
    ExplorationResult,
    ExplorerConfig,
    TrajectoryPoint,
    explore,
)

__all__ = [
    "CandidateVariant",
    "CompiledEvaluator",
    "ExplorationResult",
    "ExplorerConfig",
    "IncrementalEvaluator",
    "METRICS",
    "QoREvaluator",
    "QoRSpec",
    "STRATEGIES",
    "TrajectoryPoint",
    "WEIGHT_MODES",
    "WindowProfile",
    "bmf",
    "circuit_words",
    "explore",
    "output_significance",
    "profile_windows",
    "window_weights",
]
