"""Evaluation utilities: Pareto-front tooling for the paper's figures."""

from .pareto import (
    area_at_error,
    dominance_count,
    exploration_front,
    hypervolume,
    pareto_front,
    strategy_fronts,
    trajectory_points,
)

__all__ = [
    "area_at_error",
    "dominance_count",
    "exploration_front",
    "hypervolume",
    "pareto_front",
    "strategy_fronts",
    "trajectory_points",
]
