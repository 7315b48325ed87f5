"""Search-strategy portfolio benchmark: stochastic searchers vs. greedy.

The greedy sweeps pay one full candidate scan per committed move; the
stochastic searchers (``anneal`` / ``ranker``) pay one preview
per *proposed* move.  At a constrained evaluation budget that trade is
the whole bet: greedy commits few well-chosen moves and leaves most of
the error/area plane unexplored, while a portfolio of seeded stochastic
walks covers it.  This benchmark makes the bet measurable and enforces
it:

* per circuit, run greedy (``full``) unconstrained to find the space's
  exhaustion cost ``E``, then give **every** strategy the same budget
  ``B = E / divisor`` via ``ExplorerConfig.max_evaluations``;
* a stochastic strategy spends its budget as a portfolio of restarts
  (seeds 7, 8, ... until the budget runs out), pooled into one Pareto
  front by :func:`repro.eval.strategy_fronts` — restarts are the
  intended way to spend leftover budget, since a single walk exhausts
  the move space long before greedy's scan cost does;
* fronts are compared by :func:`repro.eval.hypervolume` (reference point
  (1, 1)) and the mutual :func:`repro.eval.dominance_count`, and the
  run **asserts** that annealing matches or dominates the greedy front
  at the shared budget.

Configurations (chosen so the bet is structural, not seed luck —
validated at both the smoke and full sample scales):

* ``mult8`` at the 8x8 window budget, ``B = E/4`` — 28 windows make
  greedy's per-move scan ~25 evaluations, so at a quarter budget it
  commits only ~15 moves;
* ``adder8`` (8-bit ripple-carry) at a 4x4 window budget, ``B = E/2`` —
  finer windows give the walk a move space deep enough to search.

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_search.py           # full -> BENCH_search.json
    PYTHONPATH=src python benchmarks/bench_search.py --smoke   # CI (no JSON written)

and doubles as a pytest smoke test (``test_search_bench_smoke``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_search.json"

SAMPLES_FULL = 4096
SAMPLES_SMOKE = 512

#: (name, window budget (k, m), exhaustion-cost divisor for the shared
#: evaluation budget).
CIRCUITS = [
    ("mult8", (8, 8), 4),
    ("adder8", (4, 4), 2),
]

#: First portfolio seed; restarts use seed, seed+1, ...
SEED0 = 7
MAX_RESTARTS = 64

#: Strategies that must match-or-dominate greedy (the acceptance bar).
ASSERTED_STRATEGIES = ("anneal",)


def _circuit(name):
    from repro.bench import get_benchmark, ripple_adder

    if name == "adder8":
        return ripple_adder(8)
    return get_benchmark(name).factory()


def _setup(name, window):
    from repro.core.profile import profile_windows
    from repro.partition import decompose

    circuit = _circuit(name)
    windows = decompose(circuit, *window)
    profiles = profile_windows(circuit, windows)
    return circuit, windows, profiles


def _explore(circuit, windows, profiles, n_samples, window, **overrides):
    from repro.core.explorer import ExplorerConfig, explore

    config = ExplorerConfig(
        n_samples=n_samples,
        max_inputs=window[0],
        max_outputs=window[1],
        **overrides,
    )
    return explore(circuit, config, windows=windows, profiles=profiles)


def _portfolio(circuit, windows, profiles, n_samples, window, strategy, budget):
    """Seeded restarts of ``strategy`` until ``budget`` evaluations are
    spent (each restart capped at the remainder, so the total never
    exceeds the budget greedy got)."""
    results, spent, seed = [], 0, SEED0
    while spent < budget and len(results) < MAX_RESTARTS:
        result = _explore(
            circuit, windows, profiles, n_samples, window,
            strategy=strategy, seed=seed, max_evaluations=budget - spent,
        )
        spent += result.n_evaluations
        seed += 1
        results.append(result)
    return results, spent


def _bench_circuit(name, window, divisor, n_samples):
    from repro.core.search import SEARCHER_STRATEGIES
    from repro.eval import dominance_count, hypervolume, strategy_fronts, trajectory_points

    circuit, windows, profiles = _setup(name, window)
    t0 = time.perf_counter()

    # Exhaustion cost of the space under greedy, then the shared budget.
    exhaust = _explore(
        circuit, windows, profiles, n_samples, window, strategy="full"
    )
    budget = max(1, exhaust.n_evaluations // divisor)
    greedy = _explore(
        circuit, windows, profiles, n_samples, window,
        strategy="full", max_evaluations=budget,
    )

    results = [greedy]
    strategies = {"full": {"runs": 1, "evals_spent": greedy.n_evaluations}}
    for strategy in SEARCHER_STRATEGIES:
        runs, spent = _portfolio(
            circuit, windows, profiles, n_samples, window, strategy, budget
        )
        results.extend(runs)
        strategies[strategy] = {"runs": len(runs), "evals_spent": spent}

    fronts = strategy_fronts(results)
    greedy_front = fronts["full"]
    points = {
        s: [pt for r in results if r.config.strategy == s
            for pt in trajectory_points(r)]
        for s in fronts
    }
    for strategy, front in fronts.items():
        strategies[strategy].update({
            "front_size": len(front),
            "hypervolume": round(hypervolume(front), 6),
            # Mutual dominated-point counts against the greedy *front*:
            # how many of this strategy's trajectory points greedy's
            # front strictly dominates, and vice versa.
            "points_dominated_by_greedy_front": dominance_count(
                greedy_front, points[strategy]
            ),
            "greedy_points_dominated_by_front": dominance_count(
                front, points["full"]
            ),
        })

    greedy_hv = strategies["full"]["hypervolume"]
    for strategy in ASSERTED_STRATEGIES:
        row = strategies[strategy]
        matches = (
            row["hypervolume"] >= greedy_hv
            or row["greedy_points_dominated_by_front"]
            > row["points_dominated_by_greedy_front"]
        )
        assert matches, (
            f"{name}: {strategy} does not match-or-dominate greedy at a "
            f"budget of {budget} evaluations (hypervolume "
            f"{row['hypervolume']} vs {greedy_hv}, dominates "
            f"{row['greedy_points_dominated_by_front']} greedy points vs "
            f"{row['points_dominated_by_greedy_front']} dominated)"
        )
        row["matches_or_dominates_greedy"] = True

    return {
        "window": list(window),
        "n_windows": len(windows),
        "n_samples": n_samples,
        "exhaust_evals": exhaust.n_evaluations,
        "budget": budget,
        "budget_divisor": divisor,
        "wall_s": round(time.perf_counter() - t0, 3),
        "strategies": strategies,
    }


def run(smoke: bool = False, write: bool = True) -> dict:
    n_samples = SAMPLES_SMOKE if smoke else SAMPLES_FULL
    report = {
        "bench": "search_portfolio",
        "smoke": smoke,
        "seed0": SEED0,
        "asserted_strategies": list(ASSERTED_STRATEGIES),
        "circuits": {
            name: _bench_circuit(name, window, divisor, n_samples)
            for name, window, divisor in CIRCUITS
        },
    }
    if not smoke and write:
        OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_search_bench_smoke() -> None:
    run(smoke=True, write=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sample count for CI (no JSON written)",
    )
    args = parser.parse_args()
    print(json.dumps(run(smoke=args.smoke), indent=2))


if __name__ == "__main__":
    main()
