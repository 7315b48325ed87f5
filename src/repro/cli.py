"""Command-line interface: run BLASYS flows from a shell.

Examples::

    blasys run --bench mult8 --thresholds 0.05 0.25
    blasys run --blif mydesign.blif --thresholds 0.1 --out approx.blif
    blasys table1
    blasys compare --bench adder32 --thresholds 0.05 0.25   # vs SALSA
    blasys lint                # contract lint over the shipped package
    blasys lint src tests      # explicit paths
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import BENCHMARK_ORDER, get_benchmark
from .baselines import run_salsa
from .circuit import read_blif, write_blif, write_verilog
from .core.explorer import STRATEGIES, ExplorerConfig, explore
from .errors import ExplorationError, ShutdownRequested
from .flow import run_blasys
from .runtime import CancelToken, ShutdownGuard
from .synth import evaluate_design


def _load_circuit(args):
    if args.bench:
        return get_benchmark(args.bench).factory()
    if args.blif:
        return read_blif(args.blif)
    raise SystemExit("provide --bench NAME or --blif FILE")


def _config(args) -> ExplorerConfig:
    # Checkpoint flag coherence: --checkpoint-every and --resume only
    # mean something relative to a checkpoint path.  Accepting them
    # alone would silently drop the user's durability request (no file
    # ever written), so both are hard errors rather than warnings.
    if args.checkpoint_every is not None and not args.checkpoint:
        raise ExplorationError(
            "--checkpoint-every requires --checkpoint PATH: the period "
            "controls how often the checkpoint file is written, so "
            "without a path no checkpoint would ever be produced"
        )
    if args.resume and not args.checkpoint:
        raise ExplorationError(
            "--resume requires --checkpoint PATH: progress made after "
            "resuming would otherwise be un-checkpointed, and a second "
            "interruption would lose it (pass the same path to resume "
            "in place, or a new one to fork the run)"
        )
    return ExplorerConfig(
        max_inputs=args.k,
        max_outputs=args.m,
        n_samples=args.samples,
        strategy=args.strategy,
        weight_mode=args.weights,
        seed=args.seed,
        jobs=args.jobs,
        shard_jobs=args.shard_jobs,
        cache_dir=args.cache_dir,
        engine=args.engine,
        chunk_words=args.chunk_words,
        chunk_budget_mb=args.chunk_budget_mb,
        sanitize=True if args.sanitize else None,
        shard_timeout=args.shard_timeout,
        shard_retries=args.shard_retries,
        faults=args.faults,
        checkpoint_path=args.checkpoint,
        checkpoint_every=(
            1 if args.checkpoint_every is None else args.checkpoint_every
        ),
        resume=args.resume,
        max_evaluations=args.max_evaluations,
        anneal_t0=args.anneal_t0,
        anneal_alpha=args.anneal_alpha,
        anneal_stall=args.anneal_stall,
        bo_init=args.bo_init,
        bo_lengthscale=args.bo_lengthscale,
        ranker_epsilon=args.ranker_epsilon,
        ranker_lr=args.ranker_lr,
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bench", help=f"benchmark name ({', '.join(BENCHMARK_ORDER)})")
    p.add_argument("--blif", help="path to a combinational BLIF file")
    p.add_argument("--thresholds", type=float, nargs="+", default=[0.05],
                   help="average-relative-error thresholds")
    p.add_argument("--k", type=int, default=10, help="window input budget")
    p.add_argument("--m", type=int, default=10, help="window output budget")
    p.add_argument("--samples", type=int, default=4096,
                   help="Monte-Carlo samples during exploration")
    p.add_argument("--strategy", choices=list(STRATEGIES), default="lazy",
                   help="candidate selection: greedy sweeps (full/lazy) or "
                        "the stochastic portfolio (anneal/bo/ranker); every "
                        "strategy is seed-deterministic and replayable")
    p.add_argument("--max-evaluations", type=int, default=None,
                   help="hard cap on candidate evaluations — the "
                        "equal-budget knob for comparing strategies")
    p.add_argument("--anneal-t0", type=float, default=0.05,
                   help="annealing initial temperature")
    p.add_argument("--anneal-alpha", type=float, default=0.97,
                   help="annealing geometric cooling factor per move")
    p.add_argument("--anneal-stall", type=int, default=24,
                   help="consecutive rejections that stop the annealing walk")
    p.add_argument("--bo-init", type=int, default=6,
                   help="random warm-up proposals before the BO surrogate "
                        "takes over")
    p.add_argument("--bo-lengthscale", type=float, default=0.25,
                   help="RBF kernel lengthscale over the normalized degree "
                        "vector")
    p.add_argument("--ranker-epsilon", type=float, default=0.15,
                   help="move-ranker epsilon-greedy exploration rate")
    p.add_argument("--ranker-lr", type=float, default=0.5,
                   help="move-ranker online logistic learning rate")
    # "significance" is the paper's WQoR flow (§3.2) and the ExplorerConfig
    # default; "uniform" is Figure 4's control arm.
    p.add_argument("--weights", choices=["uniform", "significance"],
                   default="significance", help="BMF QoR weighting (§3.2)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for profiling and, unless "
                        "--shard-jobs overrides it, streaming shard scans "
                        "(0 = all cores)")
    p.add_argument("--shard-jobs", type=int, default=None,
                   help="worker processes for the streaming engine's "
                        "chunk-sharded candidate scans (default: follow "
                        "--jobs; 0 = all cores; requires --chunk-words or "
                        "--chunk-budget-mb; trajectories stay byte-identical "
                        "for any worker count)")
    p.add_argument("--cache-dir",
                   help="persistent profiling cache directory; warm runs "
                        "skip factorization and variant synthesis")
    p.add_argument("--engine", choices=["compiled", "reference"],
                   default="compiled",
                   help="candidate-evaluation engine (trajectories are "
                        "byte-identical; 'reference' is the interpreted "
                        "oracle)")
    p.add_argument("--chunk-words", type=int, default=None,
                   help="streaming execution: packed words per pattern-axis "
                        "chunk (bounds sample-matrix memory; trajectories "
                        "stay byte-identical to resident execution)")
    p.add_argument("--chunk-budget-mb", type=float, default=None,
                   help="auto-pick --chunk-words from a sample-matrix "
                        "memory budget in MB (resident when it already fits)")
    p.add_argument("--sanitize", action="store_true",
                   help="runtime contract sanitizer: freeze cache-held "
                        "arrays, assert tail-bit masks, audit shard "
                        "payloads (same as REPRO_SANITIZE=1; trajectories "
                        "are unchanged — it only adds tripwires)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   help="per-attempt wall-clock bound in seconds for "
                        "supervised pool work; a hung worker is timed out, "
                        "the pool rebuilt and the item retried (default: "
                        "wait forever)")
    p.add_argument("--shard-retries", type=int, default=2,
                   help="pool re-submissions per failed shard/task before "
                        "it falls back to in-process execution (results "
                        "are byte-identical either way)")
    p.add_argument("--faults", default=None,
                   help="deterministic fault-injection spec for chaos "
                        "testing, e.g. 'crash:shard=0,attempt=0,scan=0;"
                        "pool:scan=1' (same as REPRO_FAULTS; grammar in "
                        "DESIGN.md 'Fault tolerance')")
    p.add_argument("--checkpoint", default=None,
                   help="write an atomic exploration checkpoint to this "
                        "path every --checkpoint-every committed "
                        "iterations")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="commit period of checkpoint writes (default 1; "
                        "requires --checkpoint)")
    p.add_argument("--resume", default=None,
                   help="resume exploration from this checkpoint; the "
                        "final trajectory is byte-identical to an "
                        "uninterrupted run (the checkpoint must match the "
                        "circuit and search-defining flags)")


def _interrupted(guard: ShutdownGuard, config: ExplorerConfig) -> int:
    """Report a signal-interrupted run; exit code is ``128 + signum``."""
    import signal as _signal

    name = (
        _signal.Signals(guard.signum).name
        if guard.signum is not None else "shutdown"
    )
    tail = (
        f"; checkpoint flushed to {config.checkpoint_path} (pass "
        f"--resume {config.checkpoint_path} to continue)"
        if config.checkpoint_path else
        " (no --checkpoint was set, so progress is not recoverable)"
    )
    print(f"interrupted by {name}{tail}", file=sys.stderr)
    return 128 + guard.signum if guard.signum is not None else 1


def _cmd_run(args) -> int:
    circuit = _load_circuit(args)
    config = _config(args)
    # A Ctrl-C / SIGTERM during exploration cancels cooperatively: the
    # greedy loop stops at the next iteration boundary, worker pools are
    # closed (no orphan processes), and the final checkpoint — when
    # --checkpoint is set — is flushed before we exit.
    token = CancelToken()
    guard = ShutdownGuard(token)
    try:
        with guard:
            result = run_blasys(
                circuit, thresholds=args.thresholds, config=config,
                cancel=token,
            )
    except ShutdownRequested:
        return _interrupted(guard, config)
    print(result.summary())
    if args.out and result.designs:
        best = result.designs[min(result.designs)]
        if args.out.endswith(".v"):
            write_verilog(best.circuit, args.out)
        else:
            write_blif(best.circuit, args.out)
        print(f"wrote approximate design for thr={min(result.designs):.0%} to {args.out}")
    return 0


def _cmd_table1(args) -> int:
    print(f"{'Name':8s} {'I/O':>7s} {'Area(um2)':>10s} {'Power(uW)':>10s} {'Delay(ns)':>10s}")
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        circuit = bench.factory()
        metrics = evaluate_design(circuit, match_macros=False,
                                  n_activity_samples=args.samples)
        io = f"{circuit.n_inputs}/{circuit.n_outputs}"
        print(f"{bench.name:8s} {io:>7s} {metrics.area_um2:10.1f} "
              f"{metrics.power_uw:10.1f} {metrics.delay_ns:10.2f}")
    return 0


def _cmd_lint(args) -> int:
    # Deferred import: the analysis package is pure tooling and the
    # run/table1/compare paths should not pay for loading it.
    from .analysis.linter import main as lint_main

    lint_args = list(args.paths)
    if args.list_rules:
        lint_args.append("--list-rules")
    if args.no_shard_audit:
        lint_args.append("--no-shard-audit")
    return lint_main(lint_args)


def _cmd_compare(args) -> int:
    circuit = _load_circuit(args)
    config = _config(args)
    from dataclasses import replace

    config = replace(config, threshold=max(args.thresholds))
    base = evaluate_design(circuit, match_macros=False,
                           n_activity_samples=2048)
    token = CancelToken()
    guard = ShutdownGuard(token)
    try:
        with guard:
            blasys = explore(circuit, config, cancel=token)
            salsa = run_salsa(circuit, config)
    except ShutdownRequested:
        return _interrupted(guard, config)
    print(f"{circuit.name}: baseline {base.area_um2:.1f} um2")
    for thr in args.thresholds:
        cols = []
        for res, label in ((blasys, "BLASYS"), (salsa, "SALSA")):
            point = res.best_point(thr)
            if point is None or point.iteration == 0:
                cols.append(f"{label} 0.0%")
                continue
            realized = res.realize(point)
            m = evaluate_design(realized, match_macros=False,
                                n_activity_samples=2048)
            saving = 100.0 * (1 - m.area_um2 / base.area_um2)
            cols.append(f"{label} {saving:5.1f}%")
        print(f"  thr={thr:>5.0%}: " + "  ".join(cols))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blasys",
        description="BLASYS reproduction: BMF-based approximate logic synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the BLASYS flow on a circuit")
    _add_common(p_run)
    p_run.add_argument("--out", help="write the tightest-threshold design (.blif/.v)")
    p_run.set_defaults(fn=_cmd_run)

    p_t1 = sub.add_parser("table1", help="accurate-design metrics (Table 1)")
    p_t1.add_argument("--samples", type=int, default=2048)
    p_t1.set_defaults(fn=_cmd_table1)

    p_cmp = sub.add_parser("compare", help="BLASYS vs SALSA (Table 3)")
    _add_common(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_lint = sub.add_parser(
        "lint",
        help="contract linter: determinism/aliasing/pickle-safety rules "
             "(DESIGN.md 'Static contracts')",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule set and exit")
    p_lint.add_argument("--no-shard-audit", action="store_true",
                        help="skip the import-based shard payload audit")
    p_lint.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
