"""Greedy design-space exploration — Algorithm 1 of the paper.

Starting from the exact circuit (every window at degree ``f_i = m_i``), each
iteration previews, for every window, the whole-circuit QoR if that window's
degree were decremented, commits the window with the smallest error increase
and repeats until the error threshold is crossed (or the space is
exhausted).  The design-metric model during exploration is the paper's own:
circuit area ≈ sum of per-window synthesized areas.

Two greedy candidate-selection strategies are provided here:

* ``"full"`` — Algorithm 1 verbatim: every active window re-evaluated each
  iteration.
* ``"lazy"`` — lazy-greedy: stale errors are kept in a priority queue and a
  candidate is only re-evaluated when it reaches the top; chosen when its
  fresh error still beats the next stale entry.  Errors here are "almost"
  monotone in commits, so this gives near-identical trajectories at a
  fraction of the evaluations (the paper's future-work item on "fewer design
  point evaluations").

Beyond greedy, ``strategy`` also selects the stochastic portfolio in
:mod:`repro.core.search` — ``"anneal"`` (simulated annealing over
(window, degree) moves) and ``"ranker"`` (online logistic move-ranking).
They draw every random number from the run's single seeded generator
and checkpoint their internal state, so the byte-identical replay
discipline (across chunk sizes, shard counts, and checkpoint/resume
interruption points) extends to them unchanged.

Every strategy runs in one loop and differs only in its select step.
The engine (:class:`~repro.core.engine.CompiledEvaluator`) scores
candidates through one call, ``scan_errors(requests, qor)``, which
returns each candidate's error and dirtied output rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitize import sanitize_enabled
from ..errors import ExplorationError, ShutdownRequested
from ..circuit.netlist import Circuit
from ..circuit.stimulus import stimulus_input_words
from ..partition.decompose import decompose
from ..partition.substitute import substitute_windows
from ..partition.windows import Window
from ..runtime import (
    CancelToken,
    ExploreCheckpoint,
    FaultPlan,
    ProfileCache,
    RetryPolicy,
    RuntimeStats,
    canonical_circuit_bytes,
    effective_jobs,
    faults_enabled,
    fingerprint_tokens,
    load_checkpoint,
    save_checkpoint,
)
from ..synth.espresso import EspressoOptions
from ..synth.library import LIB65, Library
from ..circuit.simulate import words_for
from .bmf.asso import DEFAULT_TAUS
from .bmf.boolean import ALGEBRAS
from .bmf.factorizer import METHODS
from .engine import CompiledEvaluator
from .profile import SELECTIONS, WEIGHT_MODES, WindowProfile, profile_windows
from .qor import QoREvaluator, QoRSpec
from .search import SEARCHER_STRATEGIES, make_searcher
from .streaming import auto_chunk_words

#: Candidate selection strategies: the greedy sweeps implemented here
#: plus the stochastic portfolio in :mod:`repro.core.search`.
STRATEGIES = ("full", "lazy") + SEARCHER_STRATEGIES

#: Select-step verdict for a searcher move that was scored but rejected.
_REJECTED = object()


@dataclass(frozen=True)
class ExplorerConfig:
    """Knobs of the exploration flow (paper defaults where they exist).

    Attributes:
        max_inputs / max_outputs: k×m decomposition budgets (paper: 10/10).
        method: BMF method for profiling (``asso`` is the paper's).
        algebra: ``semiring`` (OR decompressor, paper default) or ``field``.
        taus: ASSO threshold sweep.
        weight_mode: ``significance`` (WQoR, §3.2 — the modified weighted
            ASSO the paper uses throughout its evaluation; default) or
            ``uniform`` (plain UQoR, Figure 4's control arm).
        selection: Variant policy per degree — ``bmf``, ``cone`` or
            ``hybrid`` (see :mod:`repro.core.profile`).
        match_macros: Allow FA/HA macro cells in the cost oracle (off keeps
            exact windows and variants on an identical gate-level model).
        qor: Error metric guiding the search (paper: average relative
            error).
        n_samples: Monte-Carlo sample count (paper used 10^6; the default
            here is CI-friendly and configurable).
        seed: RNG seed for the sample set.
        threshold: Stop once the metric exceeds this (None = exhaust).
        error_cap: Hard stop for exhaustive sweeps (useful for Figure 5).
        max_iterations: Hard iteration cap (None = unlimited).
        max_evaluations: Hard cap on candidate evaluations (None =
            unlimited).  Checked at the top of every search step, for
            every strategy — this is the equal-budget knob the
            strategy-portfolio benchmark pivots on.  Like the other stop
            conditions it is excluded from the checkpoint fingerprint.
        strategy: Candidate selection — ``full`` / ``lazy`` greedy, or
            one of the stochastic searchers (``anneal`` / ``ranker``;
            see :mod:`repro.core.search`).
        anneal_t0 / anneal_alpha / anneal_stall: Simulated-annealing
            schedule: initial temperature, geometric decay per proposed
            move, and the consecutive-rejection count that stops the
            walk.
        ranker_epsilon / ranker_lr: Move-ranker exploration rate
            (epsilon-greedy) and online logistic learning rate.
        tie_epsilon / tie_epsilon_scale: Measured errors within
            ``max(tie_epsilon, tie_epsilon_scale * current_error)`` of the
            best candidate count as tied and resolve by estimated area.
            This is what lets the cheap uniform-weight factorization win
            over the weighted one when both are equally harmless (Monte-
            Carlo estimates are noisy at that granularity anyway).
        refine_passes: Decomposition refinement passes.
        estimate_area: Synthesize per-variant area estimates during
            profiling (needed for area trajectories).
        jobs: Worker processes for the profiling phase *and*, unless
            ``shard_jobs`` overrides it, for streaming shard scans
            (``0`` = all cores, ``1`` = serial); results are
            byte-identical whatever the count.
        shard_jobs: Worker processes for chunk-sharded candidate
            scans.  ``None`` (default) follows
            ``jobs`` — one knob governs both phases; set explicitly to
            decouple them (``0`` = all cores, ``1`` = in-process).
            Only meaningful with a chunk plan (``chunk_words`` or
            ``chunk_budget_mb``) of more than one chunk; sharded
            trajectories are byte-identical to in-process ones for every
            worker count.
        cache_dir: Directory for the persistent profiling cache (None
            disables caching).  Warm runs skip all BMF factorization and
            variant synthesis.
        chunk_words: Streaming execution: process the pattern axis in
            word-aligned chunks of at most this many packed uint64
            words, bounding peak sample-matrix memory by ``2 × 8 ×
            n_nodes × chunk_words`` bytes.  ``None`` (default) runs one
            whole-axis chunk with no pass cap below
            :data:`~repro.core.engine.MAX_SCAN_BLOCKS`.  Trajectories
            are byte-identical for every chunk size (DESIGN.md
            "Streaming execution").
        chunk_budget_mb: Auto mode for ``chunk_words``: pick the largest
            chunk whose sample-matrix working set fits this many
            megabytes.  Ignored when ``chunk_words`` is set explicitly.
        sanitize: Runtime contract sanitizer (DESIGN.md "Static
            contracts"): freeze the arrays the engine caches (input
            indices, candidate seeds, table transposes, exact outputs)
            and the profile cache hands out; assert the tail-bit mask
            at engine boundaries; audit shard payloads at submit time.
            ``None`` (default) defers to the ``REPRO_SANITIZE``
            environment variable.  Trajectories are byte-identical with
            the sanitizer on or off — it only adds tripwires.
        shard_timeout: Per-attempt wall-clock bound (seconds) for
            supervised pool work — a hung worker is timed out, the pool
            killed and rebuilt, and the item retried/fallback-executed.
            ``None`` (default) waits forever.
        shard_retries: Pool re-submissions per failed shard/task before
            it falls back to in-process execution.  Recovery never
            changes results — items are pure functions of their inputs.
        faults: Deterministic fault-injection spec for chaos testing
            (grammar in :mod:`repro.runtime.faults`; DESIGN.md "Fault
            tolerance").  ``None`` (default) defers to the
            ``REPRO_FAULTS`` environment variable.  Trajectories are
            byte-identical with any recoverable plan injected.
        checkpoint_path: Write an atomic exploration checkpoint here
            every ``checkpoint_every`` committed iterations (``None``
            disables checkpointing).
        checkpoint_every: Commit period of checkpoint writes (≥ 1).
        resume: Load this checkpoint and continue the search from it —
            the final trajectory is byte-identical to an uninterrupted
            run.  The checkpoint must fingerprint-match the circuit and
            every search-defining config field (stop conditions and
            execution knobs excluded; see
            :mod:`repro.runtime.checkpoint`).
    """

    max_inputs: int = 10
    max_outputs: int = 10
    method: str = "asso"
    algebra: str = "semiring"
    taus: Sequence[float] = DEFAULT_TAUS
    weight_mode: str = "significance"
    selection: str = "hybrid"
    match_macros: bool = False
    qor: QoRSpec = QoRSpec("mre")
    n_samples: int = 4096
    seed: int = 7
    threshold: Optional[float] = None
    error_cap: Optional[float] = None
    max_iterations: Optional[int] = None
    strategy: str = "full"
    tie_epsilon: float = 1e-4
    tie_epsilon_scale: float = 0.05
    refine_passes: int = 1
    estimate_area: bool = True
    library: Library = LIB65
    espresso: EspressoOptions = EspressoOptions()
    jobs: int = 1
    shard_jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    chunk_words: Optional[int] = None
    chunk_budget_mb: Optional[float] = None
    sanitize: Optional[bool] = None
    shard_timeout: Optional[float] = None
    shard_retries: int = 2
    faults: Optional[str] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    resume: Optional[str] = None
    max_evaluations: Optional[int] = None
    anneal_t0: float = 0.2
    anneal_alpha: float = 0.97
    anneal_stall: int = 24
    ranker_epsilon: float = 0.15
    ranker_lr: float = 0.5

    def __post_init__(self) -> None:
        for name, allowed in (
            ("strategy", STRATEGIES),
            ("method", METHODS),
            ("algebra", ALGEBRAS),
            ("weight_mode", WEIGHT_MODES),
            ("selection", SELECTIONS),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ExplorationError(
                    f"unknown {name} {value!r}; expected {allowed}"
                )
        if self.n_samples < 1:
            raise ExplorationError(
                f"n_samples must be >= 1, got {self.n_samples}"
            )
        if self.chunk_words is not None and self.chunk_words < 1:
            raise ExplorationError(
                f"chunk_words must be >= 1, got {self.chunk_words}"
            )
        if self.chunk_budget_mb is not None and self.chunk_budget_mb <= 0:
            raise ExplorationError(
                f"chunk_budget_mb must be positive, got {self.chunk_budget_mb}"
            )
        streaming = (
            self.chunk_words is not None or self.chunk_budget_mb is not None
        )
        if not streaming and self.shard_jobs is not None:
            raise ExplorationError(
                "shard_jobs requires streaming execution (set chunk_words "
                "or chunk_budget_mb)"
            )
        if self.shard_retries < 0:
            raise ExplorationError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ExplorationError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )
        if self.checkpoint_every < 1:
            raise ExplorationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ExplorationError(
                f"max_evaluations must be >= 1, got {self.max_evaluations}"
            )
        if self.anneal_t0 <= 0:
            raise ExplorationError(
                f"anneal_t0 must be positive, got {self.anneal_t0}"
            )
        if not 0 < self.anneal_alpha < 1:
            raise ExplorationError(
                f"anneal_alpha must be in (0, 1), got {self.anneal_alpha}"
            )
        if self.anneal_stall < 1:
            raise ExplorationError(
                f"anneal_stall must be >= 1, got {self.anneal_stall}"
            )
        if not 0 <= self.ranker_epsilon <= 1:
            raise ExplorationError(
                f"ranker_epsilon must be in [0, 1], got {self.ranker_epsilon}"
            )
        if self.ranker_lr <= 0:
            raise ExplorationError(
                f"ranker_lr must be positive, got {self.ranker_lr}"
            )
        if isinstance(self.faults, str):
            # Fail fast on malformed specs (raises FaultSpecError) rather
            # than mid-run on the first injection check.
            FaultPlan.parse(self.faults)


@dataclass(frozen=True)
class TrajectoryPoint:
    """State after one committed approximation step.

    ``strategy`` / ``seed`` / ``move_id`` make every point
    self-describing for replay: the strategy and seed that produced it,
    and (for the stochastic searchers) the ordinal of the proposal that
    committed — gaps in ``move_id`` are rejected proposals, so a
    trajectory alone pins down the searcher's accept/reject history.
    Greedy strategies record ``move_id = -1``.
    """

    iteration: int
    window_index: int
    f: int
    qor: float
    est_area: float
    fs: Tuple[int, ...]
    strategy: str = ""
    seed: int = 0
    move_id: int = -1

    def normalized_area(self, baseline: float) -> float:
        return self.est_area / baseline if baseline else 0.0


@dataclass
class ExplorationResult:
    """Everything the exploration produced.

    The trajectory starts at the exact design (iteration 0, qor 0) and each
    later point is one committed degree decrement.  ``chosen`` records
    which candidate variant won at each committed (window, degree) pair —
    profiles may offer several per degree (dual-rail weighting).
    """

    circuit: Circuit
    windows: List[Window]
    profiles: List[WindowProfile]
    trajectory: List[TrajectoryPoint]
    baseline_est_area: float
    config: ExplorerConfig
    n_evaluations: int = 0
    chosen: Dict[Tuple[int, int], "CandidateVariant"] = field(
        default_factory=dict
    )
    #: Work accounting: profiling counters (zero when profiles were passed
    #: in), the exploration engine's counters, and the ``explore`` span
    #: tree (``run_blasys`` adds its own top-level spans).  Never part of
    #: a checkpoint or digest.
    runtime_stats: Optional[RuntimeStats] = None

    def points_within(self, threshold: float) -> List[TrajectoryPoint]:
        return [p for p in self.trajectory if p.qor <= threshold]

    def estimated_reduction(self, point: TrajectoryPoint) -> float:
        """Absolute estimated area saved at ``point`` (µm²).

        ``baseline_est_area`` covers only the *profiled* windows, so
        relative savings are not comparable between flows whose windows
        cover different fractions of the circuit (e.g. BLASYS vs. the
        SALSA baseline); the absolute reduction is.
        """
        return self.baseline_est_area - point.est_area

    def best_point(self, threshold: float) -> Optional[TrajectoryPoint]:
        """Lowest-estimated-area trajectory point within ``threshold``."""
        candidates = self.points_within(threshold)
        if not candidates:
            return None
        return min(candidates, key=lambda p: (p.est_area, -p.iteration))

    def variant_at(self, window_index: int, f: int) -> "CandidateVariant":
        """The candidate realized for a window at degree ``f``."""
        picked = self.chosen.get((window_index, f))
        if picked is not None:
            return picked
        profile = next(
            p for p in self.profiles if p.window.index == window_index
        )
        return profile.variants[f][0]

    def realize(self, point: TrajectoryPoint, name: Optional[str] = None) -> Circuit:
        """Build the actual netlist for a trajectory point.

        Every window whose degree is below exact is substituted with its
        synthesized compressor/decompressor structure.
        """
        replacements = {}
        for profile, f in zip(self.profiles, point.fs):
            if f >= profile.max_degree:
                continue
            replacements[profile.window.index] = self.variant_at(
                profile.window.index, f
            ).replacement
        return substitute_windows(
            self.circuit,
            self.windows,
            replacements,
            name=name or f"{self.circuit.name}_approx",
            espresso_options=self.config.espresso,
        )


def _estimated_area(
    profiles: Sequence[WindowProfile],
    fs: Dict[int, int],
    chosen: Dict[Tuple[int, int], "CandidateVariant"],
) -> float:
    total = 0.0
    for p in profiles:
        f = fs[p.window.index]
        if f >= p.max_degree:
            total += p.exact_area
        else:
            picked = chosen.get((p.window.index, f))
            total += (picked or p.variants[f][0]).area
    return total


def explore(
    circuit: Circuit,
    config: ExplorerConfig = ExplorerConfig(),
    windows: Optional[Sequence[Window]] = None,
    profiles: Optional[Sequence[WindowProfile]] = None,
    cancel: Optional[CancelToken] = None,
) -> ExplorationResult:
    """Run Algorithm 1 end to end.

    Args:
        circuit: The accurate input circuit.
        config: See :class:`ExplorerConfig`.
        windows / profiles: Reuse a previous decomposition/profiling (e.g.
            to sweep several thresholds or strategies without re-profiling).
        cancel: Cooperative :class:`~repro.runtime.CancelToken` (see
            :class:`~repro.runtime.ShutdownGuard`).  A cancelled run
            raises :class:`~repro.errors.ShutdownRequested` at the next
            safe boundary — after flushing a final checkpoint when
            ``config.checkpoint_path`` is set, so resuming that
            checkpoint continues the search byte-identically.

    Returns:
        An :class:`ExplorationResult` whose trajectory records QoR and
        estimated area after every committed step.
    """
    runtime_stats = RuntimeStats()
    with runtime_stats.span("explore"):
        _check_cancel(cancel)
        if windows is None:
            with runtime_stats.span("decompose"):
                windows = decompose(
                    circuit, config.max_inputs, config.max_outputs,
                    config.refine_passes,
                )
        windows = list(windows)
        sanitize = sanitize_enabled(config.sanitize)
        # One fault-plan instance and one retry policy per run, threaded
        # through every supervised layer (profiling pool, shard executor,
        # profile cache) so "fire once" clauses fire once globally and the
        # retry bounds cannot drift between layers.
        fault_plan = faults_enabled(config.faults)
        retry_policy = RetryPolicy(
            max_retries=config.shard_retries, timeout=config.shard_timeout
        )
        if profiles is None:
            profiles = profile_windows(
                circuit,
                windows,
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
                cache=(
                    ProfileCache(
                        config.cache_dir, sanitize=sanitize, faults=fault_plan
                    )
                    if config.cache_dir
                    else None
                ),
                runtime_stats=runtime_stats,
                policy=retry_policy,
                faults=fault_plan,
                cancel=cancel,
            )
        profiles = list(profiles)
        _check_cancel(cancel)
        with runtime_stats.span("search"):
            rng = np.random.default_rng(config.seed)
            input_words = stimulus_input_words(
                circuit, config.n_samples, rng
            )
            # One jobs policy for every dispatch layer: --jobs governs
            # profiling *and* (unless shard_jobs overrides it) streaming
            # shard scans.
            shard_jobs = effective_jobs(
                config.jobs if config.shard_jobs is None
                else config.shard_jobs
            )
            chunk_words = config.chunk_words
            if chunk_words is None and config.chunk_budget_mb is not None:
                chunk_words = auto_chunk_words(
                    circuit.n_nodes,
                    int(config.chunk_budget_mb * 1e6),
                    words_for(config.n_samples),
                    jobs=shard_jobs,
                )
            evaluator = CompiledEvaluator(
                circuit,
                windows,
                input_words,
                config.n_samples,
                chunk_words=chunk_words,
                stats=runtime_stats,
                shard_jobs=shard_jobs,
                sanitize=sanitize,
                policy=retry_policy,
                faults=fault_plan,
                cancel=cancel,
            )
            try:
                return _run_exploration(
                    circuit, config, windows, profiles, evaluator,
                    runtime_stats, rng=rng, cancel=cancel,
                )
            finally:
                evaluator.close()


def _check_cancel(cancel: Optional[CancelToken]) -> None:
    if cancel is not None:
        cancel.check()


def _search_fingerprint(circuit: Circuit, config: ExplorerConfig) -> str:
    """Checkpoint-compatibility fingerprint of this search.

    Hashes the canonical circuit structure plus every *search-defining*
    config field.  Stop conditions (``threshold`` / ``error_cap`` /
    ``max_iterations``) and execution knobs that are byte-identical by
    contract (chunking, sharding, jobs, cache dir, sanitize,
    faults, checkpoint/resume paths) are deliberately excluded so an
    interrupted run can be resumed with different stop bounds or on a
    differently-provisioned host (see :mod:`repro.runtime.checkpoint`).
    """
    return fingerprint_tokens(
        canonical_circuit_bytes(circuit),
        config.max_inputs,
        config.max_outputs,
        config.method,
        config.algebra,
        tuple(config.taus),
        config.weight_mode,
        config.selection,
        config.match_macros,
        config.qor,
        config.n_samples,
        config.seed,
        config.strategy,
        config.tie_epsilon,
        config.tie_epsilon_scale,
        config.anneal_t0,
        config.anneal_alpha,
        config.anneal_stall,
        # The retired bo strategy's last defaults, kept so checkpoints
        # written before its removal still fingerprint-match.
        6,
        0.25,
        config.ranker_epsilon,
        config.ranker_lr,
        config.refine_passes,
        config.estimate_area,
        config.library.name,
        config.espresso,
    )


def _variant_pos(variants: Sequence, variant) -> int:
    """Position of ``variant`` in its profile's per-degree list.

    Identity comparison on purpose: committed variants always *are*
    entries of the profile list, and ``CandidateVariant`` holds numpy
    arrays, which makes value equality both expensive and ambiguous.
    """
    for i, v in enumerate(variants):
        if v is variant:
            return i
    raise ExplorationError(
        "committed variant is not an entry of its window profile"
    )


def _run_exploration(
    circuit: Circuit,
    config: ExplorerConfig,
    windows: List[Window],
    profiles: List[WindowProfile],
    evaluator,
    runtime_stats: RuntimeStats,
    rng: np.random.Generator,
    cancel: Optional[CancelToken] = None,
) -> ExplorationResult:
    """Algorithm 1's search loop over a constructed evaluation engine.

    The engine scores candidates through one call,
    ``evaluator.scan_errors(requests, qor_eval)``.  The strategies differ
    only in their
    select step; committing, rebasing the QoR state, trajectory
    recording and checkpointing are shared.
    """
    profile_by_index = {p.window.index: p for p in profiles}
    qor_eval = QoREvaluator(
        circuit, evaluator.exact_outputs, config.n_samples, config.qor,
        sanitize=sanitize_enabled(config.sanitize),
    )
    # scan_errors scores against the committed outputs, so the QoR state
    # is rebased here and after every commit (DESIGN.md "Exploration
    # engine").
    qor_eval.rebase(evaluator.exact_outputs)

    fs: Dict[int, int] = {p.window.index: p.max_degree for p in profiles}
    result = ExplorationResult(
        circuit, windows, profiles, [], 0.0, config,
        runtime_stats=runtime_stats,
    )
    baseline_area = _estimated_area(profiles, fs, result.chosen)
    result.baseline_est_area = baseline_area
    trajectory = result.trajectory
    trajectory.append(
        TrajectoryPoint(
            0, -1, 0, 0.0, baseline_area,
            tuple(fs[p.window.index] for p in profiles),
            strategy=config.strategy, seed=config.seed,
        )
    )

    def active(idx: int) -> bool:
        return fs[idx] > 1 and (fs[idx] - 1) in profile_by_index[idx].variants

    def scan(idxs: Sequence[int]) -> List[Tuple[float, "CandidateVariant"]]:
        """Best (error, variant) of each window's next-degree candidates.

        All requested windows go through one ``scan_errors`` call.
        Candidates whose measured error is within the tie tolerance of a
        window's best count as equivalent and resolve by estimated area
        (see :class:`ExplorerConfig`).
        """
        per_window = [
            profile_by_index[idx].variants[fs[idx] - 1] for idx in idxs
        ]
        with runtime_stats.span("scan"):
            scans = evaluator.scan_errors(
                [
                    (idx, [v.table for v in variants])
                    for idx, variants in zip(idxs, per_window)
                ],
                qor_eval,
            )
        eps = max(config.tie_epsilon, config.tie_epsilon_scale * current_qor)
        picks = []
        for variants, scored in zip(per_window, scans):
            result.n_evaluations += len(variants)
            best_err = min(err for err, _ in scored)
            tied = [
                (err, v)
                for (err, _), v in zip(scored, variants)
                if err <= best_err + eps
            ]
            picks.append(min(tied, key=lambda ev: (ev[1].area, ev[0])))
        return picks

    iteration = 0
    current_qor = 0.0
    # Lazy-greedy queue: (stale error, tie-break, window index).
    heap: List[Tuple[float, int, int]] = []
    counter = 0
    if config.strategy == "lazy":
        for p in profiles:
            if active(p.window.index):
                heap.append((0.0, counter, p.window.index))
                counter += 1
        heapq.heapify(heap)

    searcher = None
    if config.strategy in SEARCHER_STRATEGIES:
        searcher = make_searcher(config, profiles, rng)

    fingerprint: Optional[str] = None
    if config.checkpoint_path or config.resume:
        fingerprint = _search_fingerprint(circuit, config)

    if config.resume:
        # Replay the checkpoint's committed steps through the fresh
        # evaluator.  Engine memo/cache state starts cold — a performance
        # difference only; the determinism discipline guarantees every
        # subsequent preview float matches the uninterrupted run.
        ckpt = load_checkpoint(config.resume, expect_fingerprint=fingerprint)
        for point in ckpt.trajectory[1:]:
            widx, f = int(point[1]), int(point[2])
            variant = profile_by_index[widx].variants[f][ckpt.chosen[(widx, f)]]
            evaluator.commit(widx, variant.table)
            fs[widx] = f
            result.chosen[(widx, f)] = variant
        qor_eval.rebase(evaluator.current_outputs())
        trajectory[:] = [TrajectoryPoint(*point) for point in ckpt.trajectory]
        iteration = ckpt.iteration
        current_qor = ckpt.current_qor
        result.n_evaluations = ckpt.n_evaluations
        heap = list(ckpt.heap)
        counter = ckpt.counter
        if ckpt.rng_state is not None:
            rng.bit_generator.state = ckpt.rng_state
        if searcher is not None and ckpt.searcher_state is not None:
            searcher.load_state_dict(ckpt.searcher_state)

    def write_checkpoint() -> None:
        # Committed-variant identities and the trajectory's own floats are
        # the whole logical loop state (module docstring of
        # repro.runtime.checkpoint); everything engine-internal is rebuilt
        # on resume by re-committing these steps.
        chosen_positions = {
            (widx, f): _variant_pos(profile_by_index[widx].variants[f], v)
            for (widx, f), v in result.chosen.items()
        }
        save_checkpoint(
            config.checkpoint_path,
            ExploreCheckpoint(
                fingerprint=fingerprint,
                iteration=iteration,
                current_qor=current_qor,
                n_evaluations=result.n_evaluations,
                fs=dict(fs),
                chosen=chosen_positions,
                trajectory=[
                    (p.iteration, p.window_index, p.f, p.qor, p.est_area,
                     tuple(p.fs), p.strategy, p.seed, p.move_id)
                    for p in trajectory
                ],
                heap=list(heap),
                counter=counter,
                rng_state=rng.bit_generator.state,
                searcher_state=(
                    searcher.state_dict() if searcher is not None else None
                ),
            ),
        )
        runtime_stats.add("n_checkpoints")

    def stop_reached() -> bool:
        if config.max_iterations is not None and iteration >= config.max_iterations:
            return True
        if (
            config.max_evaluations is not None
            and result.n_evaluations >= config.max_evaluations
        ):
            return True
        if config.threshold is not None and current_qor > config.threshold:
            return True
        if config.error_cap is not None and current_qor >= config.error_cap:
            return True
        return False

    # -- select steps: each returns (window, error, variant) to commit,
    # None to stop, or _REJECTED for a searcher move that cost
    # evaluations but commits nothing.
    def select_full():
        """Algorithm 1 verbatim: one scan over every active window."""
        idxs = [idx for idx in fs if active(idx)]
        if not idxs:
            return None
        best = None
        for idx, (err, variant) in zip(idxs, scan(idxs)):
            if best is None or err < best[1]:
                best = (idx, err, variant)
        return best

    def select_lazy():
        nonlocal counter
        while heap:
            # Peek, don't pop: cancellation can surface *inside* the
            # scan (scans check the token at chunk boundaries), and the
            # exception handler below flushes the heap into the
            # checkpoint.  The entry only comes off once
            # its fresh error is in hand, so an interrupted selection
            # resumes with the heap complete and replays the identical
            # pop sequence.
            _, _, idx = heap[0]
            if not active(idx):
                heapq.heappop(heap)
                continue
            [(fresh, variant)] = scan([idx])
            heapq.heappop(heap)
            if not heap or fresh <= heap[0][0]:
                return idx, fresh, variant
            heapq.heappush(heap, (fresh, counter, idx))
            counter += 1
        return None

    def select_searcher():
        # The searcher picks a window and decides commit/reject; a
        # rejected move spends its evaluations but advances nothing.
        idx = searcher.propose(fs, active, current_qor)
        if idx is None:
            return None
        [(err, variant)] = scan([idx])
        if not searcher.observe(idx, err, current_qor, fs):
            return _REJECTED
        return idx, err, variant

    if searcher is not None:
        select = select_searcher
    elif config.strategy == "lazy":
        select = select_lazy
    else:
        select = select_full

    try:
        while True:
            _check_cancel(cancel)
            if stop_reached():
                break
            move = select()
            if move is None:
                break
            if move is _REJECTED:
                continue
            idx, err, variant = move
            with runtime_stats.span("commit"):
                evaluator.commit(idx, variant.table)
            with runtime_stats.span("rebase"):
                qor_eval.rebase(evaluator.current_outputs())
            fs[idx] -= 1
            result.chosen[(idx, fs[idx])] = variant
            current_qor = err
            iteration += 1
            trajectory.append(
                TrajectoryPoint(
                    iteration,
                    idx,
                    fs[idx],
                    current_qor,
                    _estimated_area(profiles, fs, result.chosen),
                    tuple(fs[p.window.index] for p in profiles),
                    strategy=config.strategy,
                    seed=config.seed,
                    move_id=(
                        searcher.last_move_id if searcher is not None else -1
                    ),
                )
            )
            if config.strategy == "lazy" and active(idx):
                heapq.heappush(heap, (current_qor, counter, idx))
                counter += 1
            if (
                config.checkpoint_path
                and iteration % config.checkpoint_every == 0
            ):
                write_checkpoint()
    except ShutdownRequested:
        # Cancellation surfaces only at safe boundaries — the loop top,
        # or inside a scan, which mutates no committed state — so the
        # committed trajectory is always consistent; flush it and let the
        # verdict propagate.  The lazy heap (peeked, not popped, across
        # scans) and any pending searcher proposal (carried in
        # searcher_state) are both checkpoint-complete at these
        # boundaries, so resuming continues the search byte-identically
        # to an uninterrupted run.
        if config.checkpoint_path:
            write_checkpoint()
        raise

    return result
