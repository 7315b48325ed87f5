"""Seeded-replay harness for the search-strategy portfolio.

The stochastic searchers (anneal / ranker) extend the repo's
byte-identical determinism discipline: for a fixed seed the trajectory —
including the ``strategy`` / ``seed`` / ``move_id`` replay fields — must
be identical across engines (compiled resident, streaming, sharded,
interpreted reference) and across every checkpoint/resume interruption
point, whether the interruption is a polite ``max_iterations`` stop or a
cancellation surfacing mid-preview (DESIGN.md "Search strategies").

Also here: the lazy-greedy heap checkpoint regression — before the
peek-don't-pop fix, a cancellation inside a streaming preview flushed a
checkpoint missing the popped heap entries, and resuming it silently
dropped those windows from the rest of the search.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.explorer import ExplorerConfig, explore
from repro.core.search import (
    SEARCHER_STRATEGIES,
    AnnealSearcher,
    make_searcher,
)
from repro.errors import ExplorationError, ShutdownRequested
from repro.runtime import CancelToken, load_checkpoint

from explore_fixtures import explorer_config, reference_engine, trajectory_key

#: Execution shapes the replay matrix sweeps: resident compiled engine,
#: serial streaming (words_for(700)=11 / chunk_words=3 -> 4 chunks), and
#: streaming fanned over a 2-worker shard pool.
ENGINE_SHAPES = [
    pytest.param(dict(), id="resident"),
    pytest.param(dict(chunk_words=3), id="streaming"),
    pytest.param(dict(chunk_words=3, shard_jobs=2), id="sharded"),
]


class TripAfter(CancelToken):
    """Cancel token that trips on the Nth cooperative check.

    Streaming scans check the token at every chunk/dispatch boundary, so
    sweeping N lands interruptions *inside* previews — the hostile
    half of the checkpoint contract that ``max_iterations`` never hits.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.count = 0

    def check(self) -> None:
        self.count += 1
        if self.count > self.n:
            raise ShutdownRequested("injected trip")


@pytest.fixture(scope="module")
def searcher_references(butterfly_profiled):
    """Per-strategy resident reference runs: (trajectory key, evals)."""
    circuit, windows, profiles = butterfly_profiled
    refs = {}
    for strategy in SEARCHER_STRATEGIES:
        result = explore(
            circuit,
            explorer_config(strategy=strategy),
            windows=windows,
            profiles=profiles,
        )
        refs[strategy] = (trajectory_key(result), result.n_evaluations)
    return refs


class TestSeededReplayMatrix:
    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    @pytest.mark.parametrize("overrides", ENGINE_SHAPES)
    def test_byte_identical_across_execution_shapes(
        self, strategy, overrides, butterfly_profiled, searcher_references
    ):
        circuit, windows, profiles = butterfly_profiled
        ref_key, ref_evals = searcher_references[strategy]
        result = explore(
            circuit,
            explorer_config(strategy=strategy, **overrides),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(result) == ref_key
        assert result.n_evaluations == ref_evals

    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    def test_reference_engine_matches_compiled(
        self, strategy, butterfly_profiled, searcher_references
    ):
        circuit, windows, profiles = butterfly_profiled
        ref_key, ref_evals = searcher_references[strategy]
        with reference_engine():
            result = explore(
                circuit,
                explorer_config(strategy=strategy),
                windows=windows,
                profiles=profiles,
            )
        assert trajectory_key(result) == ref_key
        assert result.n_evaluations == ref_evals

    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    def test_trajectory_carries_replay_fields(
        self, strategy, butterfly_profiled, searcher_references
    ):
        ref_key, _ = searcher_references[strategy]
        moves = []
        for _, _, _, _, _, _, strat, seed, move_id in ref_key:
            assert strat == strategy
            assert seed == 7  # ExplorerConfig default
            moves.append(move_id)
        assert moves[0] == -1  # the exact-design point predates any move
        committed = moves[1:]
        assert committed, "searcher committed nothing"
        assert all(m >= 0 for m in committed)
        # move ids are the proposal ordinals that committed: strictly
        # increasing, with gaps exactly where proposals were rejected.
        assert committed == sorted(committed)
        assert len(set(committed)) == len(committed)

    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    def test_different_seeds_are_independent_runs(
        self, strategy, butterfly_profiled
    ):
        """A different seed must at minimum be recorded as such — and the
        same seed must reproduce the identical trajectory object-for-
        object (the weaker half is what the replay fields guarantee;
        stochastic walks *may* coincide across seeds on a small circuit).
        """
        circuit, windows, profiles = butterfly_profiled
        one = explore(
            circuit,
            explorer_config(strategy=strategy, seed=12345),
            windows=windows,
            profiles=profiles,
        )
        two = explore(
            circuit,
            explorer_config(strategy=strategy, seed=12345),
            windows=windows,
            profiles=profiles,
        )
        assert trajectory_key(one) == trajectory_key(two)
        assert all(p.seed == 12345 for p in one.trajectory)


class TestCheckpointResume:
    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    def test_interrupt_every_iteration_resumes_identically(
        self, strategy, tmp_path, butterfly_profiled, searcher_references
    ):
        """The PR 7 harness extended to the searchers: stop after k
        committed iterations for every k, resume, and demand the final
        trajectory *and* evaluation count match the uninterrupted run."""
        circuit, windows, profiles = butterfly_profiled
        ref_key, ref_evals = searcher_references[strategy]
        n_iter = len(ref_key) - 1
        assert n_iter >= 2, "reference run too short to interrupt"
        for k in range(1, n_iter):
            ck = tmp_path / f"{strategy}-{k}.ckpt"
            explore(
                circuit,
                explorer_config(
                    strategy=strategy,
                    max_iterations=k,
                    checkpoint_path=str(ck),
                ),
                windows=windows,
                profiles=profiles,
            )
            resumed = explore(
                circuit,
                explorer_config(
                    strategy=strategy,
                    checkpoint_path=str(ck),
                    resume=str(ck),
                ),
                windows=windows,
                profiles=profiles,
            )
            assert trajectory_key(resumed) == ref_key, f"iteration {k}"
            assert resumed.n_evaluations == ref_evals, f"iteration {k}"

    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    def test_cancellation_mid_preview_resumes_identically(
        self, strategy, tmp_path, butterfly_profiled
    ):
        """Trip the cancel token at every cooperative check point of a
        streaming run.  Interruptions land inside chunked previews, where
        the searcher has a *pending* proposal whose evaluation never
        finished; the checkpointed searcher state must replay it."""
        circuit, windows, profiles = butterfly_profiled
        base = dict(strategy=strategy, chunk_words=3)
        reference = explore(
            circuit, explorer_config(**base), windows=windows,
            profiles=profiles,
        )
        ref_key = trajectory_key(reference)
        tested = 0
        for trip in range(2, 2000, 3):
            ck = tmp_path / f"{strategy}-trip{trip}.ckpt"
            token = TripAfter(trip)
            try:
                explore(
                    circuit,
                    explorer_config(**base, checkpoint_path=str(ck)),
                    windows=windows,
                    profiles=profiles,
                    cancel=token,
                )
                break  # ran to completion: past the last check point
            except ShutdownRequested:
                pass
            if not ck.exists():
                continue  # tripped before the first checkpoint flush
            resumed = explore(
                circuit,
                explorer_config(
                    **base, checkpoint_path=str(ck), resume=str(ck)
                ),
                windows=windows,
                profiles=profiles,
            )
            tested += 1
            assert trajectory_key(resumed) == ref_key, f"trip {trip}"
            assert resumed.n_evaluations == reference.n_evaluations, (
                f"trip {trip}"
            )
        assert tested >= 3, "cancellation sweep never landed mid-run"

    @pytest.mark.parametrize("strategy", SEARCHER_STRATEGIES)
    def test_checkpoint_carries_searcher_state(
        self, strategy, tmp_path, butterfly_profiled
    ):
        circuit, windows, profiles = butterfly_profiled
        ck = tmp_path / f"{strategy}.ckpt"
        explore(
            circuit,
            explorer_config(
                strategy=strategy, max_iterations=2, checkpoint_path=str(ck)
            ),
            windows=windows,
            profiles=profiles,
        )
        snapshot = load_checkpoint(ck)
        state = snapshot.searcher_state
        assert state is not None
        assert state["strategy"] == strategy
        assert state["move"] >= 2
        # Must be plain picklable data (it already survived one pickle
        # round trip inside the checkpoint; assert it stays so).
        assert pickle.loads(pickle.dumps(state)) == state
        for row in snapshot.trajectory:
            assert len(row) == 9


class TestLazyHeapCheckpoint:
    """Regression: the lazy heap must round-trip *exactly* through
    ExploreCheckpoint, for both interruption styles."""

    def test_heap_round_trips_exactly_through_resume_chain(
        self, tmp_path, butterfly_profiled
    ):
        """Checkpoints written by a resumed run at iteration k must equal
        the checkpoint a direct run writes at iteration k — heap, counter
        and all loop state, not just the trajectory."""
        circuit, windows, profiles = butterfly_profiled
        cfg = dict(strategy="lazy")
        full = explore(
            circuit, explorer_config(**cfg), windows=windows,
            profiles=profiles,
        )
        n_iter = len(full.trajectory) - 1
        chain = tmp_path / "chain.ckpt"
        explore(
            circuit,
            explorer_config(
                **cfg, max_iterations=1, checkpoint_path=str(chain)
            ),
            windows=windows,
            profiles=profiles,
        )
        for k in range(2, n_iter + 1):
            direct = tmp_path / f"direct-{k}.ckpt"
            explore(
                circuit,
                explorer_config(
                    **cfg, max_iterations=k, checkpoint_path=str(direct)
                ),
                windows=windows,
                profiles=profiles,
            )
            # Step the chain forward one committed iteration via resume.
            explore(
                circuit,
                explorer_config(
                    **cfg,
                    max_iterations=k,
                    checkpoint_path=str(chain),
                    resume=str(chain),
                ),
                windows=windows,
                profiles=profiles,
            )
            a = load_checkpoint(direct)
            b = load_checkpoint(chain)
            assert b.heap == a.heap, f"iteration {k}"
            assert b.counter == a.counter, f"iteration {k}"
            assert b.fs == a.fs, f"iteration {k}"
            assert b.chosen == a.chosen, f"iteration {k}"
            assert b.trajectory == a.trajectory, f"iteration {k}"
            assert b.n_evaluations == a.n_evaluations, f"iteration {k}"
            assert b.current_qor == a.current_qor, f"iteration {k}"

    def test_lazy_cancellation_mid_preview_resumes_identically(
        self, tmp_path, butterfly_profiled
    ):
        """The bug this guards: a cancellation inside a streaming preview
        used to flush a checkpoint whose heap was missing the entries the
        selection loop had already popped; resuming dropped those windows
        for good (shorter trajectories, wrong picks).  Peek-don't-pop
        keeps the heap checkpoint-complete at every cancellation point."""
        circuit, windows, profiles = butterfly_profiled
        base = dict(strategy="lazy", chunk_words=3)
        reference = explore(
            circuit, explorer_config(**base), windows=windows,
            profiles=profiles,
        )
        ref_key = trajectory_key(reference)
        tested = 0
        for trip in range(2, 2000, 3):
            ck = tmp_path / f"lazy-trip{trip}.ckpt"
            try:
                explore(
                    circuit,
                    explorer_config(**base, checkpoint_path=str(ck)),
                    windows=windows,
                    profiles=profiles,
                    cancel=TripAfter(trip),
                )
                break
            except ShutdownRequested:
                pass
            if not ck.exists():
                continue
            resumed = explore(
                circuit,
                explorer_config(
                    **base, checkpoint_path=str(ck), resume=str(ck)
                ),
                windows=windows,
                profiles=profiles,
            )
            tested += 1
            assert trajectory_key(resumed) == ref_key, f"trip {trip}"
            assert resumed.n_evaluations == reference.n_evaluations, (
                f"trip {trip}"
            )
        assert tested >= 3, "cancellation sweep never landed mid-run"


class TestSearcherUnit:
    """Protocol-level checks that need no exploration run."""

    def test_config_validation(self):
        with pytest.raises(ExplorationError):
            ExplorerConfig(strategy="metropolis")
        with pytest.raises(ExplorationError):
            ExplorerConfig(anneal_alpha=1.5)
        with pytest.raises(ExplorationError):
            ExplorerConfig(anneal_t0=0.0)
        with pytest.raises(ExplorationError):
            ExplorerConfig(ranker_epsilon=1.5)
        with pytest.raises(ExplorationError):
            ExplorerConfig(max_evaluations=0)

    def test_bo_strategy_is_gone(self):
        assert "bo" not in SEARCHER_STRATEGIES
        with pytest.raises(ExplorationError, match="unknown strategy"):
            ExplorerConfig(strategy="bo")
        with pytest.raises(TypeError):
            ExplorerConfig(bo_init=6)

    def test_max_evaluations_caps_every_strategy(self, butterfly_profiled):
        circuit, windows, profiles = butterfly_profiled
        for strategy in ("full", "lazy") + SEARCHER_STRATEGIES:
            result = explore(
                circuit,
                explorer_config(strategy=strategy, max_evaluations=10),
                windows=windows,
                profiles=profiles,
            )
            # The cap is checked at step boundaries, so one step may
            # finish past it — but never a step more.
            per_step = max(
                len(p.variants.get(f, ()))
                for p in profiles
                for f in p.variants
            )
            slack = per_step * (
                len(profiles) if strategy in ("full", "lazy") else 1
            )
            assert result.n_evaluations <= 10 + slack, strategy

    def test_pending_proposal_survives_state_dict(self, butterfly_profiled):
        import numpy as np

        _, _, profiles = butterfly_profiled
        config = explorer_config(strategy="anneal")
        rng = np.random.default_rng(config.seed)
        searcher = make_searcher(config, profiles, rng)
        fs = {p.window.index: p.max_degree for p in profiles}
        idx = searcher.propose(fs, lambda w: True, 0.0)
        assert idx is not None
        # Re-proposing without observe() must return the same pending
        # move and draw nothing from the RNG.
        state_before = rng.bit_generator.state
        assert searcher.propose(fs, lambda w: True, 0.0) == idx
        assert rng.bit_generator.state == state_before
        # A fresh searcher loaded from state_dict continues the pending
        # proposal instead of redrawing.
        clone = make_searcher(
            config, profiles, np.random.default_rng(config.seed)
        )
        clone.load_state_dict(searcher.state_dict())
        assert clone.propose(fs, lambda w: True, 0.0) == idx

    def test_observe_without_proposal_rejected(self, butterfly_profiled):
        import numpy as np

        _, _, profiles = butterfly_profiled
        config = explorer_config(strategy="ranker")
        searcher = make_searcher(
            config, profiles, np.random.default_rng(config.seed)
        )
        fs = {p.window.index: p.max_degree for p in profiles}
        with pytest.raises(ExplorationError):
            searcher.observe(0, 0.1, 0.0, fs)

    def test_anneal_temperature_schedule_is_deterministic(
        self, butterfly_profiled
    ):
        import numpy as np

        _, _, profiles = butterfly_profiled
        config = explorer_config(
            strategy="anneal", anneal_t0=0.1, anneal_alpha=0.5
        )
        searcher = make_searcher(
            config, profiles, np.random.default_rng(0)
        )
        assert isinstance(searcher, AnnealSearcher)
        assert searcher.temperature(0) == pytest.approx(0.1)
        assert searcher.temperature(3) == pytest.approx(0.1 * 0.5**3)
