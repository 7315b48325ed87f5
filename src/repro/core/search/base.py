"""The ``Searcher`` protocol: stochastic move selection over the engine.

A searcher owns *which* (window, degree) decrement to try next and
*whether* to keep it; the exploration loop owns everything else
(scoring through the engine's ``scan_errors``, committing, trajectory
recording, checkpoints).  A searcher is the select step of the one loop
in :func:`repro.core.explorer._run_exploration`::

    idx = searcher.propose(fs, active, current_qor)   # may draw RNG
    err, variant = best of scan_errors([(idx, tables)], qor)  # no RNG
    if searcher.observe(idx, err, current_qor, fs):   # may draw RNG
        commit the move       # else: rejected, evaluations spent

Determinism and replay contract (DESIGN.md "Search strategies"):

* Every random draw comes from the single seeded
  ``np.random.default_rng`` threaded from ``ExplorerConfig.seed``.
  Searchers never construct generators — the contract linter's
  ``unseeded-rng`` rule rejects *any* RNG construction in this package.
* A proposal is *pending* from the draw until ``observe`` consumes it.
  ``propose`` returns a pending proposal again without touching the RNG,
  and the pending pair rides in ``state_dict()``; a checkpoint flushed
  while the preview was in flight (cancellation surfaces inside
  streaming scans) therefore resumes by re-evaluating the same proposal,
  keeping resumed trajectories byte-identical to uninterrupted runs.
* ``state_dict()`` must contain only plain picklable values (ints,
  floats, lists, dicts) — it is embedded in
  :class:`repro.runtime.ExploreCheckpoint`.  The RNG stream itself is
  checkpointed separately by the loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import ExplorationError


class Searcher(ABC):
    """Base class for the strategy portfolio (see module docstring)."""

    #: Strategy name, matching ``ExplorerConfig.strategy``.
    strategy: str = ""

    def __init__(
        self,
        config,
        profiles: Sequence,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.rng = rng
        # Profiles arrive in decomposition order; every candidate list is
        # derived from this order so proposal draws are deterministic.
        self.profiles = list(profiles)
        self.windows: List[int] = [p.window.index for p in self.profiles]
        self.max_degree: Dict[int, int] = {
            p.window.index: p.max_degree for p in self.profiles
        }
        self._move = 0
        self._pending: Optional[Tuple[int, int]] = None  # (move_id, window)
        self.last_move_id = -1

    # -- driver protocol -------------------------------------------------

    def propose(
        self,
        fs: Dict[int, int],
        active: Callable[[int], bool],
        current_qor: float,
    ) -> Optional[int]:
        """Window whose next-degree decrement to preview, or None to stop.

        A pending proposal (one drawn but not yet ``observe``-d) is
        returned as-is without consuming randomness — this is what makes
        mid-preview checkpoints replay exactly.
        """
        if self._pending is not None:
            return self._pending[1]
        candidates = [w for w in self.windows if active(w)]
        if not candidates:
            return None
        idx = self._propose(candidates, fs, current_qor)
        if idx is None:
            return None
        self._pending = (self._move, idx)
        self._move += 1
        return idx

    def observe(
        self,
        idx: int,
        err: float,
        current_qor: float,
        fs: Dict[int, int],
    ) -> bool:
        """Record the previewed QoR for the pending move; True = commit."""
        if self._pending is None or self._pending[1] != idx:
            raise ExplorationError(
                f"{self.strategy}: observe({idx}) without a matching proposal"
            )
        move_id, _ = self._pending
        self._pending = None
        self.last_move_id = move_id
        accepted = self._decide(idx, err, current_qor, fs)
        self._observe(idx, err, current_qor, fs, accepted)
        return accepted

    @property
    def move_count(self) -> int:
        """Proposals drawn so far (the temperature/recency clock)."""
        return self._move

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Picklable searcher state for :class:`ExploreCheckpoint`."""
        state: Dict[str, Any] = {
            "strategy": self.strategy,
            "move": self._move,
            "pending": (
                None if self._pending is None else list(self._pending)
            ),
            "last_move_id": self.last_move_id,
        }
        state.update(self._state())
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if state.get("strategy") != self.strategy:
            raise ExplorationError(
                f"checkpoint searcher state is for strategy "
                f"{state.get('strategy')!r}, not {self.strategy!r}"
            )
        self._move = int(state["move"])
        pending = state["pending"]
        self._pending = (
            None if pending is None else (int(pending[0]), int(pending[1]))
        )
        self.last_move_id = int(state["last_move_id"])
        self._load(state)

    # -- strategy hooks --------------------------------------------------

    @abstractmethod
    def _propose(
        self,
        candidates: List[int],
        fs: Dict[int, int],
        current_qor: float,
    ) -> Optional[int]:
        """Pick a window from the (non-empty, ordered) candidate list."""

    @abstractmethod
    def _decide(
        self, idx: int, err: float, current_qor: float, fs: Dict[int, int]
    ) -> bool:
        """Accept (commit) or reject the previewed move."""

    def _observe(
        self,
        idx: int,
        err: float,
        current_qor: float,
        fs: Dict[int, int],
        accepted: bool,
    ) -> None:
        """Model update after a decision (optional)."""

    def _state(self) -> Dict[str, Any]:
        return {}

    def _load(self, state: Dict[str, Any]) -> None:
        pass
