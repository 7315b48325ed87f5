"""Atomic checkpoint/resume for exploration trajectories.

An exploration at the paper's 10^6 Monte-Carlo scale that dies at
iteration 40 must not restart from zero.  ``explore()`` snapshots its
greedy-loop state every ``checkpoint_every`` committed iterations; a
later run started with ``resume=<path>`` replays the committed steps
through a fresh evaluator and continues the loop — producing a final
trajectory byte-identical to the uninterrupted run.

What makes byte-identical resume *possible* is the repo-wide
determinism discipline (DESIGN.md): every chunking/sharding
configuration produces identical trajectories, and all memo/cache state
is a pure performance overlay.  The checkpoint therefore only needs the
*logical* loop state:

* the committed degree map ``fs`` and which candidate variant won each
  committed ``(window, degree)`` pair (stored by *position* in the
  profile's variant list, not by value — variants hold numpy arrays);
* the trajectory recorded so far (plain tuples);
* the lazy-greedy heap and its tie-break counter;
* the loop scalars (iteration index, current QoR, evaluation count);
* the RNG state of the run's single seeded generator (the stochastic
  searchers draw proposals and acceptance tests from it);
* the searcher state (``Searcher.state_dict()``: model parameters,
  stall/observation counters, and any *pending* proposal whose preview
  was in flight when the snapshot was flushed — see
  :mod:`repro.core.search.base`).

Nothing evaluator-internal is stored: the resumed run rebuilds engine
state by re-committing the recorded steps, so memo caches start cold —
a performance difference only, never a value difference.

**Compatibility rule**: a checkpoint binds to the exact search it was
written by.  The fingerprint hashes the canonical circuit structure plus
every *search-defining* config field (degrees, BMF method/taus/weights,
QoR spec, sample count, seed, strategy, tie-break tolerances, …).
Fields that are byte-identical by contract — chunking, sharding, jobs,
cache dir, sanitize, faults — and the stop conditions
(``threshold`` / ``error_cap`` / ``max_iterations``) are deliberately
excluded, so a run interrupted via ``max_iterations`` (or killed) can be
resumed with different stop knobs or on different hardware.  A mismatch
raises :class:`~repro.errors.CheckpointError` rather than silently
continuing someone else's search.

Files are written atomically and durably (temp + fsync + ``os.replace``)
so a crash mid-checkpoint leaves the previous snapshot intact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError

#: Bump when the snapshot layout changes; old files then refuse to load
#: (a stale-format resume must fail loudly, not half-apply).
#: v2: 9-field trajectory tuples (strategy/seed/move_id) + searcher_state.
CHECKPOINT_VERSION = 2


@dataclass
class ExploreCheckpoint:
    """One snapshot of ``explore()``'s search-loop state.

    ``chosen`` maps a committed ``(window index, degree)`` pair to the
    *position* of the winning variant in that profile's
    ``variants[degree]`` list; ``trajectory`` holds the
    :class:`~repro.core.explorer.TrajectoryPoint` fields as plain tuples
    ``(iteration, window_index, f, qor, est_area, fs, strategy, seed,
    move_id)``; ``searcher_state`` is the strategy's
    ``Searcher.state_dict()`` (``None`` for the greedy strategies).
    """

    fingerprint: str
    iteration: int
    current_qor: float
    n_evaluations: int
    fs: Dict[int, int]
    chosen: Dict[Tuple[int, int], int]
    trajectory: List[tuple]
    heap: List[Tuple[float, int, int]] = field(default_factory=list)
    counter: int = 0
    rng_state: Optional[dict] = None
    searcher_state: Optional[dict] = None
    version: int = CHECKPOINT_VERSION


def fingerprint_tokens(*tokens) -> str:
    """Hash heterogeneous tokens into a hex fingerprint.

    ``bytes`` tokens feed the digest directly (canonical circuit bytes);
    anything else goes through ``repr`` — stable for the plain
    ints/floats/strings/tuples the config contributes.
    """
    digest = hashlib.sha256(b"blasys-checkpoint-v%d" % CHECKPOINT_VERSION)
    for token in tokens:
        digest.update(b"\x00")
        digest.update(token if isinstance(token, bytes) else repr(token).encode())
    return digest.hexdigest()


def save_checkpoint(path, ckpt: ExploreCheckpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically and durably.

    The same temp + flush + fsync + ``os.replace`` discipline as the
    profile cache: a crash at any instant leaves either the previous
    complete snapshot or the new one, never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(ckpt, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path, expect_fingerprint: Optional[str] = None) -> ExploreCheckpoint:
    """Load and validate a checkpoint; failures raise CheckpointError.

    Any read/unpickle problem — missing file, truncation, garbage bytes,
    payloads this build cannot reconstruct — surfaces as
    :class:`CheckpointError` (chained to the original exception), as do
    format-version and fingerprint mismatches.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            ckpt = pickle.load(fh)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(ckpt, ExploreCheckpoint):
        raise CheckpointError(
            f"checkpoint {path} holds {type(ckpt).__name__}, "
            "not an ExploreCheckpoint"
        )
    if ckpt.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {ckpt.version}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if expect_fingerprint is not None and ckpt.fingerprint != expect_fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was written by a different search "
            "(circuit or search-defining configuration fingerprint "
            "mismatch); refusing to resume"
        )
    return ckpt
