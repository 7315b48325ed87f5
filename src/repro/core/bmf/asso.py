"""The ASSO Boolean matrix factorization algorithm, with weighted QoR.

Re-implemented from Miettinen & Vreeken's description (the paper's [10, 11])
and extended exactly the way BLASYS §3.2 proposes: the cover function that
scores candidate basis vectors takes a per-column weight vector, so
mismatches on significant output bits are penalized more.

Outline for factorization degree ``f`` (semiring algebra):

1. Build the *association matrix*: candidate basis row ``i`` has a 1 in
   column ``j`` iff ``conf(i -> j) >= tau``, where confidence is the
   fraction of matrix rows with a 1 in column ``i`` that also have a 1 in
   column ``j``.
2. Greedily pick ``f`` (basis row, usage column) pairs.  For a candidate
   basis row ``c``, the optimal usage column sets ``b_r = 1`` exactly for
   the matrix rows where adding ``c`` has positive cover gain; the
   candidate with the best total gain wins.

The greedy selection is **prefix-stable in f**: each level's choice depends
only on the cover state left by the previous levels, never on the target
degree, so the degree-``f`` result is the ``f``-prefix of the degree-
``(m-1)`` run at the same ``tau``.  :func:`_asso_descent` exploits that by
running the greedy descent *once* per ``tau`` and snapshotting every level
(and a sweep skips a ``tau`` whose candidate set repeats an earlier one's);
:func:`asso` and :func:`asso_ladder` are both thin views of the same
descent, which is what makes ladder-profiled results byte-identical to the
per-degree path (see DESIGN.md "BMF kernel").

The threshold ``tau`` trades precision of candidates for recall; BLASYS
sweeps it per subcircuit (§4: "for each subcircuit we perform a sweep on
the factorization threshold"), which :func:`asso_sweep` (per degree) and
:func:`asso_ladder` (all degrees at once) implement.

Gain scoring runs on the packed row-mask kernel
(:mod:`repro.core.bmf.packed`) whenever the matrix has at most
``MAX_MASK_BITS`` columns — one subset-sum table lookup per (row,
candidate) instead of a float matmul — and falls back to the dense matmul
above that width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ...circuit.simulate import bit_count, pack_bits
from ...errors import FactorizationError
from .boolean import check_weights, weighted_error
from .packed import (
    MAX_MASK_BITS,
    PackedColumns,
    candidate_gains_masks,
    row_masks,
    weight_table,
    weighted_counts_error,
)

#: Default threshold sweep, matching the resolution used in the ASSO papers.
DEFAULT_TAUS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _confidence(M: np.ndarray) -> np.ndarray:
    """The (m × m) column-confidence matrix ``conf[i, j] = conf(i -> j)``.

    Depends only on ``M`` — a threshold sweep computes it once and
    re-thresholds it per ``tau``.
    """
    counts = np.asarray(M, dtype=bool).astype(np.int64)
    co = counts.T @ counts  # co[i, j] = |rows with 1 in both i and j|
    diag = np.diag(co).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        conf = co / diag[:, None]
    return np.nan_to_num(conf, nan=0.0)


def association_candidates(
    M: np.ndarray,
    tau: float,
    dedup: bool = False,
    conf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Candidate basis rows: thresholded column-confidence matrix.

    With ``dedup=False`` (the historical contract) the result is the full
    ``m × m`` association matrix.  With ``dedup=True`` all-zero rows are
    dropped and duplicate rows are collapsed to their **first occurrence,
    in original row order** — duplicates score identically at every greedy
    level, and the first-max ``argmax`` tie rule would always pick the
    first occurrence anyway, so deduplication is decision-identical while
    shrinking the per-level scoring work.

    ``conf`` optionally supplies a precomputed :func:`_confidence` matrix
    (the tau sweep shares one across thresholds).
    """
    if conf is None:
        conf = _confidence(M)
    cand = conf >= tau
    if not dedup:
        return cand
    cand = cand[cand.any(axis=1)]
    if cand.shape[0] > 1:
        _, first = np.unique(cand, axis=0, return_index=True)
        cand = cand[np.sort(first)]
    return cand


def _candidate_gains(
    M: np.ndarray,
    covered: np.ndarray,
    candidates: np.ndarray,
    w: np.ndarray,
    bonus: float,
    penalty: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense fallback scoring for matrices wider than ``MAX_MASK_BITS``.

    For candidate ``c`` and matrix row ``r``, adding ``c`` to row ``r``'s OR
    newly covers the positions ``c & ~covered[r]``; each such position gains
    ``bonus * w_j`` if ``M[r, j]`` is 1 and loses ``penalty * w_j``
    otherwise.

    Returns:
        (total_gain per candidate, usage matrix of shape (n, n_cand)).
    """
    good = (M & ~covered).astype(float)  # newly coverable 1s
    bad = (~M & ~covered).astype(float)  # newly covered 0s
    cand_w = candidates.astype(float) * w[None, :]  # (n_cand, m)
    gain = bonus * (good @ cand_w.T) - penalty * (bad @ cand_w.T)  # (n, n_cand)
    usage = gain > 0
    totals = np.where(usage, gain, 0.0).sum(axis=0)
    return totals, usage


@dataclass(frozen=True)
class AssoResult:
    """Output of a single ASSO run."""

    B: np.ndarray
    C: np.ndarray
    error: float
    tau: float


@dataclass
class _Descent:
    """One greedy descent to ``f_max``, with per-level error snapshots.

    ``errors[f]`` is the weighted error of the degree-``f`` prefix
    (``errors[0]`` = error of the empty cover); levels past an early break
    repeat the break-level error, matching a per-degree run that breaks at
    the same level.
    """

    B: np.ndarray
    C: np.ndarray
    errors: np.ndarray

    def snapshot(self, f: int, tau: float) -> AssoResult:
        """The degree-``f`` prefix as a standalone :class:`AssoResult`."""
        return AssoResult(
            self.B[:, :f].copy(), self.C[:f].copy(), float(self.errors[f]), tau
        )


@dataclass
class _DescentPrep:
    """Tau-invariant descent state, built once per threshold sweep.

    ``wtab``/``M_masks``/``Pm`` are None above ``MAX_MASK_BITS`` columns
    (the dense-scoring fallback).  Everything here is read-only during a
    descent; per-tau mutable cover state is created inside
    :func:`_asso_descent`.
    """

    conf: np.ndarray
    wtab: Optional[np.ndarray]
    M_masks: Optional[np.ndarray]
    Pm: Optional[PackedColumns]


def _prepare_descent(M: np.ndarray, w: np.ndarray) -> _DescentPrep:
    if M.shape[1] <= MAX_MASK_BITS:
        return _DescentPrep(
            _confidence(M), weight_table(w), row_masks(M),
            PackedColumns.from_dense(M),
        )
    return _DescentPrep(_confidence(M), None, None, None)


def _asso_descent(
    M: np.ndarray,
    f_max: int,
    candidates: np.ndarray,
    w: np.ndarray,
    bonus: float,
    penalty: float,
    prep: _DescentPrep,
) -> _Descent:
    """Run the greedy cover descent once, recording every level.

    ``candidates`` is the deduplicated association matrix of one ``tau``
    (:func:`association_candidates` with ``dedup=True``); together with
    ``M``, ``w`` and the cover weights it fully determines the descent.
    The packed path keeps three synchronized cover views: per-row bitmasks
    (for gain scoring), packed cover columns (for the per-level error
    popcounts), and the ``B``/``C`` snapshots themselves.
    """
    n, m = M.shape
    B = np.zeros((n, f_max), dtype=bool)
    C = np.zeros((f_max, m), dtype=bool)
    errors = np.empty(f_max + 1, dtype=np.float64)
    errors[0] = weighted_counts_error(M.sum(axis=0, dtype=np.int64), w)

    if candidates.size == 0:
        errors[1:] = errors[0]
        return _Descent(B, C, errors)

    packed = prep.wtab is not None
    if packed:
        wtab, M_masks, Pm = prep.wtab, prep.M_masks, prep.Pm
        cand_masks = row_masks(candidates)
        full_mask = np.uint64((1 << m) - 1)
        cov_masks = np.zeros(n, dtype=np.uint64)
        Pcov = PackedColumns.zeros(m, n)
    else:
        covered = np.zeros_like(M)

    for level in range(f_max):
        if packed:
            good = M_masks & ~cov_masks
            bad = ~M_masks & ~cov_masks & full_mask
            totals, usage = candidate_gains_masks(
                good, bad, cand_masks, wtab, bonus, penalty
            )
        else:
            totals, usage = _candidate_gains(
                M, covered, candidates, w, bonus, penalty
            )
        best = int(np.argmax(totals))
        if totals[best] <= 0:
            errors[level + 1 :] = errors[level]
            break  # no candidate helps; remaining factors stay zero
        C[level] = candidates[best]
        use = usage[:, best]
        B[:, level] = use
        if packed:
            cov_masks[use] |= cand_masks[best]
            use_words = pack_bits(use.astype(np.uint8))
            Pcov.words[C[level]] |= use_words[None, :]
            counts = bit_count(Pm.words ^ Pcov.words).sum(axis=1)
            errors[level + 1] = weighted_counts_error(counts, w)
        else:
            covered |= np.outer(use, C[level])
            errors[level + 1] = weighted_error(M, covered, w)
    return _Descent(B, C, errors)


def _distinct_descents(
    M: np.ndarray,
    f_max: int,
    taus: Sequence[float],
    w: np.ndarray,
    bonus: float,
    penalty: float,
) -> Iterator[Tuple[float, _Descent]]:
    """One descent per distinct candidate set of a threshold sweep.

    Yields ``(tau, descent)`` in ``taus`` order, skipping every ``tau``
    whose deduplicated candidates equal an earlier ``tau``'s: its descent
    would repeat that one error for error, and under the sweep's
    first-strictly-lower rule it could never win.
    """
    prep = _prepare_descent(M, w)
    seen = set()
    for tau in taus:
        candidates = association_candidates(M, tau, dedup=True, conf=prep.conf)
        key = (candidates.shape, candidates.tobytes())
        if key in seen:
            continue
        seen.add(key)
        yield tau, _asso_descent(M, f_max, candidates, w, bonus, penalty, prep)


def _check_matrix_degree(M: np.ndarray, f: int) -> np.ndarray:
    M = np.asarray(M, dtype=bool)
    if M.ndim != 2:
        raise FactorizationError("M must be 2-D")
    if not 1 <= f:
        raise FactorizationError(f"factorization degree must be >= 1, got {f}")
    return M


def asso(
    M: np.ndarray,
    f: int,
    tau: float = 0.9,
    weights: Optional[np.ndarray] = None,
    bonus: float = 1.0,
    penalty: float = 1.0,
) -> AssoResult:
    """One ASSO run at a fixed confidence threshold.

    Args:
        M: (n, m) boolean matrix to factor.
        f: Factorization degree, ``1 <= f``.  (BLASYS uses ``f < m``.)
        tau: Association confidence threshold in (0, 1].
        weights: Per-column error weights (None = uniform).
        bonus / penalty: Cover-function weights w+ / w- from the ASSO
            paper; the final error metric always counts both at weight 1.

    Returns:
        :class:`AssoResult` with ``B`` (n × f), ``C`` (f × m) and the
        weighted error of ``M`` vs ``B ∘ C``.
    """
    return asso_sweep(M, f, (tau,), weights, bonus, penalty)


def asso_sweep(
    M: np.ndarray,
    f: int,
    taus: Sequence[float] = DEFAULT_TAUS,
    weights: Optional[np.ndarray] = None,
    bonus: float = 1.0,
    penalty: float = 1.0,
) -> AssoResult:
    """Run ASSO over a threshold sweep and keep the lowest-error result."""
    if not taus:
        raise FactorizationError("empty threshold sweep")
    M = _check_matrix_degree(M, f)
    w = check_weights(weights, M.shape[1])
    best: Optional[AssoResult] = None
    for tau, descent in _distinct_descents(M, f, taus, w, bonus, penalty):
        result = descent.snapshot(f, tau)
        if best is None or result.error < best.error:
            best = result
    return best


def asso_ladder(
    M: np.ndarray,
    f_max: int,
    taus: Sequence[float] = DEFAULT_TAUS,
    weights: Optional[np.ndarray] = None,
    bonus: float = 1.0,
    penalty: float = 1.0,
) -> Dict[int, AssoResult]:
    """Threshold-swept ASSO for **every** degree ``1 .. f_max`` at once.

    One greedy descent per distinct candidate set (instead of one per
    ``(tau, f)`` pair); per degree the first strictly-lower-error
    threshold wins, exactly the tie rule of :func:`asso_sweep`, so
    ``asso_ladder(M, F)[f]`` equals ``asso_sweep(M, f)`` field-for-field
    for every ``f <= F``.
    """
    M = _check_matrix_degree(M, f_max)
    if not taus:
        raise FactorizationError("empty threshold sweep")
    w = check_weights(weights, M.shape[1])
    best: Dict[int, AssoResult] = {}
    for tau, descent in _distinct_descents(M, f_max, taus, w, bonus, penalty):
        for f in range(1, f_max + 1):
            held = best.get(f)
            if held is None or float(descent.errors[f]) < held.error:
                best[f] = descent.snapshot(f, tau)
    return best
