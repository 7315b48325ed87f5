"""Alternating refinement of a Boolean factorization.

Given ``M ≈ B ∘ C``, alternately:

* re-solve every row of ``B`` *exactly* (enumerate all ``2**f`` subsets of
  the basis rows of ``C`` — vectorized, viable for the small ``f`` BLASYS
  uses), and
* greedily flip bits of ``C`` while any single flip reduces the weighted
  error.

Each step is monotone non-increasing in error, so the loop terminates.
The BLASYS paper lists "direct incorporation of the QoR metric into the
numerical optimization" as future work — this module is that extension,
exercised by the ablation benchmark.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...circuit.simulate import bit_count
from ...errors import FactorizationError
from .boolean import bool_product, check_weights, weighted_error
from .packed import (
    PackedColumns,
    combine_columns,
    mismatch_counts,
    packed_bool_product,
    weighted_counts_error,
)

#: Exact B-row re-solve is exponential in f; refuse above this.
MAX_EXACT_F = 16


def _combination_table(C: np.ndarray, algebra: str) -> np.ndarray:
    """All ``2**f`` accumulations of the rows of ``C``; shape (2**f, m).

    Row ``s`` is the OR (or XOR) of the basis rows selected by the bits of
    ``s``.
    """
    f, m = C.shape
    combos = np.zeros((1 << f, m), dtype=bool)
    for s in range(1, 1 << f):
        low = s & -s
        prev = s ^ low
        row = C[low.bit_length() - 1]
        if algebra == "semiring":
            combos[s] = combos[prev] | row
        else:
            combos[s] = combos[prev] ^ row
    return combos


def update_B_exact(
    M: np.ndarray,
    C: np.ndarray,
    weights: Optional[np.ndarray] = None,
    algebra: str = "semiring",
) -> np.ndarray:
    """Optimal ``B`` for fixed ``C`` under weighted Hamming error.

    Every row of ``B`` is independent: enumerate all subset-accumulations
    of ``C``'s rows and pick the closest to the corresponding row of ``M``.
    """
    M = np.asarray(M, dtype=bool)
    C = np.asarray(C, dtype=bool)
    f, m = C.shape
    if f > MAX_EXACT_F:
        raise FactorizationError(f"exact B update limited to f <= {MAX_EXACT_F}")
    w = check_weights(weights, m)
    combos = _combination_table(C, algebra)  # (2^f, m)
    # distance[r, s] = sum_j w_j * (M[r,j] XOR combos[s,j])
    Mw = M.astype(float) * w[None, :]
    Nw = (~M).astype(float) * w[None, :]
    dist = Mw @ (~combos).T.astype(float) + Nw @ combos.T.astype(float)
    best = np.argmin(dist, axis=1)  # (n,)
    B = np.zeros((M.shape[0], f), dtype=bool)
    for level in range(f):
        B[:, level] = (best >> level) & 1
    return B


def update_C_greedy(
    M: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    weights: Optional[np.ndarray] = None,
    algebra: str = "semiring",
    max_passes: int = 4,
) -> np.ndarray:
    """Greedy bit-flip descent on ``C`` for fixed ``B``.

    Flips any single entry of ``C`` whose flip strictly reduces the
    weighted error, until a pass makes no change (or ``max_passes``).

    Flip scoring runs on the packed-column kernel: flipping ``C[l, j]``
    only changes product column ``j``, so a trial costs one packed column
    re-accumulation plus a popcount instead of a full dense product.  The
    trial error is the canonical ``dot(counts, w)`` of
    :func:`repro.core.bmf.boolean.weighted_error`, so accept/reject
    decisions are bit-for-bit those of the dense descent.
    """
    M = np.asarray(M, dtype=bool)
    B = np.asarray(B, dtype=bool)
    C = np.asarray(C, dtype=bool).copy()
    w = check_weights(weights, M.shape[1])
    f, m = C.shape

    Pm = PackedColumns.from_dense(M)
    basis = PackedColumns.from_dense(B)
    prod = packed_bool_product(basis, C, algebra)
    counts = mismatch_counts(Pm, prod).astype(np.float64)
    error = weighted_counts_error(counts, w)
    for _ in range(max_passes):
        improved = False
        for level in range(f):
            for j in range(m):
                C[level, j] = not C[level, j]
                new_col = combine_columns(basis.words, C[:, j], algebra)
                new_cnt = int(bit_count(Pm.words[j] ^ new_col).sum())
                old_cnt = counts[j]
                counts[j] = new_cnt
                trial = weighted_counts_error(counts, w)
                if trial < error:
                    error = trial
                    prod.words[j] = new_col
                    improved = True
                else:
                    C[level, j] = not C[level, j]
                    counts[j] = old_cnt
        if not improved:
            break
    return C


def smooth_B_ties(
    M: np.ndarray,
    C: np.ndarray,
    weights: Optional[np.ndarray] = None,
    algebra: str = "semiring",
    passes: int = 3,
    slack: float = 0.0,
) -> np.ndarray:
    """Complexity-aware re-coding of ``B``: the literal-aware step.

    For each row of ``M`` there is usually more than one code (subset of
    ``C``'s basis rows) achieving — or nearly achieving — the minimum
    weighted error; which one is picked barely affects QoR but decides how
    *compressible* the compressor truth table ``B`` is.  This routine
    picks, per row, the near-optimal code most common among the row's
    input-space Hamming neighbours, so adjacent truth-table rows share
    codes and synthesis can merge them into large cubes / shallow BDDs.
    It implements the "literal aware approximations" direction the paper
    lists as future work — without it, ASSO's usage columns are
    high-entropy and the synthesized compressor can dwarf the window it
    replaces.

    Args:
        slack: Extra weighted error allowed per row when choosing a
            smoother code.  ``0`` restricts the choice to exact ties and
            preserves the error of :func:`update_B_exact`; positive values
            trade bounded per-row error for simpler factors.

    Returns a new ``B``; with ``slack == 0`` its error equals the per-row
    optimum.

    A row with a single tie-optimal code keeps it on every pass, so votes
    are only counted for multi-tie rows (typically a few percent of them),
    as exact integer neighbour counts.
    """
    M = np.asarray(M, dtype=bool)
    C = np.asarray(C, dtype=bool)
    f, m = C.shape
    n = M.shape[0]
    if f > MAX_EXACT_F:
        raise FactorizationError(f"smoothing limited to f <= {MAX_EXACT_F}")
    if slack < 0:
        raise FactorizationError("slack must be non-negative")
    w = check_weights(weights, m)
    combos = _combination_table(C, algebra)  # (2^f, m)
    Mw = M.astype(float) * w[None, :]
    Nw = (~M).astype(float) * w[None, :]
    dist = Mw @ (~combos).T.astype(float) + Nw @ combos.T.astype(float)
    row_min = dist.min(axis=1)
    ties = dist <= row_min[:, None] + slack + 1e-9  # (n, 2^f)

    # Initial assignment: most globally popular tie-optimal code per row.
    popularity = ties.sum(axis=0).astype(float)
    codes = np.argmax(ties * popularity[None, :], axis=1)

    k = max(n.bit_length() - 1, 1)
    neighbors = np.empty((n, k), dtype=np.int64)
    idx = np.arange(n)
    for i in range(k):
        neighbors[:, i] = idx ^ (1 << i)
    neighbors %= n  # safety for non-power-of-two row counts

    rows = np.flatnonzero(ties.sum(axis=1) > 1)
    n_codes = 1 << f
    row_neighbors = neighbors[rows]
    row_ties = ties[rows]
    offsets = np.arange(rows.size)[:, None] * n_codes
    for _ in range(passes):
        votes = np.bincount(
            (offsets + codes[row_neighbors]).ravel(),
            minlength=rows.size * n_codes,
        ).reshape(rows.size, n_codes)
        # Among tie-optimal codes, take the neighbourhood favourite (with a
        # small popularity epsilon so isolated rows stay deterministic).
        score = row_ties * (votes + 1e-3 * popularity[None, :])
        new_codes = np.argmax(score, axis=1)
        if (new_codes == codes[rows]).all():
            break
        codes[rows] = new_codes

    B = np.zeros((n, f), dtype=bool)
    for level in range(f):
        B[:, level] = (codes >> level) & 1
    return B


def refine(
    M: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    weights: Optional[np.ndarray] = None,
    algebra: str = "semiring",
    max_rounds: int = 8,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Alternating B/C refinement; returns ``(B, C, error)``.

    The error is monotone non-increasing across rounds and the loop stops
    at the first round with no improvement.
    """
    M = np.asarray(M, dtype=bool)
    w = check_weights(weights, M.shape[1])
    B = np.asarray(B, dtype=bool).copy()
    C = np.asarray(C, dtype=bool).copy()
    error = weighted_error(M, bool_product(B, C, algebra), w)
    for _ in range(max_rounds):
        B_new = update_B_exact(M, C, w, algebra)
        C_new = update_C_greedy(M, B_new, C, w, algebra)
        new_error = weighted_error(M, bool_product(B_new, C_new, algebra), w)
        if new_error >= error:
            break
        B, C, error = B_new, C_new, new_error
    return B, C, error
