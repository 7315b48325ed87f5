"""Heuristic two-level minimization in the espresso style.

This is the workhorse synthesizer used to turn BMF compressor truth tables
into logic.  It follows the classic loop of the espresso algorithm —
EXPAND against the OFF-set, IRREDUNDANT, and an optional REDUCE/re-EXPAND
quality pass — but operates directly on explicit truth tables, which is the
regime BLASYS puts it in (windows have at most ~10 inputs, so the minterm
universe is at most ~1k rows).

Functions with don't-cares are supported; the SALSA baseline leans on that
to simplify under approximation don't-cares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import SynthesisError
from .sop import Cover, Cube, on_off_dc_split


@dataclass(frozen=True)
class EspressoOptions:
    """Tuning knobs for :func:`espresso`.

    Attributes:
        quality: When True, run the REDUCE / re-EXPAND refinement pass
            (slower, usually a few literals better).
        literal_order_msb_first: Expansion tries to raise high-index
            literals first; deterministic either way.
        seed: Tie-break ordering of ON-minterm processing.
    """

    quality: bool = False
    literal_order_msb_first: bool = True
    seed: int = 0


def _expand_cube(
    cube: Cube, off: np.ndarray, k: int, msb_first: bool
) -> Cube:
    """Raise as many literals of ``cube`` as possible without hitting OFF.

    Single-pass greedy: literals are visited in a fixed order and raised
    when the enlarged cube still avoids the OFF-set.

    ``d[j]`` holds the cube's remaining literals that OFF minterm ``j``
    violates; raising literal ``i`` covers ``j`` iff no other literal is
    left in ``d[j]``.  Raises only shrink ``d``, so a blocked literal stays
    blocked and one sweep reaches the fixed point.
    """
    order = range(k - 1, -1, -1) if msb_first else range(k)
    mask = cube.mask
    d = (off ^ cube.value) & mask
    for i in order:
        bit = 1 << i
        if not mask & bit:
            continue
        raised = d & ~bit
        if not raised.all():  # some OFF minterm would be covered
            continue
        mask &= ~bit
        d = raised
    return Cube(mask, cube.value & mask)


def _irredundant(cover: List[Cube], on: np.ndarray) -> List[Cube]:
    """Drop cubes whose ON-set contribution is covered by the rest.

    Greedy in increasing order of covered ON minterms (cheap cubes are the
    most likely to be redundant).
    """
    if not cover or on.size == 0:
        return [cover[0]] if cover else []
    matrix = np.stack([c.covers(on) for c in cover])  # (n_cubes, n_on)
    counts = matrix.sum(axis=1)
    keep = np.ones(len(cover), dtype=bool)
    for idx in np.argsort(counts, kind="stable"):
        keep[idx] = False
        still = matrix[keep].any(axis=0) if keep.any() else np.zeros(on.size, bool)
        if not still.all():
            keep[idx] = True
    return [c for i, c in enumerate(cover) if keep[i]]


def _reduce_cube(cube: Cube, others_cover: np.ndarray, on: np.ndarray, k: int) -> Cube:
    """Shrink ``cube`` to the smallest cube covering its *unique* ON minterms.

    ``others_cover`` marks ON minterms already covered by other cubes.  The
    reduced cube keeps only the literals needed around its private minterms,
    giving the following re-expansion room to move in a different direction.
    """
    mine = cube.covers(on) & ~others_cover
    if not mine.any():
        return cube
    private = on[mine]
    mask = cube.mask
    value = cube.value
    # Tighten every free input whose value is constant across private minterms.
    for i in range(k):
        bit = 1 << i
        if mask & bit:
            continue
        bits = (private >> i) & 1
        if (bits == bits[0]).all():
            mask |= bit
            value |= bit if bits[0] else 0
    return Cube(mask, int(value))


def espresso(
    table: np.ndarray,
    dc: Optional[np.ndarray] = None,
    options: EspressoOptions = EspressoOptions(),
) -> Cover:
    """Minimize a single-output truth table into a prime, irredundant cover.

    Args:
        table: Boolean array of length ``2**k``.
        dc: Optional boolean don't-care mask of the same length; DC minterms
            may be covered or not, whichever is cheaper.
        options: See :class:`EspressoOptions`.

    Returns:
        A :class:`Cover` whose function equals ``table`` on all care rows.
    """
    table = np.asarray(table, dtype=bool)
    n = table.shape[0]
    if n == 0 or n & (n - 1):
        raise SynthesisError(f"table length {n} is not a power of two")
    k = n.bit_length() - 1
    on, off, _ = on_off_dc_split(table, dc)

    if on.size == 0:
        return Cover(k, [])
    if off.size == 0:
        return Cover(k, [Cube(0, 0)])  # tautology

    rng = np.random.default_rng(options.seed)
    order = on.copy()
    rng.shuffle(order)

    covered = np.zeros(on.size, dtype=bool)
    cubes: List[Cube] = []
    for minterm in order:
        if covered[np.searchsorted(on, minterm)]:  # ``on`` is sorted
            continue
        cube = _expand_cube(
            Cube.from_minterm(int(minterm), k), off, k, options.literal_order_msb_first
        )
        covered |= cube.covers(on)
        cubes.append(cube)

    cubes = _irredundant(cubes, on)

    if options.quality and len(cubes) > 1:
        # One REDUCE / EXPAND / IRREDUNDANT refinement iteration.  REDUCE is
        # sequential: each cube is shrunk against the *current* cover state,
        # which preserves total ON coverage at every step.
        refined: List[Cube] = list(cubes)
        for i in range(len(refined)):
            matrix = np.stack([c.covers(on) for c in refined])
            others = np.delete(matrix, i, axis=0).any(axis=0)
            shrunk = _reduce_cube(refined[i], others, on, k)
            refined[i] = _expand_cube(
                shrunk, off, k, not options.literal_order_msb_first
            )
        alt = _irredundant(refined, on)
        alt_cover, cur_cover = Cover(k, alt), Cover(k, cubes)
        better = (len(alt), alt_cover.n_literals) < (len(cubes), cur_cover.n_literals)
        if better and alt_cover.covers(on).all():
            cubes = alt

    return Cover(k, cubes)


def espresso_multi(
    tables: np.ndarray,
    dc: Optional[np.ndarray] = None,
    options: EspressoOptions = EspressoOptions(),
) -> List[Cover]:
    """Minimize each column of a ``(2**k, m)`` multi-output table.

    Outputs are minimized independently; product-term sharing between
    outputs is recovered structurally (identical cubes hash to the same AND
    gate when the covers are built into a netlist).
    """
    tables = np.asarray(tables, dtype=bool)
    if tables.ndim != 2:
        raise SynthesisError("espresso_multi expects a 2-D table")
    dc_col = (lambda j: None) if dc is None else (lambda j: np.asarray(dc)[:, j])
    return [
        espresso(tables[:, j], dc_col(j), options) for j in range(tables.shape[1])
    ]
