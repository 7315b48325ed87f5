"""Bit-parallel circuit simulation.

Simulation packs 64 input patterns per ``uint64`` word, so an n-pattern run
evaluates each gate with ``ceil(n / 64)`` numpy word operations.  The packing
convention is little-endian throughout: pattern ``s`` lives in word ``s // 64``
at bit ``s % 64``, matching ``numpy.packbits(..., bitorder="little")`` on the
byte view of the word array.

Two entry points are provided:

* :func:`simulate_full` — evaluates every node and returns the full value
  matrix.  Use for small/medium pattern counts (the design-space explorer
  keeps this matrix around for incremental re-evaluation).
* :func:`simulate_outputs` — evaluates in chunks and only materializes output
  values, suitable for million-pattern Monte-Carlo runs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from .gate import Op
from .netlist import Circuit

#: Patterns per packed word.
WORD_BITS = 64

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


def words_for(n_patterns: int) -> int:
    """Number of uint64 words needed to hold ``n_patterns`` packed bits."""
    return (n_patterns + WORD_BITS - 1) // WORD_BITS


class Chunk(NamedTuple):
    """One word-aligned slice of the pattern axis.

    Attributes:
        start / stop: Half-open word range ``[start, stop)`` into a packed
            value array.
        n_valid: Number of valid patterns inside the chunk (``None`` when
            the plan was built without a pattern count).  Interior chunks
            carry ``(stop - start) * 64`` valid patterns; the chunk holding
            the end of the sample set is clamped, and chunks entirely past
            it hold 0 (never a negative count — see :func:`plan_chunks`).
    """

    start: int
    stop: int
    n_valid: Optional[int]

    @property
    def n_words(self) -> int:
        return self.stop - self.start


def plan_chunks(
    n_samples: Optional[int],
    chunk_words: int,
    total_words: Optional[int] = None,
) -> List[Chunk]:
    """Partition the packed pattern axis into word-aligned chunks.

    This is the single chunking discipline shared by streaming simulation
    (:func:`simulate_outputs`) and the exploration engine's chunk plan
    (:class:`repro.core.engine.CompiledEvaluator`): every consumer
    that iterates the pattern axis in bounded memory walks the same plan,
    so the per-chunk valid-pattern counts — and therefore the tail-mask
    behaviour at every chunk boundary — cannot drift between layers.

    Args:
        n_samples: Total valid patterns, or ``None`` when unknown (every
            chunk's ``n_valid`` is then ``None`` and no tail masking
            applies).
        chunk_words: Maximum words per chunk (≥ 1).
        total_words: Words to cover; defaults to ``words_for(n_samples)``.

    Returns:
        Chunks covering ``[0, total_words)`` in order.  Each ``n_valid``
        is clamped to the chunk's own range: ``min(max(n_samples -
        start * 64, 0), (stop - start) * 64)``.  The ``max(..., 0)`` is
        load-bearing — a chunk entirely past ``n_samples`` holds **zero**
        valid patterns, not a negative count (negative values would reach
        ``tail_mask`` through Python's modulo and produce a wrong mask,
        leaving LUT garbage in the padded region).

    Raises:
        SimulationError: on a non-positive ``chunk_words`` or a missing
            ``total_words`` when ``n_samples`` is ``None``.
    """
    if chunk_words < 1:
        raise SimulationError(f"chunk_words must be >= 1, got {chunk_words}")
    if total_words is None:
        if n_samples is None:
            raise SimulationError(
                "plan_chunks needs n_samples or an explicit total_words"
            )
        total_words = words_for(n_samples)
    chunks: List[Chunk] = []
    for start in range(0, total_words, chunk_words):
        stop = min(start + chunk_words, total_words)
        n_valid: Optional[int] = None
        if n_samples is not None:
            n_valid = min(
                max(n_samples - start * WORD_BITS, 0),
                (stop - start) * WORD_BITS,
            )
        chunks.append(Chunk(start, stop, n_valid))
    return chunks


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., n) array of 0/1 values into (..., ceil(n/64)) uint64.

    The trailing bits of the final word are zero.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-packed8.shape[-1]) % 8
    if pad:
        pad_widths = [(0, 0)] * (packed8.ndim - 1) + [(0, pad)]
        packed8 = np.pad(packed8, pad_widths)
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: (..., W) uint64 -> (..., n) uint8."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :n]


#: Widest row set :func:`decode_rows` interprets (int64 holds 63 value bits).
MAX_DECODE_BITS = 63


def decode_rows(words: np.ndarray, n: int, signed: bool = False) -> np.ndarray:
    """Packed rows in, one integer per sample out.

    ``words`` is a ``(k, W)`` packed matrix; row ``i`` supplies bit ``i``
    of sample ``s``'s integer, and with ``signed`` the last row carries
    the two's-complement weight ``-2**(k-1)``.  The rows are unpacked in
    one call and combined by Horner shift-add in the narrowest signed
    integer type with room for ``k`` bits (int16 / int32 / int64), so the
    arithmetic is exact and a narrow table index moves little memory;
    callers that subtract decoded values widen them first.  Chunk-sliced
    calls reproduce a slice of the full-width call.  This is the one
    bit-plane decode: QoR word integers and window-table row indices both
    come from it.  Samples past ``n`` are not decoded; a full-word ``n``
    past the pattern count decodes tail garbage, which table callers mask
    after the lookup.

    Raises:
        SimulationError: for more than :data:`MAX_DECODE_BITS` rows.
    """
    k = words.shape[0]
    if k > MAX_DECODE_BITS:
        raise SimulationError(
            f"cannot decode {k} bit rows into int64 "
            f"(at most {MAX_DECODE_BITS})"
        )
    dtype = np.int16 if k < 16 else np.int32 if k < 32 else np.int64
    if k == 0:
        return np.zeros(n, dtype=dtype)
    bits = unpack_bits(words, n)
    acc = bits[k - 1].astype(dtype)
    if signed:
        np.negative(acc, out=acc)
    for i in range(k - 2, -1, -1):
        np.add(acc, acc, out=acc)
        np.add(acc, bits[i], out=acc)
    return acc


def lookup_packed(table_t: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Packed outputs of a transposed truth table at per-sample rows.

    ``table_t`` is the ``(m, 2**k)`` uint8 transpose of a ``(2**k, m)``
    table; ``idx`` holds one row index per sample (from
    :func:`decode_rows`).  Returns ``(m, words_for(len(idx)))`` packed
    words.  Tails are not masked: callers whose index covers samples past
    the pattern count mask them (see DESIGN.md's tail-bit invariant).
    """
    return pack_bits(np.take(table_t, idx, axis=1))


def table_transpose(table: np.ndarray) -> np.ndarray:
    """The ``(m, 2**k)`` uint8 layout :func:`lookup_packed` reads."""
    return np.ascontiguousarray(np.asarray(table).T, dtype=np.uint8)


def tail_mask(n: int) -> np.uint64:
    """Mask selecting the valid bits of the final word for ``n`` patterns."""
    rem = n % WORD_BITS
    if rem == 0:
        return _FULL_WORD
    return np.uint64((1 << rem) - 1)


#: Per-byte set-bit counts; the portable fallback for :func:`bit_count`.
_POPCOUNT_LUT = np.array(
    [bin(v).count("1") for v in range(256)], dtype=np.uint8
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _bit_count_lut(words: np.ndarray) -> np.ndarray:
    """Lookup-table popcount: per-element set-bit counts as int64."""
    by = words.view(np.uint8).reshape(words.shape + (8,))
    return _POPCOUNT_LUT[by].sum(axis=-1, dtype=np.int64)


def bit_count(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array, as int64.

    Uses ``np.bitwise_count`` (numpy >= 2.0) when available and a per-byte
    lookup table otherwise; either way the result has the input's shape and
    never materializes an unpacked bit array.  This is the shared popcount
    primitive for both simulation statistics and the packed BMF kernels
    (:mod:`repro.core.bmf.packed`).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    return _bit_count_lut(words)


def popcount_words(words: np.ndarray, n: Optional[int] = None) -> int:
    """Count set bits in a packed array, optionally restricted to ``n`` patterns.

    Raises:
        ValueError: When ``n`` is negative or needs more packed words
            than each row of ``words`` holds — a too-large ``n`` would
            otherwise silently count whatever the (nonexistent) tail
            words happen to alias.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if n is not None:
        if n < 0:
            raise ValueError(f"pattern count must be >= 0, got {n}")
        flat = words.reshape(words.shape[0], -1) if words.ndim > 1 else words
        w = words_for(n)
        capacity = flat.shape[-1] if words.ndim else 0
        if w > capacity:
            raise ValueError(
                f"n={n} needs {w} packed words per row but the array "
                f"holds {capacity}"
            )
        if w == 0:
            return 0
        if words.ndim == 1:
            words = words[:w].copy()
            words[-1] &= tail_mask(n)
        else:
            words = flat[:, :w].copy()
            words[:, -1] &= tail_mask(n)
    return int(bit_count(words).sum())


def exhaustive_input_words(k: int) -> np.ndarray:
    """Packed input values enumerating all ``2**k`` patterns in table order.

    Row ``r`` of the implied truth table corresponds to the input assignment
    with input ``i`` equal to bit ``i`` of ``r`` (input 0 toggles fastest).
    Returns an array of shape ``(k, words_for(2**k))``.
    """
    if k < 0:
        raise SimulationError("negative input count")
    n = 1 << k
    idx = np.arange(n, dtype=np.uint32)
    bits = ((idx[None, :] >> np.arange(k, dtype=np.uint32)[:, None]) & 1).astype(
        np.uint8
    )
    return pack_bits(bits)


def random_input_words(
    k: int, n_patterns: int, rng: np.random.Generator
) -> np.ndarray:
    """Packed uniformly random input values of shape ``(k, words_for(n))``.

    Bits beyond ``n_patterns`` in the final word are forced to zero so that
    downstream popcounts over the full array are safe.
    """
    w = words_for(n_patterns)
    words = rng.integers(0, 1 << 64, size=(k, w), dtype=np.uint64)
    if w:
        words[:, -1] &= tail_mask(n_patterns)
    return words


def patterns_to_words(patterns: np.ndarray) -> np.ndarray:
    """Convert an (n_patterns, k) 0/1 matrix into packed ``(k, W)`` words."""
    patterns = np.asarray(patterns)
    if patterns.ndim != 2:
        raise SimulationError("patterns must be a 2-D (n, k) array")
    return pack_bits(patterns.T.astype(np.uint8))


def words_to_patterns(words: np.ndarray, n: int) -> np.ndarray:
    """Convert packed ``(k, W)`` words back into an (n, k) 0/1 matrix."""
    return unpack_bits(words, n).T


def mask_tail_words(words: np.ndarray, n_valid: int) -> np.ndarray:
    """Zero the bits of ``words`` beyond ``n_valid`` patterns, in place.

    Enforces the packed-word tail-bit invariant (see DESIGN.md): bits past
    the pattern count carry no information and must be zero wherever code
    compares packed arrays directly.
    """
    w_valid = words_for(n_valid)
    if w_valid < words.shape[-1]:
        words[..., w_valid:] = 0
    if w_valid:
        words[..., w_valid - 1] &= tail_mask(n_valid)
    return words


def _lut_eval(
    table: np.ndarray,
    fanin_words: Sequence[np.ndarray],
    n_valid: Optional[int] = None,
) -> np.ndarray:
    """Evaluate a LUT on packed fanin values.

    Unpacks the fanins to per-pattern indices, gathers through the table and
    repacks.  Cost is linear in pattern count; LUTs are only used for
    window-substitution candidates so this stays off the hot path of plain
    gate evaluation.

    Tail bits beyond ``n_valid`` index the table with garbage (all-zero
    fanin tails hit ``table[0]``, which may be 1), so when the pattern
    count is known the output tail is masked back to zero.
    """
    rows = np.stack(fanin_words)
    idx = decode_rows(rows, rows.shape[1] * WORD_BITS)
    out = lookup_packed(table_transpose(np.asarray(table)[:, None]), idx)[0]
    if n_valid is not None:
        mask_tail_words(out, n_valid)
    return out


def _eval_node(
    op: Op,
    ins: Sequence[np.ndarray],
    table,
    w: int,
    n_valid: Optional[int] = None,
) -> np.ndarray:
    """Evaluate one node on packed fanin value arrays of width ``w`` words."""
    if op is Op.CONST0:
        return np.zeros(w, dtype=np.uint64)
    if op is Op.CONST1:
        return np.full(w, _FULL_WORD, dtype=np.uint64)
    if op is Op.BUF:
        return ins[0].copy()
    if op is Op.NOT:
        return ~ins[0]
    if op in (Op.AND, Op.NAND):
        acc = ins[0].copy()
        for x in ins[1:]:
            acc &= x
        return ~acc if op is Op.NAND else acc
    if op in (Op.OR, Op.NOR):
        acc = ins[0].copy()
        for x in ins[1:]:
            acc |= x
        return ~acc if op is Op.NOR else acc
    if op in (Op.XOR, Op.XNOR):
        acc = ins[0].copy()
        for x in ins[1:]:
            acc ^= x
        return ~acc if op is Op.XNOR else acc
    if op is Op.MUX:
        s, a, b = ins
        return (a & ~s) | (b & s)
    if op is Op.LUT:
        return _lut_eval(table, ins, n_valid)
    raise SimulationError(f"cannot evaluate op {op}")  # pragma: no cover


def simulate_full_reference(
    circuit: Circuit,
    input_words: np.ndarray,
    n_samples: Optional[int] = None,
) -> np.ndarray:
    """Per-node interpreted evaluation — the reference semantics.

    One numpy dispatch per node in id order.  Kept as the equivalence
    oracle for the compiled gate-program path (see
    :mod:`repro.core.engine`); both are byte-identical, tails included.
    """
    input_words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
    if input_words.shape[0] != circuit.n_inputs:
        raise SimulationError(
            f"expected {circuit.n_inputs} input rows, got {input_words.shape[0]}"
        )
    w = input_words.shape[1]
    values = np.zeros((circuit.n_nodes, w), dtype=np.uint64)
    next_input = 0
    for nid, node in enumerate(circuit.nodes):
        if node.op is Op.INPUT:
            values[nid] = input_words[next_input]
            next_input += 1
        else:
            ins = [values[f] for f in node.fanins]
            values[nid] = _eval_node(node.op, ins, node.table, w, n_samples)
    return values


#: Below this many node×word units the per-node interpreter wins (program
#: compilation is pure-Python work); above it the levelized gate program
#: amortizes.  Both paths are byte-identical, so the cutover is pure policy.
_COMPILED_MIN_WORK = 8192


def simulate_full(
    circuit: Circuit,
    input_words: np.ndarray,
    n_samples: Optional[int] = None,
) -> np.ndarray:
    """Evaluate every node; returns a ``(n_nodes, W)`` packed value matrix.

    Large runs execute the circuit's compiled structure-of-arrays gate
    program (one gathered numpy op per levelized (op, arity) class — see
    :mod:`repro.core.engine`); small ones fall back to the per-node
    interpreter.  Results are byte-identical either way, tails included.

    Args:
        circuit: The netlist to evaluate.
        input_words: Packed values for the primary inputs, shape
            ``(n_inputs, W)`` in circuit input order.
        n_samples: When given, LUT node outputs are tail-masked to this
            pattern count (gate tails stay unspecified either way — mask
            before comparing packed values; see DESIGN.md).
    """
    input_words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
    if circuit.n_nodes * max(input_words.shape[1], 1) < _COMPILED_MIN_WORK:
        return simulate_full_reference(circuit, input_words, n_samples)
    from ..core.engine import simulate_full_compiled  # lazy: engine builds on this module

    return simulate_full_compiled(circuit, input_words, n_samples)


def output_words_from_values(circuit: Circuit, values: np.ndarray) -> np.ndarray:
    """Select the output rows of a full value matrix, in output order."""
    return values[circuit.output_nodes()]


def simulate_outputs(
    circuit: Circuit,
    input_words: np.ndarray,
    chunk_words: int = 2048,
    n_samples: Optional[int] = None,
) -> np.ndarray:
    """Evaluate only primary outputs, chunking over the pattern axis.

    Memory use is bounded by ``n_nodes * chunk_words * 8`` bytes regardless
    of total pattern count.  Returns packed outputs of shape
    ``(n_outputs, W)``.  ``n_samples`` (which must match ``W`` when given)
    tail-masks LUT outputs as in :func:`simulate_full`.
    """
    input_words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
    w = input_words.shape[1]
    if w <= chunk_words:
        return output_words_from_values(
            circuit, simulate_full(circuit, input_words, n_samples)
        )
    out = np.zeros((circuit.n_outputs, w), dtype=np.uint64)
    for chunk in plan_chunks(n_samples, chunk_words, total_words=w):
        vals = simulate_full(
            circuit, input_words[:, chunk.start : chunk.stop], chunk.n_valid
        )
        out[:, chunk.start : chunk.stop] = output_words_from_values(
            circuit, vals
        )
    return out


def simulate_patterns(circuit: Circuit, patterns: np.ndarray) -> np.ndarray:
    """Convenience wrapper: (n, k) 0/1 patterns in, (n, m) 0/1 outputs out."""
    patterns = np.asarray(patterns)
    n = patterns.shape[0]
    out_words = simulate_outputs(circuit, patterns_to_words(patterns))
    return words_to_patterns(out_words, n)
