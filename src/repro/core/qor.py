"""Quality-of-result metrics over word-interpreted circuit outputs.

Implements the paper's Eq. 1 (average relative error) and Eq. 2 (average
absolute error), plus normalized-absolute and bit-level Hamming variants.
Outputs are grouped into words via the :class:`~repro.circuit.words.
WordSpec` metadata that benchmark circuits carry; a circuit without word
metadata is treated as a single unsigned word.

The one deviation from Eq. 1 (documented in DESIGN.md): relative error uses
``|R - R'| / max(|R|, 1)`` since the paper's formula is undefined at
``R = 0``.

Determinism contract (see DESIGN.md "Streaming execution"): every metric
value is derived from **canonical per-packed-word partial sums** of
*groups* of output rows — one group per output word for the value
metrics, one per output row for hamming.  Each 64-sample block (one
``uint64`` word of the packed output matrix) contributes one float
partial per group, a group's partials vector is reduced with a single
``ndarray.sum()``, and the group totals are combined left-associatively
in group order, divided by the term count.  A partial depends only on
its own 64 samples, so any word-aligned chunking of the pattern axis
reproduces the identical partials vector and therefore the identical
float.  The two metric paths — full evaluation
(:meth:`QoREvaluator.evaluate` / :meth:`QoREvaluator.metrics`) and the
engines' scoring fold (:meth:`QoREvaluator.chunk_scorer` +
:meth:`QoREvaluator.splice_partials` +
:meth:`QoREvaluator.evaluate_spliced`) — route through the same
per-group partials helpers and the same combination loop, so they
cannot drift.  Hamming partials are integer mismatch popcounts held as
floats, so their sums are exact in any order.

Word integers come from one bit-plane decode
(:func:`repro.circuit.simulate.decode_rows`), and the fold never decodes
a candidate's word: :meth:`QoREvaluator.patched_word_ints` adds
``weight_r · (new_r − old_r)`` for the candidate's dirty rows only to the
chunk's committed integers (``weight_r = ±2**i``).  That sum is exact int64
arithmetic, so the patched integers equal a full decode and every float
downstream stays byte-identical.  Words wider than 63 bits are rejected
at construction instead of wrapping silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitize import assert_tail_clean, freeze, sanitize_enabled
from ..errors import SimulationError
from ..circuit.netlist import Circuit
from ..circuit.simulate import (
    bit_count,
    decode_rows,
    mask_tail_words,
    tail_mask,
    unpack_bits,
    words_for,
)
from ..circuit.words import WordSpec, default_output_word

#: Metric names accepted by :class:`QoRSpec`.
METRICS = ("mre", "mae", "nmae", "hamming")


@dataclass(frozen=True)
class QoRSpec:
    """Which error metric drives exploration.

    Attributes:
        metric: One of ``mre`` (average relative error, Eq. 1 — the paper's
            headline metric), ``mae`` (average absolute error, Eq. 2),
            ``nmae`` (``mae`` normalized to each word's maximum magnitude,
            as plotted in Figure 5), ``hamming`` (mean flipped output bits
            per sample).
    """

    metric: str = "mre"

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise SimulationError(
                f"unknown QoR metric {self.metric!r}; expected one of {METRICS}"
            )


def circuit_words(circuit: Circuit) -> List[WordSpec]:
    """Output word specs of a circuit (fallback: one unsigned word)."""
    words = circuit.attrs.get("words")
    if words:
        return list(words)
    return default_output_word(circuit.n_outputs)


class QoREvaluator:
    """Compares approximate outputs against cached exact outputs.

    Built once per pattern set.  The configured metric scores *groups*
    of output rows: one group per output word for ``mre``/``mae``/
    ``nmae``, one group per output row for ``hamming``.  Every group
    yields canonical per-packed-word partials, and two metric paths
    share them and one combination order:

    * :meth:`evaluate` / :meth:`metrics` score a full output matrix;
    * the engines' scoring fold scores a candidate by the groups its
      dirty rows feed: :meth:`rebase` caches the per-group partials and
      sums of the committed outputs, a :meth:`chunk_scorer` turns a
      candidate's dirty rows in one chunk into partial slices, and
      :meth:`splice_partials` + :meth:`evaluate_spliced` combine the
      recomputed groups with the cached sums, yielding the exact float
      :meth:`evaluate` gives on the candidate's full output matrix.

    This is the only module that knows how output rows are scored; the
    engines see group numbers, the rows a group reads
    (:meth:`group_rows`) and partial slices.

    Raises:
        SimulationError: when an output word is wider than 63 bits (its
            integers would not fit int64) — including the single fallback
            word of a circuit with 64 or more outputs and no word
            metadata.
    """

    def __init__(
        self,
        circuit: Circuit,
        exact_output_words: np.ndarray,
        n_samples: int,
        spec: QoRSpec = QoRSpec(),
        sanitize: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.n = n_samples
        self._sanitize = sanitize_enabled(sanitize)
        self.words = circuit_words(circuit)
        for w in self.words:
            w.check_width()
        exact = np.atleast_2d(np.asarray(exact_output_words, dtype=np.uint64))
        self._exact_words = mask_tail_words(exact.copy(), n_samples)
        if self._sanitize:
            assert_tail_clean(self._exact_words, n_samples, "exact words")
            freeze(self._exact_words)
        self._exact_vals = {
            w.name: self._word_ints(exact, w) for w in self.words
        }
        # Relative-error denominators depend only on the exact outputs;
        # hoisted out of evaluate()/metrics(), which sit on the explorer's
        # per-candidate hot path.
        self._rel_denoms = {
            name: np.maximum(np.abs(vals), 1).astype(float)
            for name, vals in self._exact_vals.items()
        }
        n_rows = exact.shape[0]
        self._group_rows: List[Tuple[int, ...]] = (
            [(row,) for row in range(n_rows)]
            if spec.metric == "hamming"
            else [tuple(sorted(set(w.indices))) for w in self.words]
        )
        self._row_groups: List[List[int]] = [[] for _ in range(n_rows)]
        for g, rows in enumerate(self._group_rows):
            for row in rows:
                self._row_groups[row].append(g)
        # Per word: output row -> signed weight of its bit(s) in the
        # word's integer (the dirty-row patch of patched_word_ints).
        self._row_weights: List[Dict[int, int]] = []
        for w in self.words:
            weights: Dict[int, int] = {}
            for bit, row in enumerate(w.indices):
                weight = 1 << bit
                if w.signed and bit == w.width - 1:
                    weight = -weight
                weights[row] = weights.get(row, 0) + weight
            self._row_weights.append(weights)
        self._base_sums: Optional[List[float]] = None
        self._base_partials: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    # Shared per-group primitives (the single source of truth for both
    # metric paths — full evaluation and the scoring fold).
    # ------------------------------------------------------------------
    def _word_ints(
        self,
        output_words: np.ndarray,
        w: WordSpec,
        n_valid: Optional[int] = None,
    ) -> np.ndarray:
        """Integer interpretation of one word, decoding only its rows.

        Matches :meth:`repro.circuit.words.WordSpec.to_ints` exactly
        (:func:`~repro.circuit.simulate.decode_rows` shift-add, widened to
        int64; no float rounding anywhere).  ``n_valid`` restricts the
        decode to the first samples of ``output_words`` — chunk-sliced
        calls produce the exact same integers as slicing a full-width
        call.
        """
        n = self.n if n_valid is None else n_valid
        return decode_rows(output_words[list(w.indices)], n, w.signed).astype(
            np.int64, copy=False
        )

    def _partials_from_ints(
        self,
        w: WordSpec,
        approx: np.ndarray,
        metric: str,
        word_start: int = 0,
    ) -> np.ndarray:
        """Canonical per-packed-word error partials of one output word.

        ``approx`` holds the word's integers for the ``n_valid =
        len(approx)`` samples starting at packed word ``word_start``.
        Element ``i`` of the result is the error-term sum of the 64
        samples packed in word ``word_start + i``; samples past the valid
        count contribute exactly ``0.0``.  A partial depends only on its
        own 64 samples, so concatenating chunk-sliced calls reproduces the
        full-width vector byte for byte — this is what makes chunked QoR
        accumulation bit-identical to resident evaluation (DESIGN.md
        "Streaming execution").  Every value-metric path ends here,
        whether its integers came from a full decode or a dirty-row
        patch.

        Args:
            w: The output word spec.
            approx: Approximate word integers of the covered samples.
            metric: ``mre`` / ``mae`` / ``nmae`` (hamming partials come
                from :meth:`_row_partials`).
            word_start: First packed word the samples cover.
        """
        n_valid = approx.shape[0]
        if n_valid <= 0:
            return np.zeros(0, dtype=float)
        s0 = word_start * 64
        exact = self._exact_vals[w.name][s0 : s0 + n_valid]
        diff = np.abs(exact - approx).astype(float)
        if metric == "mre":
            terms = diff / self._rel_denoms[w.name][s0 : s0 + n_valid]
        elif metric == "mae":
            terms = diff
        else:
            terms = diff / max(w.max_abs, 1)
        n_words = words_for(n_valid)
        padded = np.zeros(n_words * 64, dtype=float)
        padded[:n_valid] = terms
        return padded.reshape(n_words, 64).sum(axis=1)

    def _word_partials(
        self,
        w: WordSpec,
        output_words: np.ndarray,
        metric: str,
        word_start: int = 0,
        n_valid: Optional[int] = None,
    ) -> np.ndarray:
        """Canonical partials of one word from a packed output matrix.

        ``output_words`` holds the full row set, and its word axis covers
        ``[word_start, word_start + width)``; ``n_valid`` counts the valid
        samples inside it (default: all samples from ``word_start`` on).
        """
        if n_valid is None:
            n_valid = max(self.n - word_start * 64, 0)
        approx = self._word_ints(output_words, w, max(n_valid, 0))
        return self._partials_from_ints(w, approx, metric, word_start)

    def _row_partials(
        self,
        output_words: np.ndarray,
        rows: Sequence[int],
        word_start: int = 0,
        n_valid: Optional[int] = None,
    ) -> np.ndarray:
        """Canonical hamming partials of the listed output rows.

        Row ``j`` of ``output_words`` holds output row ``rows[j]``, over
        the same word range as :meth:`_word_partials`.  Element ``[j, i]``
        is row ``rows[j]``'s mismatch popcount against the exact row over
        the valid samples of packed word ``word_start + i``, as a float.
        Counts are integers far below ``2**53``, so every sum of them is
        exact in any order.
        """
        if n_valid is None:
            n_valid = max(self.n - word_start * 64, 0)
        w_valid = words_for(n_valid)
        exact = self._exact_words[list(rows), word_start : word_start + w_valid]
        x = output_words[:, :w_valid] ^ exact
        if w_valid:
            x[:, -1] &= tail_mask(n_valid)
        return bit_count(x).astype(float)

    def _all_partials(
        self, metric: str, output_words: np.ndarray
    ) -> List[np.ndarray]:
        """Full-axis canonical partials of every group of ``metric``."""
        if metric == "hamming":
            rows = range(self._exact_words.shape[0])
            return list(self._row_partials(output_words, rows))
        return [self._word_partials(w, output_words, metric) for w in self.words]

    def _combine(self, metric: str, sums: Iterable[float]) -> float:
        """Canonical combination: group sums, left-associated in group
        order, over the term count (``n`` samples for hamming, ``n ×
        words`` for the value metrics)."""
        total = 0.0
        for s in sums:
            total += s
        if metric == "hamming":
            return total / self.n
        return total / (self.n * len(self.words))

    def group_partials(
        self,
        g: int,
        output_words: np.ndarray,
        word_start: int = 0,
        n_valid: Optional[int] = None,
    ) -> np.ndarray:
        """Per-packed-word partials of group ``g`` under the configured
        metric; ``output_words`` holds the full row set (see
        :meth:`_word_partials` for the word range semantics)."""
        if self.spec.metric == "hamming":
            return self._row_partials(
                output_words[[g]], [g], word_start, n_valid
            )[0]
        return self._word_partials(
            self.words[g], output_words, self.spec.metric, word_start, n_valid
        )

    def patched_word_ints(
        self,
        pos: int,
        base_ints: np.ndarray,
        rows: Sequence[int],
        new_words: np.ndarray,
        old_words: np.ndarray,
    ) -> np.ndarray:
        """Integers of word ``pos`` after some output rows changed.

        ``base_ints`` are the word's integers under ``old_words``; row
        ``j`` of ``new_words`` / ``old_words`` holds output row
        ``rows[j]`` (packed, covering at least ``len(base_ints)``
        samples).  Returns ``base_ints + Σ weight_r · (new_r − old_r)``
        over the listed rows that feed the word, where ``weight_r`` is
        ``2**i`` for word bit ``i`` and ``-2**(width-1)`` for a signed
        word's sign bit.  Integer arithmetic throughout, so the result
        equals a full decode of the patched rows exactly; rows listed but
        unchanged contribute zero.
        """
        weights = self._row_weights[pos]
        sel = [j for j, row in enumerate(rows) if row in weights]
        if not sel:
            return base_ints
        n = base_ints.shape[0]
        # new − old per sample: −1, 0 or +1, in int8.
        delta = unpack_bits(new_words[sel], n).view(np.int8) - unpack_bits(
            old_words[sel], n
        ).view(np.int8)
        approx = base_ints.copy()
        for j, row_delta in zip(sel, delta):
            approx += row_delta * np.int64(weights[rows[j]])
        return approx

    # ------------------------------------------------------------------
    def metrics(self, approx_output_words: np.ndarray) -> Dict[str, float]:
        """All supported metrics for one approximate output set.

        Each word is decoded once; its integers feed every value metric.
        """
        out = np.atleast_2d(np.asarray(approx_output_words, dtype=np.uint64))
        ints = [self._word_ints(out, w) for w in self.words]
        result: Dict[str, float] = {}
        for m in METRICS:
            parts = (
                self._all_partials(m, out)
                if m == "hamming"
                else [
                    self._partials_from_ints(w, v, m)
                    for w, v in zip(self.words, ints)
                ]
            )
            result[m] = self._combine(m, (float(p.sum()) for p in parts))
        return result

    def evaluate(self, approx_output_words: np.ndarray) -> float:
        """The configured metric only (cheaper than :meth:`metrics`)."""
        out = np.atleast_2d(np.asarray(approx_output_words, dtype=np.uint64))
        parts = self._all_partials(self.spec.metric, out)
        return self._combine(self.spec.metric, (float(p.sum()) for p in parts))

    # ------------------------------------------------------------------
    # Scoring-fold API (see DESIGN.md "Exploration engine")
    # ------------------------------------------------------------------
    def rebase(self, output_words: np.ndarray) -> None:
        """Cache the canonical error state of the *committed* outputs.

        Stores each group's per-packed-word partials vector and its
        reduced sum.  Call after every commit; the engines' scoring fold
        then splices a candidate's chunk partials over
        :meth:`base_partials` (every range a candidate leaves clean keeps
        the committed partial, which a fresh sweep would reproduce
        exactly) and reuses the cached sums for every group it leaves
        untouched.

        Determinism: the cached values are the same canonical
        per-packed-word partials every other path computes, so reusing
        them can never shift a float.
        """
        out = np.atleast_2d(np.asarray(output_words, dtype=np.uint64))
        self._base_partials = self._all_partials(self.spec.metric, out)
        if self._sanitize:
            for arr in self._base_partials:
                freeze(arr)
        self._base_sums = [float(p.sum()) for p in self._base_partials]

    def base_partials(self, g: int) -> np.ndarray:
        """Committed per-packed-word partials of group ``g`` (rebased).

        Raises:
            SimulationError: before the first :meth:`rebase`.
        """
        if self._base_partials is None:
            raise SimulationError("base_partials requires rebase() first")
        # Consumers splice via splice_partials, which copies before
        # writing; sanitize mode freezes the cached vectors.
        return self._base_partials[g]  # contract-ok: cache-copy -- spliced via copy, frozen under sanitize

    def groups_of(self, rows: Iterable[int]) -> Tuple[int, ...]:
        """The groups the given output rows feed, sorted."""
        return tuple(
            sorted({g for row in rows for g in self._row_groups[row]})
        )

    def group_rows(self, g: int) -> Tuple[int, ...]:
        """The output rows group ``g`` reads, sorted: its partials change
        only when one of these rows does."""
        return self._group_rows[g]

    def chunk_scorer(
        self, base_out: np.ndarray, word_start: int, n_valid: int
    ) -> Callable[[List[int], np.ndarray], List[Tuple[int, np.ndarray]]]:
        """Partial slices of one chunk's candidates.

        ``base_out`` holds the chunk's committed output rows, starting at
        packed word ``word_start`` with ``n_valid`` valid samples.  The
        returned ``score(rows, new_words)`` takes a candidate's dirty
        rows (sorted) and their packed values, and returns ``(group,
        partials)`` for every group the rows feed — the canonical
        partials of that group over the chunk, as :meth:`group_partials`
        computes them on the candidate's full chunk outputs.  Value
        metrics patch the dirty rows into the chunk's committed word
        integers (:meth:`patched_word_ints`), each word decoded once per
        chunk and shared by all its candidates; hamming counts the dirty
        rows' mismatches directly.  Only pattern-independent state and
        ``base_out`` are read, so shard workers run the same code.
        """
        if self.spec.metric == "hamming":

            def score_rows(rows, new_words):
                parts = self._row_partials(new_words, rows, word_start, n_valid)
                return list(zip(rows, parts))

            return score_rows
        metric = self.spec.metric
        base_ints: Dict[int, np.ndarray] = {}

        def score_words(rows, new_words):
            old_words = base_out[rows]
            slices = []
            for g in self.groups_of(rows):
                ints = base_ints.get(g)
                if ints is None:
                    ints = self._word_ints(base_out, self.words[g], n_valid)
                    base_ints[g] = ints
                approx = self.patched_word_ints(
                    g, ints, rows, new_words, old_words
                )
                slices.append(
                    (
                        g,
                        self._partials_from_ints(
                            self.words[g], approx, metric, word_start
                        ),
                    )
                )
            return slices

        return score_words

    def splice_partials(
        self, g: int, slices: Iterable[Tuple[int, int, np.ndarray]]
    ) -> float:
        """Total error sum of group ``g`` with chunk slices spliced in.

        ``slices`` are ``(word start, word stop, partials)`` pieces over
        disjoint word-aligned ranges of the pattern axis — the chunks a
        candidate actually dirtied; every other range keeps the rebased
        committed partial, which a fresh evaluation would reproduce
        exactly.  The splice rebuilds the identical partials vector a
        resident evaluation computes (a partial depends only on its own
        64 samples) and reduces it with the same single ``ndarray.sum()``
        — so the returned float is bit-identical whatever the chunking or
        sharding that produced the slices (DESIGN.md "Parallel
        streaming").

        Raises:
            SimulationError: before the first :meth:`rebase`.
        """
        vec = self.base_partials(g).copy()
        for start, stop, part in slices:
            vec[start:stop] = part
        return float(vec.sum())

    def evaluate_spliced(self, group_sums: Dict[int, float]) -> float:
        """Configured metric from the rebased sums with per-group
        overrides.

        ``group_sums`` maps groups to replacement totals (each a
        canonical partials-vector reduction).  This is the terminal step
        of the engines' scoring fold; given identical override floats it
        is bit-identical to :meth:`evaluate` on the full matrix by
        construction.

        Raises:
            SimulationError: before the first :meth:`rebase`.
        """
        if self._base_sums is None:
            raise SimulationError("evaluate_spliced requires rebase() first")
        sums = list(self._base_sums)
        for g, s in group_sums.items():
            sums[g] = s
        return self._combine(self.spec.metric, sums)
