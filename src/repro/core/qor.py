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
value is derived from **canonical per-packed-word partial sums** — each
64-sample block (one ``uint64`` word of the packed output matrix)
contributes one float partial, the full partials vector is reduced with a
single ``ndarray.sum()``, and the per-output-word totals are combined
left-associatively in word order, divided by the total term count.  A
partial depends only on its own 64 samples, so any word-aligned chunking
of the pattern axis reproduces the identical partials vector and
therefore the identical float.  The two metric paths — full evaluation
(:meth:`QoREvaluator.evaluate` / :meth:`QoREvaluator.metrics`) and the
engines' scoring fold (:meth:`QoREvaluator.ints_partials` +
:meth:`QoREvaluator.splice_partials` +
:meth:`QoREvaluator.evaluate_spliced`) — route through the same
per-word-partials helper and the same combination loop, so they cannot
drift.  Hamming errors are integer mismatch popcounts
(order-independent, exact under any chunking).

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

    Built once per pattern set.  Two metric paths share one partials
    helper and one combination order:

    * :meth:`evaluate` / :meth:`metrics` score a full output matrix;
    * the engines' scoring fold scores a candidate by the words its
      dirty rows touch: :meth:`rebase` caches the per-word partials and
      sums of the committed outputs, the fold patches the committed
      integers with the dirty rows (:meth:`patched_word_ints`), and
      :meth:`splice_partials` + :meth:`evaluate_spliced` combine the
      recomputed words with the cached sums, yielding the exact float
      :meth:`evaluate` gives on the candidate's full output matrix.

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
        self._row_words: List[Tuple[int, ...]] = [
            tuple(
                pos
                for pos, w in enumerate(self.words)
                if row in w.indices
            )
            for row in range(exact.shape[0])
        ]
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
        self._base_row_hamming: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Shared per-word primitives (the single source of truth for both
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
        "Streaming execution").  Every metric path ends here, whether its
        integers came from a full decode or a dirty-row patch.

        Args:
            w: The output word spec.
            approx: Approximate word integers of the covered samples.
            metric: ``mre`` / ``mae`` / ``nmae`` (hamming partials are the
                integer popcounts of :meth:`row_hamming`).
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

    def word_partials(
        self,
        pos: int,
        output_words: np.ndarray,
        word_start: int = 0,
        n_valid: Optional[int] = None,
    ) -> np.ndarray:
        """Per-packed-word partials of word ``pos`` under the configured
        metric (see :meth:`_word_partials` for the exact semantics)."""
        return self._word_partials(
            self.words[pos], output_words, self.spec.metric, word_start, n_valid
        )

    def word_ints(
        self, pos: int, output_words: np.ndarray, n_valid: Optional[int] = None
    ) -> np.ndarray:
        """Integers of word ``pos`` over the first ``n_valid`` samples of
        a packed output matrix (full row set)."""
        return self._word_ints(output_words, self.words[pos], n_valid)

    def ints_partials(
        self, pos: int, approx: np.ndarray, word_start: int = 0
    ) -> np.ndarray:
        """Canonical partials of word ``pos`` from its integers under the
        configured metric (see :meth:`_partials_from_ints`)."""
        return self._partials_from_ints(
            self.words[pos], approx, self.spec.metric, word_start
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

    def _word_sum(
        self, w: WordSpec, output_words: np.ndarray, metric: str
    ) -> float:
        """Error-term sum of one word: the canonical partials, reduced."""
        return float(self._word_partials(w, output_words, metric).sum())

    def row_hamming(
        self,
        output_words: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        word_start: int = 0,
        n_valid: Optional[int] = None,
    ) -> np.ndarray:
        """Per-output-row mismatch popcounts over the valid bits.

        ``rows`` names the output rows ``output_words`` holds, in order
        (``None``: every row).  ``word_start``/``n_valid`` select a
        word-aligned chunk of the pattern axis; counts are exact
        integers, so per-chunk counts sum to the full-width count under
        any chunking.
        """
        if n_valid is None:
            n_valid = max(self.n - word_start * 64, 0)
        w_valid = words_for(n_valid)
        exact = (
            self._exact_words if rows is None else self._exact_words[list(rows)]
        )
        exact = exact[:, word_start : word_start + w_valid]
        x = output_words[:, :w_valid] ^ exact
        if w_valid:
            x[:, -1] &= tail_mask(n_valid)
        return bit_count(x).sum(axis=1)

    def _combine(
        self,
        metric: str,
        output_words: Optional[np.ndarray],
        sums: Optional[Iterable[float]] = None,
        row_hamming: Optional[np.ndarray] = None,
    ) -> float:
        """Canonical combination: left-associated word sums / term count."""
        if metric == "hamming":
            counts = (
                row_hamming
                if row_hamming is not None
                else self.row_hamming(output_words)
            )
            return float(int(counts.sum())) / self.n
        if sums is None:
            sums = (
                self._word_sum(w, output_words, metric) for w in self.words
            )
        total = 0.0
        for s in sums:
            total += s
        return total / (self.n * len(self.words))

    # ------------------------------------------------------------------
    def metrics(self, approx_output_words: np.ndarray) -> Dict[str, float]:
        """All supported metrics for one approximate output set.

        Each word is decoded once; its integers feed every value metric.
        """
        out = np.atleast_2d(np.asarray(approx_output_words, dtype=np.uint64))
        ints = [self._word_ints(out, w) for w in self.words]
        result: Dict[str, float] = {}
        for m in METRICS:
            if m == "hamming":
                result[m] = self._combine(m, out)
                continue
            sums = (
                float(self._partials_from_ints(w, v, m).sum())
                for w, v in zip(self.words, ints)
            )
            result[m] = self._combine(m, None, sums=sums)
        return result

    def evaluate(self, approx_output_words: np.ndarray) -> float:
        """The configured metric only (cheaper than :meth:`metrics`)."""
        out = np.atleast_2d(np.asarray(approx_output_words, dtype=np.uint64))
        return self._combine(self.spec.metric, out)

    # ------------------------------------------------------------------
    # Scoring-fold API (see DESIGN.md "Exploration engine")
    # ------------------------------------------------------------------
    def rebase(self, output_words: np.ndarray) -> None:
        """Cache the canonical error state of the *committed* outputs.

        Stores each output word's per-packed-word partials vector and
        its reduced sum (per-row mismatch popcounts for hamming).  Call
        after every commit; the engines' scoring fold then splices a
        candidate's chunk partials over :meth:`base_partials` (every
        range a candidate leaves clean keeps the committed partial, which
        a fresh sweep would reproduce exactly) and reuses the cached sums
        for every word it leaves untouched.

        Determinism: the cached values are the same canonical
        per-packed-word partials every other path computes, so reusing
        them can never shift a float.
        """
        out = np.atleast_2d(np.asarray(output_words, dtype=np.uint64))
        if self.spec.metric == "hamming":
            self._base_row_hamming = self.row_hamming(out)
            if self._sanitize:
                freeze(self._base_row_hamming)
        else:
            self._base_partials = [
                self._word_partials(w, out, self.spec.metric)
                for w in self.words
            ]
            if self._sanitize:
                for arr in self._base_partials:
                    freeze(arr)
            self._base_sums = [float(p.sum()) for p in self._base_partials]

    def base_partials(self, pos: int) -> np.ndarray:
        """Committed per-packed-word partials of word ``pos`` (rebased).

        Raises:
            SimulationError: before the first :meth:`rebase`.
        """
        if self._base_partials is None:
            raise SimulationError("base_partials requires rebase() first")
        # Consumers splice via splice_partials, which copies before
        # writing; sanitize mode freezes the cached vectors.
        return self._base_partials[pos]  # contract-ok: cache-copy -- spliced via copy, frozen under sanitize

    def base_row_hamming(self) -> np.ndarray:
        """Committed per-row mismatch counts (hamming metric, rebased)."""
        if self._base_row_hamming is None:
            raise SimulationError("base_row_hamming requires rebase() first")
        return self._base_row_hamming

    def word_positions(self, rows: Iterable[int]) -> Tuple[int, ...]:
        """Output-word positions (indices into ``self.words``) that the
        given output rows feed, sorted."""
        return tuple(
            sorted({pos for row in rows for pos in self._row_words[row]})
        )

    def splice_partials(
        self, pos: int, slices: Iterable[Tuple[int, int, np.ndarray]]
    ) -> float:
        """Total error sum of word ``pos`` with chunk slices spliced in.

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
        vec = self.base_partials(pos).copy()
        for start, stop, part in slices:
            vec[start:stop] = part
        return float(vec.sum())

    def evaluate_spliced(self, word_sums: Dict[int, float]) -> float:
        """Configured metric from the rebased sums with per-word overrides.

        ``word_sums`` maps word positions to replacement totals (each a
        canonical partials-vector reduction).  This is the terminal step
        of the engines' scoring fold; given identical override floats it
        is bit-identical to :meth:`evaluate` on the full matrix by
        construction.

        Raises:
            SimulationError: before the first :meth:`rebase`, or for the
                hamming metric (use :meth:`evaluate_spliced_hamming`).
        """
        if self.spec.metric == "hamming":
            raise SimulationError(
                "evaluate_spliced is undefined for hamming; use "
                "evaluate_spliced_hamming"
            )
        if self._base_sums is None:
            raise SimulationError("evaluate_spliced requires rebase() first")
        sums = list(self._base_sums)
        for pos, s in word_sums.items():
            sums[pos] = s
        return self._combine(self.spec.metric, None, sums=sums)

    def evaluate_spliced_hamming(self, row_counts: Dict[int, int]) -> float:
        """Hamming metric from the rebased per-row counts with overrides.

        ``row_counts`` maps output rows to absolute mismatch popcounts;
        unlisted rows keep their committed counts.  Integer arithmetic —
        exact under any chunking.
        """
        counts = self.base_row_hamming()
        if row_counts:
            counts = counts.copy()
            for row, cnt in row_counts.items():
                counts[row] = cnt
        return self._combine("hamming", None, row_hamming=counts)
