"""Incremental whole-circuit re-evaluation for candidate substitutions.

Algorithm 1's inner loop evaluates ``QoR(Cir(s_i -> T_{s_i, f_i - 1}))`` for
*every* window at *every* iteration — the paper notes this Monte-Carlo
simulation dominates runtime.  :class:`IncrementalEvaluator` makes each
candidate evaluation proportional to the candidate's downstream cone instead
of the whole circuit:

* the full circuit is simulated once against the sample set and all node
  values are cached (packed, 64 patterns/word);
* committed window substitutions are folded into the cache;
* a candidate preview re-evaluates only what changes downstream of the
  candidate window, reading everything else from the cache, and leaves the
  cache untouched;
* :meth:`preview_batch` evaluates *all* candidate tables of one window in a
  single pass — the window's packed input index vector is built once and
  shared across the candidates;
* :meth:`scan_errors` scores those previews — the one call the explorer
  makes, which every engine implements with identical results.

Evaluation sweeps follow the *quotient* topological order (see
:mod:`repro.partition.plan`): once a window is substituted, its outputs
depend on all window inputs, including inputs with larger node ids than the
outputs — raw id order would read stale values there.

Tail-bit invariant (see DESIGN.md): packed words hold ``n_samples`` valid
bits; the remainder of the final word is unspecified for plain gates but
masked to zero for LUT/window-table outputs (an all-zero fanin tail would
otherwise read ``table[0]``, which may be 1).  Dirty tracking compares only
the valid bits, so tail garbage can never spuriously mark a node dirty.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitize import freeze, frozen_view, sanitize_enabled
from ..errors import SimulationError
from ..circuit.netlist import Circuit
from ..circuit.simulate import (
    WORD_BITS,
    _eval_node,
    decode_rows,
    lookup_packed,
    mask_tail_words,
    simulate_full,
    table_transpose,
    tail_mask,
)
from ..partition.plan import quotient_graph
from ..partition.windows import Window
from ..runtime import RuntimeStats
from .qor import QoREvaluator


class IncrementalEvaluator:
    """Cached bit-parallel evaluation with window-substitution previews.

    This is the interpreted *reference* engine: sweeps walk the entire
    quotient plan with per-node dispatch.  The compiled engine
    (:class:`repro.core.engine.CompiledEvaluator`) subclasses it and is
    byte-identical; this class stays the semantics oracle.
    """

    def __init__(
        self,
        circuit: Circuit,
        windows: Sequence[Window],
        input_words: np.ndarray,
        n_samples: int,
        stats: Optional[RuntimeStats] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.circuit = circuit
        self.windows = list(windows)
        self.n = n_samples
        #: Runtime sanitizer (DESIGN.md "Static contracts"): explicit
        #: flag wins, else the REPRO_SANITIZE environment variable.
        self._sanitize = sanitize_enabled(sanitize)
        self._tail = tail_mask(n_samples)
        self._committed: Dict[int, np.ndarray] = {}
        self._graph = quotient_graph(circuit, windows)
        self._plan = list(self._graph.steps)
        self._window_by_index = {w.index: w for w in self.windows}
        self._stats = stats if stats is not None else RuntimeStats()
        self._init_values(input_words)

    def _init_values(self, input_words: np.ndarray) -> None:
        """Build the resident value state (hook).

        The default materializes the full ``(n_nodes, W)`` value matrix —
        the resident engines' cache.  The streaming engine
        (:class:`repro.core.streaming.StreamingEvaluator`) overrides this
        to keep only the packed inputs and output rows resident, bounding
        sample-matrix memory by its chunk budget.
        """
        self._values = simulate_full(self.circuit, input_words, self.n)
        self._n_words = self._values.shape[1]
        self._exact_outputs = self._values[self.circuit.output_nodes()].copy()
        if self._sanitize:
            freeze(self._exact_outputs)
        self._stats.add("peak_sample_matrix_bytes", self._values.nbytes)

    def close(self) -> None:
        """Release execution resources (hook).

        The resident engines hold nothing that needs explicit teardown;
        the streaming engine overrides this to shut down its shard
        worker pool.  :func:`repro.core.explorer.explore` calls it
        unconditionally when exploration finishes.
        """

    # ------------------------------------------------------------------
    @property
    def exact_outputs(self) -> np.ndarray:
        """Packed outputs of the original (fully exact) circuit.

        Handed out as a read-only view: the array backs every QoR
        comparison for the lifetime of the evaluator, so a caller
        mutating it would silently corrupt all later error floats —
        consumers that need a writable copy take ``.copy()``.
        """
        return frozen_view(self._exact_outputs)

    def current_outputs(self) -> np.ndarray:
        """Packed outputs under the committed substitutions."""
        return self._values[self.circuit.output_nodes()].copy()

    def committed_table(self, index: int) -> Optional[np.ndarray]:
        return self._committed.get(index)

    @property
    def committed(self) -> Dict[int, np.ndarray]:
        """Copy of the committed substitution map (index -> table)."""
        return dict(self._committed)

    # ------------------------------------------------------------------
    def _valid_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Equality over the ``n_samples`` valid bits only."""
        if not np.array_equal(a[:-1], b[:-1]):
            return False
        return bool((a[-1] ^ b[-1]) & self._tail == 0)

    def _check_table(self, w: Window, table: np.ndarray) -> np.ndarray:
        table = np.asarray(table, dtype=bool)
        if table.shape != (1 << w.n_inputs, w.n_outputs):
            raise SimulationError(
                f"window {w.index}: table shape {table.shape} does not match "
                f"({w.n_inputs} inputs, {w.n_outputs} outputs)"
            )
        return table

    def _input_index(
        self, w: Window, overlay: Dict[int, np.ndarray]
    ) -> np.ndarray:
        """Per-pattern table row index from the window's packed inputs."""
        rows = np.array(
            [overlay.get(nid, self._values[nid]) for nid in w.inputs],
            dtype=np.uint64,
        ).reshape(len(w.inputs), self._n_words)
        return decode_rows(rows, self._n_words * WORD_BITS)

    def _gather_outputs(
        self, w: Window, table: np.ndarray, idx: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """{output node id: packed, tail-masked values} via ``table[idx]``."""
        packed = mask_tail_words(
            lookup_packed(table_transpose(table), idx), self.n
        )
        return {nid: packed[pos] for pos, nid in enumerate(w.outputs)}

    def _lut_outputs(
        self, w: Window, table: np.ndarray, overlay: Dict[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Evaluate a window's table; returns {output node id: packed}."""
        table = self._check_table(w, table)
        return self._gather_outputs(w, table, self._input_index(w, overlay))

    def _sweep(
        self,
        replacements: Dict[int, np.ndarray],
        seeds: Optional[Dict[int, Dict[int, np.ndarray]]] = None,
    ) -> Dict[int, np.ndarray]:
        """Re-evaluate the circuit under ``replacements`` (window index ->
        table), returning only the node values that differ from the cache.

        ``replacements`` must already include the committed map (possibly
        with overrides); the sweep runs in quotient topological order and
        prunes units whose inputs are all clean.  ``seeds`` supplies
        precomputed output values for whole windows (the batched preview
        path); a seeded window is recorded without re-evaluation.
        """
        overlay: Dict[int, np.ndarray] = {}
        dirty = np.zeros(self.circuit.n_nodes, dtype=bool)
        # The reference sweep walks the full quotient plan per candidate;
        # the compiled engine walks it once per pass of stacked
        # candidates — the ratio is asserted by the engine tests.
        self._stats.add("n_sweep_units", len(self._plan))

        def record(nid: int, new: np.ndarray) -> None:
            if not self._valid_equal(new, self._values[nid]):
                overlay[nid] = new
                dirty[nid] = True

        for kind, key in self._plan:
            if kind == "node":
                node = self.circuit.node(key)
                if not node.op.is_gate:
                    continue
                if not any(dirty[f] for f in node.fanins):
                    continue
                ins = [overlay.get(f, self._values[f]) for f in node.fanins]
                record(
                    key,
                    _eval_node(node.op, ins, node.table, self._n_words, self.n),
                )
                continue
            if seeds is not None and key in seeds:
                for nid, vals in seeds[key].items():
                    record(nid, vals)
                continue
            w = self._window_by_index[key]
            table = replacements.get(key)
            if table is not None:
                was = self._committed.get(key)
                inputs_dirty = any(dirty[i] for i in w.inputs)
                table_changed = was is None or table is not was
                if not inputs_dirty and not table_changed:
                    continue
                for nid, vals in self._lut_outputs(w, table, overlay).items():
                    record(nid, vals)
            else:
                for nid in w.members:
                    node = self.circuit.node(nid)
                    if not any(dirty[f] for f in node.fanins):
                        continue
                    ins = [overlay.get(f, self._values[f]) for f in node.fanins]
                    record(
                        nid,
                        _eval_node(
                            node.op, ins, node.table, self._n_words, self.n
                        ),
                    )
        return overlay

    # ------------------------------------------------------------------
    def preview_batch(
        self, index: int, tables: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Outputs for each candidate ``table`` of window ``index``.

        All candidates share one unpack of the window's input values (the
        per-variant cost of the naive loop); each then sweeps only its own
        downstream cone.  The cache is not modified, and element ``i`` is
        byte-identical to ``preview(index, tables[i])``.
        """
        w = self._window_by_index[index]
        # Nothing upstream of the window changes in a preview, so the
        # committed cache is the correct input state for every candidate —
        # and the committed map itself is invariant across the batch, so
        # one copy serves every candidate's sweep (sweeps only read it).
        idx = self._input_index(w, {})
        replacements = dict(self._committed)
        out_nodes = self.circuit.output_nodes()
        results: List[np.ndarray] = []
        for table in tables:
            table = self._check_table(w, table)
            seed = self._gather_outputs(w, table, idx)
            self._stats.add("n_preview_sweeps")
            overlay = self._sweep(replacements, seeds={index: seed})
            out = np.empty((len(out_nodes), self._n_words), dtype=np.uint64)
            for row, nid in enumerate(out_nodes):
                out[row] = overlay.get(nid, self._values[nid])
            results.append(out)
        return results

    def preview(self, index: int, table: np.ndarray) -> np.ndarray:
        """Outputs if window ``index`` used ``table`` (committed state
        otherwise); the cache is not modified."""
        return self.preview_batch(index, [table])[0]

    def scan_errors(
        self,
        requests: Sequence[Tuple[int, Sequence[np.ndarray]]],
        qor: QoREvaluator,
    ) -> List[List[Tuple[float, Tuple[int, ...]]]]:
        """Per request, per candidate: ``(error, dirtied output rows)``.

        The explorer's one scoring call, here in its oracle form: every
        candidate is a full :meth:`preview_batch` output scored by a full
        :meth:`QoREvaluator.evaluate <repro.core.qor.QoREvaluator.evaluate>`.
        A row is reported, in sorted order, iff its valid bits differ
        from :meth:`current_outputs`.  The compiled and streaming engines
        return the same pairs bit for bit.
        """
        current = self.current_outputs()
        results = []
        for index, tables in requests:
            per_window = []
            for out in self.preview_batch(index, tables):
                rows = tuple(
                    row
                    for row in range(current.shape[0])
                    if not self._valid_equal(out[row], current[row])
                )
                per_window.append((qor.evaluate(out), rows))
            results.append(per_window)
        return results

    def commit(self, index: int, table: np.ndarray) -> None:
        """Permanently substitute window ``index`` with ``table``."""
        table = np.asarray(table, dtype=bool)
        replacements = dict(self._committed)
        replacements[index] = table
        overlay = self._sweep(replacements)
        self._committed[index] = table
        for nid, vals in overlay.items():
            self._values[nid] = vals
