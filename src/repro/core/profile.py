"""Factorization profiling (Algorithm 1, lines 3–10).

For every window and every factorization degree ``f`` in ``1 .. m_i - 1``,
factor the window's truth table and record the approximate table
``T_{s_i, f}`` together with an *area estimate* of the factored
implementation.  The paper's design-metric model during exploration is
exactly the sum of these per-window areas (§4.2); the final chosen netlist
is re-synthesized in full.

Two factorization families are profiled:

* **bmf** — general ASSO-style factorization; the compressor ``B`` is
  re-synthesized from its truth table (SOP/ANF/shared-BDD, whichever maps
  smallest).
* **cone** — column-subset factorization (``B`` = selected original output
  columns); the compressor reuses the window's own gates, so its area is
  bounded by the exact window and decreases monotonically with ``f``.

The default ``hybrid`` selection keeps, per degree, the cone variant unless
the general factorization is substantially more accurate — matching the
paper's observed behaviour of smooth area reduction with occasional bumps.
The choice reads factorization errors only, so only the chosen variant is
area-costed.

Profiling is dispatched through :mod:`repro.runtime`: each window becomes
one self-contained :class:`WindowTask` (truth table + weights + standalone
subcircuit + parameters) executed by the module-level worker
:func:`profile_window_task`, so the work parallelizes across processes,
same-run duplicate windows (e.g. ripple-adder slices) are computed once,
and results persist in an optional content-addressed on-disk cache.

The worker runs on the **degree ladder**: both greedy kernels are
prefix-stable in ``f``, so one descent per (tau, weight rail) produces the
results for every degree (``factorize_ladder`` / ``column_select_ladder``)
instead of one descent per degree — an ``O(m)`` reduction in factorization
work with byte-identical output.  :func:`profile_window_task_reference`
keeps the literal per-degree path; the test suite runs both and asserts
equality, which is the contract that keeps existing
:class:`~repro.runtime.ProfileCache` entries valid (DESIGN.md "BMF
kernel").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.builder import CircuitBuilder
from ..circuit.netlist import Circuit
from ..circuit.words import WordSpec
from ..runtime import ProfileCache, RuntimeStats, array_token, run_tasks
from ..runtime.cache import canonical_circuit_bytes
from ..runtime.stats import current
from ..synth.espresso import EspressoOptions
from ..synth.library import LIB65, Library
from ..synth.synthesis import (
    OracleMemo,
    resynthesize,
    synthesize_outputs_shared,
)
from ..synth.techmap import tech_map
from .bmf import bool_product, factorize, factorize_ladder
from .bmf.asso import DEFAULT_TAUS
from .bmf.colsel import column_select_bmf, column_select_ladder
from ..partition.substitute import (
    ConeReplacement,
    FactoredReplacement,
    Replacement,
    substitute_windows,
)
from ..partition.windows import Window

#: Window-output weighting schemes for the WQoR factorization (§3.2).
WEIGHT_MODES = ("uniform", "significance")

#: Variant-selection policies.
SELECTIONS = ("bmf", "cone", "hybrid")

#: In hybrid mode, prefer the general BMF variant only when its error is
#: below this fraction of the cone variant's error.
HYBRID_ERROR_FACTOR = 0.8


@dataclass(frozen=True)
class CandidateVariant:
    """One profiled approximation of a window at degree ``f``.

    Attributes:
        f: Factorization degree.
        table: The approximate truth table ``B ∘ C`` (what gets simulated).
        B / C: The factor pair.
        area: Synthesized area estimate of compressor + decompressor (µm²).
        bmf_error: Weighted Hamming error of the factorization.
        replacement: How to realize this variant in the netlist.
        kind: ``"bmf"`` or ``"cone"``.
    """

    f: int
    table: np.ndarray
    B: np.ndarray
    C: np.ndarray
    area: float
    bmf_error: float
    replacement: Replacement
    kind: str


@dataclass
class WindowProfile:
    """Profiling output for one window.

    ``variants`` maps an approximation *level* to the candidate list for
    that level; level ``max_degree`` means exact, and exploration
    decrements levels one at a time, choosing among the level's candidates
    by measured whole-circuit error.  For BLASYS the level is the
    factorization degree ``f`` (with up to two candidates per degree: the
    weighted-QoR and the uniform factorization) and ``max_degree`` is the
    window's output count; other flows (e.g. the SALSA baseline) define
    their own ladder via ``levels``.
    """

    window: Window
    table: np.ndarray
    exact_area: float
    weights: Optional[np.ndarray]
    variants: Dict[int, List[CandidateVariant]] = field(default_factory=dict)
    levels: Optional[int] = None

    @property
    def max_degree(self) -> int:
        """The exact level; exploration starts here."""
        return self.levels if self.levels is not None else self.window.n_outputs


@dataclass(frozen=True)
class ProfileParams:
    """Everything besides the window itself that profiling depends on.

    One frozen record shared by all of a run's :class:`WindowTask`\\ s; its
    :meth:`cache_token` is part of every cache key (see DESIGN.md).  The
    WQoR weighting mode is *not* here — the weight vector itself travels
    with each task.
    """

    method: str = "asso"
    algebra: str = "semiring"
    taus: Tuple[float, ...] = tuple(DEFAULT_TAUS)
    selection: str = "hybrid"
    library: Library = LIB65
    espresso: EspressoOptions = EspressoOptions()
    estimate_area: bool = True
    match_macros: bool = False

    def cache_token(self) -> bytes:
        e = self.espresso
        # The library token covers cell contents (name + area per cell),
        # not just the library name — a same-named library with different
        # areas must not serve stale cached costs.
        cells = ",".join(
            f"{c.name}:{c.area!r}"
            for c in sorted(self.library.cells, key=lambda c: c.name)
        )
        return "|".join(
            [
                self.method,
                self.algebra,
                ",".join(repr(t) for t in self.taus),
                self.selection,
                f"{self.library.name}[{cells}]",
                repr((e.quality, e.literal_order_msb_first, e.seed)),
                repr((self.estimate_area, self.match_macros)),
            ]
        ).encode()


@dataclass(frozen=True)
class WindowTask:
    """A self-contained profiling work item for one window.

    Attributes:
        table: The window's exact truth table.
        weights: WQoR weight vector, or None for uniform.
        sub: The window as a standalone circuit (needed for cone and exact
            areas); None when ``estimate_area`` is off.
        params: Shared profiling parameters.
    """

    table: np.ndarray
    weights: Optional[np.ndarray]
    sub: Optional[Circuit]
    params: ProfileParams

    def cache_key(self) -> str:
        sub_token = (
            canonical_circuit_bytes(self.sub) if self.sub is not None else b"~"
        )
        return ProfileCache.key_of(
            array_token(self.table),
            array_token(self.weights),
            self.params.cache_token(),
            sub_token,
        )


@dataclass
class WindowTaskResult:
    """Worker output: window identity comes from task order, not payload.

    The profile cache stores it as is.  The work counters copy the task's
    recorded :class:`repro.runtime.RuntimeStats`, which reaches the run's
    stats through the task driver for computed tasks only (cache hits add
    zero, which is how tests assert warm runs do no BMF work); spans stay
    out of the payload.  ``n_factorizations`` counts factorization *calls*
    (each a full tau sweep) — one per ladder, or one per degree on the
    legacy reference path — and ``n_ladder_levels`` the degree results
    they produced: their ratio is the ladder's amortization.
    """

    exact_area: float
    variants: Dict[int, List[CandidateVariant]]
    n_factorizations: int = 0
    n_syntheses: int = 0
    n_ladder_levels: int = 0


class _VariantCosting:
    """Memoized synthesis of factored window implementations.

    One instance serves one :class:`WindowTask`, and so do its memos:
    whole factored and cone variant areas, and the area oracle's
    :class:`~repro.synth.synthesis.OracleMemo`, whose column plans and BDD
    nodes ladder degrees and weight rails mostly share (DESIGN.md "The
    per-task oracle memo and its bounds").  ``stats`` records the task's
    work: the areas actually computed (``n_syntheses``), timed by kind.
    """

    def __init__(
        self, library: Library, options: EspressoOptions, match_macros: bool
    ) -> None:
        self.library = library
        self.options = options
        self.match_macros = match_macros
        self.stats = RuntimeStats()
        self._cache: Dict[tuple, float] = {}
        self._oracle = OracleMemo()

    def factored_area(self, B: np.ndarray, C: np.ndarray, algebra: str) -> float:
        key = ("bmf", B.tobytes(), C.tobytes(), algebra)
        hit = self._cache.get(key)
        if hit is not None:
            return hit  # contract-ok: cache-copy -- cached float, immutable
        self.stats.add("n_syntheses")
        with self.stats.span("factored_area"):
            builder = CircuitBuilder("variant")
            k = int(np.log2(B.shape[0]))
            ins = [builder.input(f"x{i}") for i in range(k)]
            combine = builder.or_ if algebra == "semiring" else builder.xor_
            t_sigs = synthesize_outputs_shared(
                builder, B, ins, self.options, memo=self._oracle
            )
            for j in range(C.shape[1]):
                parts = [t_sigs[l] for l in range(C.shape[0]) if C[l, j]]
                if not parts:
                    out = builder.const(False)
                elif len(parts) == 1:
                    out = parts[0]
                else:
                    out = combine(*parts)
                builder.output(f"y{j}", out)
            area = tech_map(
                builder.build(), self.library, match_macros=self.match_macros
            ).area
        self._cache[key] = area
        return area

    def cone_area(self, sub: Circuit, replacement: ConeReplacement) -> float:
        """Area of a cone variant: kept cone + decompressor gates.

        ``sub`` is the window materialized as a standalone circuit; the
        replacement is spliced into it and the result re-mapped.
        """
        key = (
            "cone", tuple(replacement.selected), replacement.C.tobytes(),
            replacement.algebra,
        )
        hit = self._cache.get(key)
        if hit is not None:
            return hit  # contract-ok: cache-copy -- cached float, immutable
        self.stats.add("n_syntheses")
        with self.stats.span("cone_area"):
            sub_window = Window(
                0,
                tuple(range(len(sub.inputs), sub.n_nodes)),
                tuple(sub.inputs),
                tuple(sub.output_nodes()),
            )
            approx = substitute_windows(
                sub, [sub_window], {0: replacement},
                espresso_options=self.options,
            )
            area = tech_map(
                resynthesize(approx, options=self.options),
                self.library,
                match_macros=self.match_macros,
            ).area
        self._cache[key] = area
        return area

    def window_area(self, sub: Circuit) -> float:
        self.stats.add("n_syntheses")
        with self.stats.span("window_area"):
            return tech_map(
                resynthesize(sub, options=self.options),
                self.library,
                match_macros=self.match_macros,
            ).area


def _bmf_candidate(
    costing: _VariantCosting, p: ProfileParams, result
) -> CandidateVariant:
    """Wrap one general-BMF factorization as a profiled candidate."""
    area = (
        costing.factored_area(result.B, result.C, p.algebra)
        if p.estimate_area
        else 0.0
    )
    return CandidateVariant(
        result.f, result.product, result.B, result.C, area, result.error,
        FactoredReplacement(result.B, result.C, p.algebra), "bmf",
    )


def _cone_candidate(
    costing: _VariantCosting, p: ProfileParams, task: WindowTask, f: int, cs
) -> CandidateVariant:
    """Wrap one column-subset factorization as a profiled candidate."""
    replacement = ConeReplacement(cs.selected, cs.C, p.algebra)
    area = (
        costing.cone_area(task.sub, replacement) if p.estimate_area else 0.0
    )
    return CandidateVariant(
        f, bool_product(cs.B, cs.C, p.algebra), cs.B, cs.C, area,
        cs.error, replacement, "cone",
    )


def _pick_variant(
    costing: _VariantCosting,
    p: ProfileParams,
    task: WindowTask,
    f: int,
    bmf_result,
    cone_result,
) -> CandidateVariant:
    """The hybrid rule, then the winner's candidate: only it is costed.

    Cone unless general BMF is substantially more accurate.  The rule
    reads factorization errors alone, so the losing factorization is never
    synthesized; areas are pure functions of their keys, so skipping it
    cannot change the winner's area.  Either result may be None when
    ``selection`` profiles one family only.
    """
    take_bmf = cone_result is None or (
        bmf_result is not None
        and bmf_result.error < HYBRID_ERROR_FACTOR * cone_result.error
    )
    if take_bmf:
        return _bmf_candidate(costing, p, bmf_result)
    return _cone_candidate(costing, p, task, f, cone_result)


def _weight_rails(task: WindowTask) -> List[Optional[np.ndarray]]:
    # Dual-rail candidates: the weighted factorization protects
    # numerically significant wires (right at tight error budgets); the
    # uniform one is free to break them (right at loose budgets, e.g.
    # cutting an adder's carry chain).  The explorer picks per step by
    # measured whole-circuit error.
    return [task.weights] if task.weights is None else [task.weights, None]


def profile_window_task(task: WindowTask) -> WindowTaskResult:
    """Profile one window in isolation (the process-pool worker entry).

    Pure function of the task's contents — this is what makes parallel
    runs byte-identical to serial ones and results content-cacheable.

    Factorization runs on the degree ladder: one greedy descent per
    (weight rail, kernel family) covers every degree ``1 .. m-1`` (the
    ladder calls below), instead of the ``O(m)`` per-degree descents of
    :func:`profile_window_task_reference` — with byte-identical variants.
    """
    p = task.params
    n_outputs = int(task.table.shape[1])
    costing = _VariantCosting(p.library, p.espresso, p.match_macros)
    stats = costing.stats
    rails = _weight_rails(task)

    bmf_ladders: Dict[int, Dict[int, object]] = {}
    cone_ladders: Dict[int, Dict[int, object]] = {}
    if n_outputs > 1:
        for idx, rail in enumerate(rails):
            with stats.span("factorize"):
                if p.selection in ("bmf", "hybrid"):
                    bmf_ladders[idx] = factorize_ladder(
                        task.table, n_outputs - 1, weights=rail,
                        algebra=p.algebra, method=p.method, taus=p.taus,
                    )
                if p.selection in ("cone", "hybrid"):
                    cone_ladders[idx] = column_select_ladder(
                        task.table, n_outputs - 1, weights=rail,
                        algebra=p.algebra,
                    )
    n_ladders = len(bmf_ladders) + len(cone_ladders)
    stats.add("n_factorizations", n_ladders)
    stats.add("n_ladder_levels", n_ladders * (n_outputs - 1))

    exact_area = costing.window_area(task.sub) if p.estimate_area else 0.0
    variants: Dict[int, List[CandidateVariant]] = {}
    for f in range(1, n_outputs):
        by_table: Dict[bytes, CandidateVariant] = {}
        for idx in range(len(rails)):
            bmf_result = bmf_ladders[idx][f] if idx in bmf_ladders else None
            cone_result = cone_ladders[idx][f] if idx in cone_ladders else None
            variant = _pick_variant(costing, p, task, f, bmf_result, cone_result)
            key = variant.table.tobytes()
            held = by_table.get(key)
            # identical tables measure identically; keep the cheaper
            if held is None or variant.area < held.area:
                by_table[key] = variant
        variants[f] = list(by_table.values())
    current().merge(stats)
    return WindowTaskResult(
        exact_area, variants, stats.n_factorizations, stats.n_syntheses,
        stats.n_ladder_levels,
    )


def profile_window_task_reference(task: WindowTask) -> WindowTaskResult:
    """The legacy per-degree worker: one greedy descent per (degree, rail).

    Kept as the executable specification of
    :func:`profile_window_task` — the kernel-equivalence tests and
    ``benchmarks/bench_bmf_kernel.py`` run both and assert byte-identical
    profiles, which is the cache-compatibility contract of DESIGN.md.
    """
    p = task.params
    n_outputs = int(task.table.shape[1])
    costing = _VariantCosting(p.library, p.espresso, p.match_macros)
    stats = costing.stats

    def build_variant(f: int, rail: Optional[np.ndarray]) -> CandidateVariant:
        bmf_result = None
        cone_result = None
        if p.selection in ("bmf", "hybrid"):
            bmf_result = factorize(
                task.table, f, weights=rail, algebra=p.algebra,
                method=p.method, taus=p.taus,
            )
            stats.add("n_factorizations")
            stats.add("n_ladder_levels")
        if p.selection in ("cone", "hybrid"):
            cone_result = column_select_bmf(
                task.table, f, weights=rail, algebra=p.algebra
            )
            stats.add("n_factorizations")
            stats.add("n_ladder_levels")
        return _pick_variant(costing, p, task, f, bmf_result, cone_result)

    exact_area = costing.window_area(task.sub) if p.estimate_area else 0.0
    variants: Dict[int, List[CandidateVariant]] = {}
    for f in range(1, n_outputs):
        by_table: Dict[bytes, CandidateVariant] = {}
        for rail in _weight_rails(task):
            variant = build_variant(f, rail)
            key = variant.table.tobytes()
            held = by_table.get(key)
            if held is None or variant.area < held.area:
                by_table[key] = variant
        variants[f] = list(by_table.values())
    current().merge(stats)
    return WindowTaskResult(
        exact_area, variants, stats.n_factorizations, stats.n_syntheses,
        stats.n_ladder_levels,
    )



def output_significance(circuit: Circuit) -> np.ndarray:
    """Heuristic numeric significance of every node.

    Primary-output drivers receive the place value of their bit within its
    output word, normalized so each word's MSB weighs 1; the scores then
    propagate backwards (summing over fanouts).  Reconvergence double-counts
    — acceptable for a *weighting* heuristic.  Used to build per-window
    WQoR weight vectors for windows whose outputs are internal wires.
    """
    sig = np.zeros(circuit.n_nodes, dtype=float)
    words: Sequence[WordSpec] = circuit.attrs.get("words") or []
    covered = set()
    for w in words:
        top = max(w.width - 1, 0)
        for bit, port_idx in enumerate(w.indices):
            port = circuit.outputs[port_idx]
            sig[port.node] += 2.0 ** (bit - top)
            covered.add(port_idx)
    for idx, port in enumerate(circuit.outputs):
        if idx not in covered:
            sig[port.node] += 1.0
    for nid in range(circuit.n_nodes - 1, -1, -1):
        if sig[nid] > 0:
            for f in circuit.node(nid).fanins:
                sig[f] += sig[nid]
    return sig


def window_weights(
    circuit: Circuit, window: Window, mode: str, significance: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Per-output WQoR weight vector for one window (None = uniform)."""
    if mode == "uniform":
        return None
    raw = np.array(
        [max(significance[o], 1e-12) for o in window.outputs], dtype=float
    )
    return raw * (len(raw) / raw.sum())


def profile_windows(
    circuit: Circuit,
    windows: Sequence[Window],
    method: str = "asso",
    algebra: str = "semiring",
    taus: Sequence[float] = DEFAULT_TAUS,
    weight_mode: str = "uniform",
    selection: str = "hybrid",
    library: Library = LIB65,
    espresso_options: EspressoOptions = EspressoOptions(),
    estimate_area: bool = True,
    match_macros: bool = False,
    jobs: int = 1,
    cache: Optional[ProfileCache] = None,
    runtime_stats: Optional[RuntimeStats] = None,
    policy=None,
    faults=None,
    cancel=None,
) -> List[WindowProfile]:
    """Run the profiling phase over all windows.

    Args:
        circuit: Parent circuit.
        windows: Its decomposition.
        method / algebra / taus: Passed to :func:`repro.core.bmf.factorize`
            for the general-BMF variants.
        weight_mode: ``"uniform"`` (plain BMF) or ``"significance"`` (§3.2
            weighted QoR, weights derived from output-bit significance).
        selection: ``"bmf"`` (general factorization only), ``"cone"``
            (column-subset only), or ``"hybrid"`` (best of both per degree).
        estimate_area: Skip area synthesis when False (faster).
        match_macros: Allow FA/HA macro cells in the area oracle.  Off by
            default so exact windows and re-synthesized variants are costed
            through an identical gate-level model.
        jobs: Worker processes for per-window tasks (``0`` = all cores,
            ``1`` = serial).  Results are byte-identical whatever the count.
        cache: Optional persistent :class:`~repro.runtime.ProfileCache`;
            hits skip factorization and synthesis entirely.
        runtime_stats: Optional accumulator updated in place with task,
            cache and work counters, and the ``profile`` span (with each
            task's ``factorize`` / ``*_area`` spans under it).
        policy / faults: Supervised-dispatch retry bounds and
            deterministic fault plan, forwarded to
            :func:`~repro.runtime.run_tasks` (see DESIGN.md "Fault
            tolerance").
        cancel: Cooperative :class:`~repro.runtime.CancelToken` checked
            at dispatch boundaries, likewise forwarded.

    Returns:
        One :class:`WindowProfile` per window with variants for every
        ``f`` in ``1 .. m_i - 1``, in window order.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(
            f"unknown weight mode {weight_mode!r}; expected {WEIGHT_MODES}"
        )
    if selection not in SELECTIONS:
        raise ValueError(
            f"unknown selection {selection!r}; expected {SELECTIONS}"
        )
    windows = list(windows)  # consumed twice; accept one-shot iterables
    sig = output_significance(circuit) if weight_mode != "uniform" else None
    params = ProfileParams(
        method=method,
        algebra=algebra,
        taus=tuple(taus),
        selection=selection,
        library=library,
        espresso=espresso_options,
        estimate_area=estimate_area,
        match_macros=match_macros,
    )
    stats = runtime_stats if runtime_stats is not None else RuntimeStats()
    with stats.span("profile"):
        tasks: List[WindowTask] = []
        for w in windows:
            table = w.table(circuit)
            weights = window_weights(circuit, w, weight_mode, sig)
            sub = w.subcircuit(circuit) if estimate_area else None
            tasks.append(WindowTask(table, weights, sub, params))
        payloads, _ = run_tasks(
            tasks,
            profile_window_task,
            key_fn=WindowTask.cache_key,
            cache=cache,
            jobs=jobs,
            stats=stats,
            policy=policy,
            faults=faults,
            cancel=cancel,
        )
    return [
        WindowProfile(
            w, task.table, payload.exact_area, task.weights,
            dict(payload.variants),
        )
        for w, task, payload in zip(windows, tasks, payloads)
    ]
