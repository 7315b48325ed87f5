"""Top-level synthesis driver: truth tables and netlists to design metrics.

This module plays the role Synopsys Design Compiler plays in the paper's
flow (Figure 2 and §4): it turns compressor truth tables into logic,
re-optimizes approximate netlists, maps them onto the cell library and
reports area / power / delay as one :class:`DesignMetrics` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SynthesisError
from ..circuit.builder import CircuitBuilder
from ..circuit.gate import Op
from ..circuit.netlist import Circuit
from .anf import anf_cost, anf_terms, anf_to_gates, sop_cost
from .bdd import bdd_cost, bdd_to_gates, build_shared_bdd
from .espresso import EspressoOptions, espresso
from .library import DEFAULT_CLOCK_MHZ, LIB65, Library
from .power import estimate_power
from .quine import quine_mccluskey
from .sop import Cover
from .techmap import tech_map
from .timing import static_timing


@dataclass(frozen=True)
class DesignMetrics:
    """Area/power/delay summary of a mapped design.

    Attributes mirror the columns of the paper's Table 1.
    """

    area_um2: float
    power_uw: float
    delay_ns: float
    n_cells: int
    cell_histogram: Dict[str, int]

    def savings_vs(self, baseline: "DesignMetrics") -> Dict[str, float]:
        """Percentage savings of ``self`` relative to ``baseline``."""

        def pct(new: float, old: float) -> float:
            return 100.0 * (old - new) / old if old else 0.0

        return {
            "area": pct(self.area_um2, baseline.area_um2),
            "power": pct(self.power_uw, baseline.power_uw),
            "delay": pct(self.delay_ns, baseline.delay_ns),
        }


def cover_to_gates(
    builder: CircuitBuilder, cover: Cover, inputs: Sequence[int]
) -> int:
    """Instantiate a cover as AND-OR logic; returns the output signal.

    Cubes become AND gates over (possibly inverted) input literals; the
    builder's structural hashing shares identical cubes across outputs.
    """
    if len(inputs) != cover.k:
        raise SynthesisError(
            f"cover expects {cover.k} inputs, got {len(inputs)}"
        )
    terms: List[int] = []
    for cube in cover.cubes:
        lits = [
            inputs[i] if positive else builder.not_(inputs[i])
            for i, positive in cube.literals()
        ]
        if not lits:  # tautology cube
            terms.append(builder.const(True))
        elif len(lits) == 1:
            terms.append(lits[0])
        else:
            terms.append(builder.and_(*lits))
    if not terms:
        return builder.const(False)
    if len(terms) == 1:
        return terms[0]
    return builder.or_(*terms)


#: Average mapped area of one AND2-equivalent literal pair, used to put the
#: two-level cost estimates in µm² next to the BDD's mux-count bound.
_AND2_AREA = 1.8


def synthesize_output(
    builder: CircuitBuilder,
    table: np.ndarray,
    inputs: Sequence[int],
    options: EspressoOptions = EspressoOptions(),
) -> int:
    """Best-of single-output synthesis: AND-OR cover vs. Reed–Muller vs BDD.

    Minimizes the table with espresso, computes its ANF and its ROBDD, and
    instantiates whichever form has the smallest mapped-cost estimate.
    The ANF and BDD paths are what keep parity-heavy and carry-chain
    functions from exploding into exponential cube covers — the role
    multi-level optimization plays in the paper's DC-based flow.
    """
    return synthesize_outputs_shared(builder, table, inputs, options)[0]


#: One output's cheaper flat form: ``("sop", cubes, cost)`` or
#: ``("anf", monomial masks, cost)``, payloads as immutable tuples.
FlatPlan = Tuple[str, tuple, float]


def _flat_plan(column: np.ndarray, options: EspressoOptions) -> FlatPlan:
    """Espresso SOP vs. ANF for one output column, whichever costs less."""
    cover = espresso(column, options=options)
    terms = anf_terms(column)
    cost_s = sop_cost(cover.n_literals, len(cover)) * _AND2_AREA
    cost_a = anf_cost(terms) * _AND2_AREA
    if cost_a < cost_s:
        return ("anf", tuple(terms), cost_a)
    return ("sop", tuple(cover.cubes), cost_s)


def synthesize_outputs_shared(
    builder: CircuitBuilder,
    tables: np.ndarray,
    inputs: Sequence[int],
    options: EspressoOptions = EspressoOptions(),
    plans: Optional[Dict[Tuple[EspressoOptions, bytes], FlatPlan]] = None,
) -> List[int]:
    """Multi-output synthesis with structure sharing.

    Compares, by mapped-cost estimate, (a) the best flat form per output
    (espresso SOP vs. ANF) against (b) one shared multi-rooted ROBDD
    emitted as a mux network, and builds the cheaper.  The shared BDD is
    what recovers cross-output structure such as a common carry chain.

    Args:
        plans: Optional caller-owned memo of per-column flat plans, keyed
            by (options, column bytes).  A plan is a pure function of that
            key, so sharing one dict across calls builds the same netlist
            while minimizing each distinct column once.

    Returns one signal per output column.
    """
    tables = np.atleast_2d(np.asarray(tables, dtype=bool))
    if tables.shape[0] == 1:
        tables = tables.T
    k = tables.shape[0].bit_length() - 1
    m = tables.shape[1]

    flat_plans = []
    flat_total = 0.0
    for j in range(m):
        column = tables[:, j]
        if plans is None:
            plan = _flat_plan(column, options)
        else:
            key = (options, column.tobytes())
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _flat_plan(column, options)
        flat_plans.append(plan)
        flat_total += plan[2]

    bdd = build_shared_bdd(tables)
    if bdd_cost(bdd) < flat_total:
        return bdd_to_gates(builder, bdd, list(inputs))

    outs = []
    for kind, payload, _cost in flat_plans:
        if kind == "anf":
            outs.append(anf_to_gates(builder, payload, list(inputs)))
        else:
            outs.append(cover_to_gates(builder, Cover(k, payload), list(inputs)))
    return outs


def synthesize_covers(
    covers: Sequence[Cover],
    name: str = "synth",
    input_names: Optional[Sequence[str]] = None,
    output_names: Optional[Sequence[str]] = None,
) -> Circuit:
    """Build a multi-output circuit from per-output covers."""
    if not covers:
        raise SynthesisError("no covers given")
    k = covers[0].k
    if any(c.k != k for c in covers):
        raise SynthesisError("covers disagree on input count")
    builder = CircuitBuilder(name)
    in_names = input_names or [f"x{i}" for i in range(k)]
    inputs = [builder.input(n) for n in in_names]
    out_names = output_names or [f"y{j}" for j in range(len(covers))]
    for cover, oname in zip(covers, out_names):
        builder.output(oname, cover_to_gates(builder, cover, inputs))
    return builder.build(prune=True)


def synthesize_table(
    table: np.ndarray,
    name: str = "synth",
    exact: bool = False,
    options: EspressoOptions = EspressoOptions(),
) -> Circuit:
    """Synthesize a ``(2**k, m)`` truth table into a gate-level circuit.

    Args:
        table: Boolean matrix; column ``j`` is output ``j``.
        exact: Use Quine–McCluskey instead of the heuristic minimizer
            (small inputs only).
    """
    table = np.atleast_2d(np.asarray(table, dtype=bool))
    if table.shape[0] == 1:
        table = table.T
    if exact:
        covers = [quine_mccluskey(table[:, j]) for j in range(table.shape[1])]
        return synthesize_covers(covers, name)
    k = int(np.log2(table.shape[0]))
    builder = CircuitBuilder(name)
    inputs = [builder.input(f"x{i}") for i in range(k)]
    outs = synthesize_outputs_shared(builder, table, inputs, options)
    for j, sig in enumerate(outs):
        builder.output(f"y{j}", sig)
    return builder.build(prune=True)


def resynthesize(
    circuit: Circuit,
    name: Optional[str] = None,
    options: EspressoOptions = EspressoOptions(),
) -> Circuit:
    """Rebuild a netlist through the builder: folds constants, shares
    structure, lowers LUT nodes to minimized SOP logic, prunes dead nodes.

    This is the cleanup pass applied to approximate netlists after window
    substitution and before technology mapping.
    """
    builder = CircuitBuilder(name or circuit.name)
    sig: Dict[int, int] = {}
    for nid, node in enumerate(circuit.nodes):
        ins = [sig[f] for f in node.fanins]
        op = node.op
        if op is Op.INPUT:
            sig[nid] = builder.input(node.name or f"i{nid}")
        elif op is Op.CONST0:
            sig[nid] = builder.const(False)
        elif op is Op.CONST1:
            sig[nid] = builder.const(True)
        elif op is Op.BUF:
            sig[nid] = ins[0]
        elif op is Op.NOT:
            sig[nid] = builder.not_(ins[0])
        elif op is Op.AND:
            sig[nid] = builder.and_(*ins)
        elif op is Op.OR:
            sig[nid] = builder.or_(*ins)
        elif op is Op.XOR:
            sig[nid] = builder.xor_(*ins)
        elif op is Op.NAND:
            sig[nid] = builder.nand_(*ins)
        elif op is Op.NOR:
            sig[nid] = builder.nor_(*ins)
        elif op is Op.XNOR:
            sig[nid] = builder.xnor_(*ins)
        elif op is Op.MUX:
            sig[nid] = builder.mux(*ins)
        elif op is Op.LUT:
            sig[nid] = synthesize_output(builder, node.table, ins, options)
        else:  # pragma: no cover - exhaustive
            raise SynthesisError(f"cannot resynthesize op {op}")
    for port in circuit.outputs:
        builder.output(port.name, sig[port.node])
    out = builder.build(prune=True)
    out.attrs = dict(circuit.attrs)
    return out


def evaluate_design(
    circuit: Circuit,
    library: Library = LIB65,
    n_activity_samples: int = 2048,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
    seed: int = 0,
    match_macros: bool = True,
) -> DesignMetrics:
    """Full cost-oracle run: resynthesize, map, time, and measure power."""
    clean = resynthesize(circuit)
    mapped = tech_map(clean, library, match_macros=match_macros)
    timing = static_timing(mapped)
    rng = np.random.default_rng(seed)
    if clean.n_inputs == 0:
        power_uw = mapped.leakage_nw * 1e-3
    else:
        report = estimate_power(mapped, n_activity_samples, clock_mhz, rng)
        power_uw = report.total_uw
    return DesignMetrics(
        area_um2=mapped.area,
        power_uw=power_uw,
        delay_ns=timing.delay_ns,
        n_cells=mapped.n_cells,
        cell_histogram=mapped.cell_histogram(),
    )


def area_of(circuit: Circuit, library: Library = LIB65) -> float:
    """Cheap area-only oracle (no power simulation), used by the explorer."""
    return tech_map(resynthesize(circuit), library).area
