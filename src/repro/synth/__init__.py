"""Logic synthesis substrate: two-level minimization, mapping, timing, power."""

from .sop import Cover, Cube, cover_from_minterms, on_off_dc_split
from .anf import anf_coefficients, anf_cost, anf_terms, anf_to_gates, sop_cost
from .bdd import SharedBDD, bdd_cost, bdd_to_gates, build_shared_bdd
from .espresso import EspressoOptions, espresso
from .quine import prime_implicants, quine_mccluskey
from .library import Cell, DEFAULT_CLOCK_MHZ, LIB65, Library
from .techmap import CellInst, MappedNetlist, lower_for_mapping, tech_map
from .timing import TimingReport, static_timing
from .power import PowerReport, estimate_power, signal_probabilities
from .synthesis import (
    DesignMetrics,
    OracleMemo,
    cover_to_gates,
    evaluate_design,
    resynthesize,
    synthesize_output,
    synthesize_outputs_shared,
    synthesize_table,
)

__all__ = [
    "Cell",
    "CellInst",
    "Cover",
    "Cube",
    "DEFAULT_CLOCK_MHZ",
    "DesignMetrics",
    "EspressoOptions",
    "LIB65",
    "Library",
    "MappedNetlist",
    "OracleMemo",
    "PowerReport",
    "SharedBDD",
    "TimingReport",
    "anf_coefficients",
    "anf_cost",
    "anf_terms",
    "anf_to_gates",
    "bdd_cost",
    "bdd_to_gates",
    "build_shared_bdd",
    "cover_from_minterms",
    "cover_to_gates",
    "espresso",
    "estimate_power",
    "evaluate_design",
    "lower_for_mapping",
    "on_off_dc_split",
    "prime_implicants",
    "quine_mccluskey",
    "resynthesize",
    "signal_probabilities",
    "sop_cost",
    "static_timing",
    "synthesize_output",
    "synthesize_outputs_shared",
    "synthesize_table",
    "tech_map",
]
