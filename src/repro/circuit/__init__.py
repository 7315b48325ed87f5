"""Gate-level netlist substrate: representation, construction, simulation, I/O."""

from .gate import Node, Op
from .netlist import Circuit, PortRef
from .builder import CircuitBuilder
from .words import WordSpec, default_output_word
from .simulate import (
    Chunk,
    bit_count,
    exhaustive_input_words,
    pack_bits,
    patterns_to_words,
    plan_chunks,
    popcount_words,
    random_input_words,
    simulate_full,
    simulate_outputs,
    simulate_patterns,
    unpack_bits,
    words_for,
    words_to_patterns,
)
from .stimulus import stimulus_input_words
from .truth_table import truth_table
from .graph import (
    extract_subcircuit,
    fanout_lists,
    quotient_is_acyclic,
    window_boundary,
)
from .blif import read_blif, write_blif
from .equivalence import EquivalenceResult, equivalent, miter
from .verilog import write_verilog
from .verilog_reader import read_verilog

__all__ = [
    "Chunk",
    "Circuit",
    "CircuitBuilder",
    "EquivalenceResult",
    "Node",
    "Op",
    "PortRef",
    "WordSpec",
    "default_output_word",
    "equivalent",
    "exhaustive_input_words",
    "extract_subcircuit",
    "miter",
    "fanout_lists",
    "bit_count",
    "pack_bits",
    "patterns_to_words",
    "plan_chunks",
    "popcount_words",
    "quotient_is_acyclic",
    "random_input_words",
    "read_blif",
    "read_verilog",
    "simulate_full",
    "simulate_outputs",
    "simulate_patterns",
    "stimulus_input_words",
    "truth_table",
    "unpack_bits",
    "window_boundary",
    "words_for",
    "words_to_patterns",
    "write_blif",
    "write_verilog",
]
