"""Exhaustive truth-table extraction.

The truth table of a k-input, m-output circuit is the boolean matrix ``M``
of shape ``(2**k, m)`` that BLASYS hands to the Boolean matrix factorizer:
row ``r`` holds the outputs for the input assignment whose bit ``i`` is
input ``i`` of the circuit (input 0 is the least-significant index bit).
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .netlist import Circuit
from .simulate import (
    exhaustive_input_words,
    simulate_outputs,
    words_to_patterns,
)

#: Truth tables above this input count are refused (4M rows at k=22).
MAX_TRUTH_TABLE_INPUTS = 22


def truth_table(circuit: Circuit, max_inputs: int = MAX_TRUTH_TABLE_INPUTS) -> np.ndarray:
    """Compute the full truth table of ``circuit``.

    Returns:
        Boolean matrix of shape ``(2**k, m)`` where ``k``/``m`` are the
        input/output counts of the circuit.

    Raises:
        SimulationError: if the circuit has more than ``max_inputs`` inputs.
    """
    k = circuit.n_inputs
    if k > max_inputs:
        raise SimulationError(
            f"truth table with {k} inputs exceeds limit of {max_inputs}"
        )
    in_words = exhaustive_input_words(k)
    out_words = simulate_outputs(circuit, in_words)
    return words_to_patterns(out_words, 1 << k).astype(bool)


def minterm_indices(column: np.ndarray) -> np.ndarray:
    """Indices of rows where a single-output table column is 1."""
    column = np.asarray(column, dtype=bool)
    return np.nonzero(column)[0]
