"""The :class:`Window` record produced by circuit decomposition.

A window is one sub-circuit of the k×m decomposition (paper §3.3): a set of
gate nodes of the parent circuit together with its boundary — the external
nodes feeding it (its inputs, at most ``k``) and the member nodes visible
outside (its outputs, at most ``m``).  Windows are *convex*: every path
between two members stays inside the window, which is exactly the condition
under which a window can be replaced by a ``k``-input/``m``-output block
without creating combinational cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..circuit.graph import extract_subcircuit
from ..circuit.netlist import Circuit
from ..circuit.truth_table import truth_table
from ..errors import SimulationError


@dataclass(frozen=True)
class Window:
    """One sub-circuit of a decomposition.

    Attributes:
        index: Position in the decomposition's window list.
        members: Gate node ids inside the window (sorted).
        inputs: External driver node ids (sorted) — the window's ``k`` wires.
        outputs: Member node ids visible outside (sorted) — the ``m`` wires.
    """

    index: int
    members: Tuple[int, ...]
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def n_members(self) -> int:
        return len(self.members)

    def subcircuit(self, circuit: Circuit, name: str = None) -> Circuit:
        """Materialize the window as a standalone circuit."""
        return extract_subcircuit(
            circuit,
            self.members,
            self.inputs,
            self.outputs,
            name or f"{circuit.name}_w{self.index}",
        )

    def table(self, circuit: Circuit) -> np.ndarray:
        """The window's truth table ``M`` (2^k rows × m outputs)."""
        return truth_table(self.subcircuit(circuit))

    def check_table(self, table) -> np.ndarray:
        """``table`` as a bool array; raises unless it is ``(2^k, m)``."""
        table = np.asarray(table, dtype=bool)
        if table.shape != (1 << self.n_inputs, self.n_outputs):
            raise SimulationError(
                f"window {self.index}: table shape {table.shape} does not "
                f"match ({self.n_inputs} inputs, {self.n_outputs} outputs)"
            )
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Window({self.index}: {self.n_members} gates, "
            f"{self.n_inputs}->{self.n_outputs})"
        )
