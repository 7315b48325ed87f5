"""The :class:`Circuit` container: a combinational gate-level netlist.

Circuits are DAGs whose node ids are topologically ordered by construction:
every node's fanins have strictly smaller ids.  This invariant makes
simulation, levelization, and cone extraction single linear passes, and it is
validated whenever a node is appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import CircuitError
from .gate import Node, Op


@dataclass(frozen=True)
class PortRef:
    """A named reference to a driving node, used for primary outputs."""

    name: str
    node: int


class Circuit:
    """A combinational netlist with named primary inputs and outputs.

    The same node may drive several outputs, and an output may be driven by
    an input or constant node directly.  ``attrs`` is a free-form metadata
    dictionary; benchmark generators use it to record how output bits group
    into words (see :mod:`repro.core.qor`).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._nodes: List[Node] = []
        self._inputs: List[int] = []
        self._outputs: List[PortRef] = []
        self.attrs: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> int:
        """Append ``node`` and return its id.

        Raises:
            CircuitError: if any fanin id is out of range or not smaller
                than the new node's id (which would break topological order).
        """
        nid = len(self._nodes)
        for f in node.fanins:
            if not 0 <= f < nid:
                raise CircuitError(
                    f"node {nid} ({node.op.value}) has invalid fanin {f}"
                )
        self._nodes.append(node)
        if node.op is Op.INPUT:
            self._inputs.append(nid)
        return nid

    def add_input(self, name: str) -> int:
        """Append a primary input node named ``name``."""
        return self.add_node(Node(Op.INPUT, (), name))

    def add_output(self, name: str, node: int) -> int:
        """Declare node ``node`` as primary output ``name``; returns its index."""
        if not 0 <= node < len(self._nodes):
            raise CircuitError(f"output {name!r} refers to unknown node {node}")
        self._outputs.append(PortRef(name, node))
        return len(self._outputs) - 1

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes in topological (= id) order."""
        return self._nodes

    @property
    def inputs(self) -> Sequence[int]:
        """Primary input node ids, in declaration order."""
        return self._inputs

    @property
    def outputs(self) -> Sequence[PortRef]:
        """Primary outputs, in declaration order."""
        return self._outputs

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    @property
    def n_outputs(self) -> int:
        return len(self._outputs)

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def output_nodes(self) -> List[int]:
        """Driving node id of each output, in output order."""
        return [p.node for p in self._outputs]

    def input_names(self) -> List[str]:
        return [self._nodes[i].name or f"i{i}" for i in self._inputs]

    def output_names(self) -> List[str]:
        return [p.name for p in self._outputs]

    def gate_ids(self) -> Iterator[int]:
        """Ids of all logic nodes (everything that is not a source)."""
        for nid, node in enumerate(self._nodes):
            if node.op.is_gate:
                yield nid

    @property
    def n_gates(self) -> int:
        return sum(1 for _ in self.gate_ids())

    def op_histogram(self) -> Dict[Op, int]:
        """Count of nodes per operation kind."""
        hist: Dict[Op, int] = {}
        for node in self._nodes:
            hist[node.op] = hist.get(node.op, 0) + 1
        return hist

    # ------------------------------------------------------------------
    # Integrity and copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`CircuitError` on failure."""
        seen_inputs = []
        for nid, node in enumerate(self._nodes):
            for f in node.fanins:
                if not 0 <= f < nid:
                    raise CircuitError(f"node {nid} fanin {f} breaks topo order")
            if node.op is Op.INPUT:
                seen_inputs.append(nid)
        if seen_inputs != list(self._inputs):
            raise CircuitError("input list out of sync with INPUT nodes")
        for port in self._outputs:
            if not 0 <= port.node < len(self._nodes):
                raise CircuitError(f"output {port.name!r} dangling")

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Shallow-copy the netlist (nodes are immutable and shared)."""
        c = Circuit(name or self.name)
        c._nodes = list(self._nodes)
        c._inputs = list(self._inputs)
        c._outputs = list(self._outputs)
        c.attrs = dict(self.attrs)
        return c

    # ------------------------------------------------------------------
    # Dead-code aware rebuilding
    # ------------------------------------------------------------------
    def live_nodes(self) -> np.ndarray:
        """Boolean mask of nodes reachable from any primary output.

        Primary inputs are always kept (they define the interface).
        """
        live = np.zeros(len(self._nodes), dtype=bool)
        for port in self._outputs:
            live[port.node] = True
        for nid in range(len(self._nodes) - 1, -1, -1):
            if live[nid]:
                for f in self._nodes[nid].fanins:
                    live[f] = True
        live[list(self._inputs)] = True
        return live

    def pruned(self, name: Optional[str] = None) -> "Circuit":
        """Return an equivalent circuit with dead nodes removed.

        Input order, output order, names and ``attrs`` are preserved.
        """
        live = self.live_nodes()
        remap = np.full(len(self._nodes), -1, dtype=np.int64)
        out = Circuit(name or self.name)
        for nid, node in enumerate(self._nodes):
            if not live[nid]:
                continue
            new_fanins = tuple(int(remap[f]) for f in node.fanins)
            remap[nid] = out.add_node(
                Node(node.op, new_fanins, node.name, node.table)
            )
        for port in self._outputs:
            out.add_output(port.name, int(remap[port.node]))
        out.attrs = dict(self.attrs)
        return out

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({self.name!r}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs}, gates={self.n_gates})"
        )
