"""Graph utilities over circuits: fanout maps, window boundaries and
extraction, and the quotient-graph acyclicity check.

Node ids are already a topological order (see :class:`~repro.circuit.netlist.
Circuit`), so fanouts, boundaries and extraction are single forward
sweeps.  The decomposer checks that a partition is convex (its clusters
contract to a DAG) with :func:`quotient_is_acyclic`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..errors import CircuitError
from .gate import Node, Op
from .netlist import Circuit


def fanout_lists(circuit: Circuit) -> List[List[int]]:
    """For each node, the list of node ids that read it (fanout edges)."""
    fanouts: List[List[int]] = [[] for _ in range(circuit.n_nodes)]
    for nid, node in enumerate(circuit.nodes):
        for f in node.fanins:
            fanouts[f].append(nid)
    return fanouts


def window_boundary(
    circuit: Circuit, members: Set[int]
) -> Tuple[List[int], List[int]]:
    """Boundary of a node set: (external inputs, internally-driven outputs).

    *Inputs* are nodes outside ``members`` feeding some member (constants are
    excluded — they are free inside any window).  *Outputs* are members that
    drive a node outside the set or a primary output.  Both lists are sorted
    by node id for determinism.
    """
    fanouts = fanout_lists(circuit)
    po_drivers = set(circuit.output_nodes())
    inputs: Set[int] = set()
    outputs: Set[int] = set()
    # Sorted walk for determinism discipline (the accumulation itself is
    # commutative, but boundary order must never depend on set history).
    for m in sorted(members):
        for f in circuit.node(m).fanins:
            if f not in members and not circuit.node(f).op in (Op.CONST0, Op.CONST1):
                inputs.add(f)
        if m in po_drivers or any(s not in members for s in fanouts[m]):
            outputs.add(m)
    return sorted(inputs), sorted(outputs)


def extract_subcircuit(
    circuit: Circuit,
    members: Sequence[int],
    input_nodes: Sequence[int],
    output_nodes: Sequence[int],
    name: str = "window",
) -> Circuit:
    """Materialize a window of ``circuit`` as a standalone :class:`Circuit`.

    Args:
        members: Node ids inside the window (any order).
        input_nodes: External driver ids, becoming primary inputs named
            after their position (``wi0``, ``wi1``, ...).
        output_nodes: Member ids exported as primary outputs (``wo0``, ...).

    Constants feeding the window are recreated inside it.

    Raises:
        CircuitError: if a member has a fanin that is neither a member, a
            declared input, nor a constant.
    """
    member_set = set(members)
    sub = Circuit(name)
    remap: Dict[int, int] = {}
    for pos, nid in enumerate(input_nodes):
        remap[nid] = sub.add_input(f"wi{pos}")
    for nid in sorted(member_set):
        node = circuit.node(nid)
        fanins = []
        for f in node.fanins:
            if f in remap:
                fanins.append(remap[f])
            elif circuit.node(f).op in (Op.CONST0, Op.CONST1):
                remap[f] = sub.add_node(Node(circuit.node(f).op))
                fanins.append(remap[f])
            else:
                raise CircuitError(
                    f"window member {nid} has undeclared external fanin {f}"
                )
        remap[nid] = sub.add_node(Node(node.op, tuple(fanins), node.name, node.table))
    for pos, nid in enumerate(output_nodes):
        if nid not in remap:
            raise CircuitError(f"window output {nid} is not a member")
        sub.add_output(f"wo{pos}", remap[nid])
    return sub


def quotient_is_acyclic(
    circuit: Circuit, assignment: Dict[int, int]
) -> bool:
    """Check that contracting each cluster of ``assignment`` leaves a DAG.

    ``assignment`` maps node id -> cluster id for gate nodes; unassigned
    nodes (sources, or gates left out) are treated as singleton clusters.
    """
    edges: Set[Tuple[int, int]] = set()
    next_virtual = -1
    virtual: Dict[int, int] = {}

    def cluster_of(nid: int) -> int:
        nonlocal next_virtual
        if nid in assignment:
            return assignment[nid]
        if nid not in virtual:
            virtual[nid] = next_virtual
            next_virtual -= 1
        return virtual[nid]

    adj: Dict[int, Set[int]] = {}
    for nid, node in enumerate(circuit.nodes):
        dst = cluster_of(nid)
        for f in node.fanins:
            src = cluster_of(f)
            if src != dst and (src, dst) not in edges:
                edges.add((src, dst))
                adj.setdefault(src, set()).add(dst)

    # Kahn's algorithm over the quotient graph.
    indeg: Dict[int, int] = {}
    nodes_q: Set[int] = set()
    for src, dsts in adj.items():
        nodes_q.add(src)
        for d in dsts:
            nodes_q.add(d)
            indeg[d] = indeg.get(d, 0) + 1
    queue = [q for q in sorted(nodes_q) if indeg.get(q, 0) == 0]
    seen = 0
    while queue:
        q = queue.pop()
        seen += 1
        for d in adj.get(q, ()):
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    return seen == len(nodes_q)
