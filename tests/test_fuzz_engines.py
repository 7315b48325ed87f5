"""Differential fuzzing of the scoring engines.

Random circuits over every gate op the engines implement (n-ary and
inverting gates, MUX, BUF, NOT, LUT, constant rows and constant fanins),
random decompositions, pattern counts that are not multiples of 64, and
arbitrary candidate tables.  Each example interleaves one-request and
multi-request ``scan_errors`` calls with commits, recommits and commits
equal to the committed state, and after every step asserts that the
reference oracle (:class:`IncrementalEvaluator`), resident compiled
execution and streaming execution at ``chunk_words`` 1, 2 and 3 agree on
every ``(error, dirty rows)`` pair and on ``current_outputs()``.

One resident engine always runs with the sanitizer armed, so a pass that
reads a scratch entry it did not write sees poison rather than a stale
value that happens to be right; under ``REPRO_SANITIZE=1`` every engine
is armed.

The same circuits also drive streaming at one and two shard workers
through one script of scans and commits, whose deterministic work
counters must come out equal: a shard worker's counters reach the parent
only through its returned stats delta.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, random_input_words
from repro.circuit.gate import Node, Op
from repro.circuit.simulate import unpack_bits
from repro.core.engine import CompiledEvaluator
from repro.core.incremental import IncrementalEvaluator
from repro.core.qor import METRICS, QoREvaluator, QoRSpec
from repro.core.streaming import StreamingEvaluator
from repro.partition import decompose
from repro.runtime import RuntimeStats

CHUNK_WORDS = (1, 2, 3)

#: Counters that depend only on the work, not on how it was sharded.
DETERMINISTIC_COUNTERS = (
    "n_scan_gate_words",
    "n_sweep_units",
    "n_chunk_passes",
    "n_stacked_blocks",
    "n_preview_sweeps",
    "n_preview_cache_hits",
)


def _fuzz_circuit(rng):
    """A random netlist using every gate op, with constant rows and
    duplicate primary outputs.

    The builder folds constants, never emits BUF and builds NAND, NOR
    and XNOR as a NOT over AND, OR and XOR, so those ops and the gates
    with constant fanins are appended to the built circuit as raw
    nodes."""
    b = CircuitBuilder("fuzz")
    sigs = [b.input(f"i{k}") for k in range(int(rng.integers(3, 7)))]
    for _ in range(int(rng.integers(15, 40))):
        op = int(rng.integers(0, 10))
        arity = int(rng.integers(2, 5))
        xs = [sigs[int(p)] for p in rng.choice(len(sigs), size=arity)]
        if op == 0:
            sigs.append(b.and_(*xs))
        elif op == 1:
            sigs.append(b.or_(*xs))
        elif op == 2:
            sigs.append(b.xor_(*xs))
        elif op == 3:
            sigs.append(b.nand_(*xs))
        elif op == 4:
            sigs.append(b.nor_(*xs))
        elif op == 5:
            sigs.append(b.xnor_(*xs))
        elif op == 6:
            sigs.append(b.not_(xs[0]))
        elif op == 7:
            sigs.append(b.mux(xs[0], xs[1], sigs[int(rng.integers(len(sigs)))]))
        else:
            k = min(arity, 3)
            sigs.append(b.lut(xs[:k], rng.random(1 << k) < 0.5))
    outs = [sigs[int(p)] for p in rng.choice(len(sigs), size=4)]
    outs.append(sigs[-1])
    outs.append(outs[0])  # one node driving two output rows
    outs.append(b.const(bool(rng.integers(0, 2))))
    signed = bool(rng.integers(0, 2))
    b.output_word("y", outs[:3], signed=signed)
    b.output_word("z", outs[3:], signed=not signed)
    circuit = b.build()
    # Raw extras, each driving a new output row of the second word: a
    # BUF chain, NAND/NOR/XNOR gates (one reading a constant row) and a
    # gate over a raw BUF.
    live = [nid for nid, node in enumerate(circuit.nodes) if node.op.is_gate]
    # A draw whose outputs are all inputs or constants keeps no gate;
    # its raw extras read primary inputs instead.
    live = live or list(circuit.inputs)

    def pick(k):
        return tuple(int(x) for x in rng.choice(live, size=k))

    const = circuit.add_node(
        Node(Op.CONST1 if rng.integers(0, 2) else Op.CONST0)
    )
    buf = circuit.add_node(Node(Op.BUF, pick(1)))
    ends = [
        circuit.add_node(Node(Op.BUF, (buf,))),
        circuit.add_node(Node(Op.NAND, pick(int(rng.integers(2, 4))))),
        circuit.add_node(Node(Op.NOR, pick(1) + (const,))),
        circuit.add_node(Node(Op.XNOR, pick(2) + (buf,))),
    ]
    words = circuit.attrs["words"]
    z = words[1]
    rows = list(z.indices)
    for k, nid in enumerate(ends):
        rows.append(circuit.add_output(f"x{k}", nid))
    words[1] = type(z)(z.name, tuple(rows), z.signed)
    circuit.validate()
    return circuit


def _tables(rng, w, current, count):
    """Arbitrary candidate tables, some equal to the window's current
    function (clean seeds) and some its complement."""
    out = []
    for _ in range(count):
        pick = int(rng.integers(0, 4))
        if pick == 0:
            out.append(current.copy())
        elif pick == 1:
            out.append(~current)
        else:
            out.append(rng.random((1 << w.n_inputs, w.n_outputs)) < 0.5)
    return out


def _assert_same_outputs(engines, n):
    want = unpack_bits(engines[0].current_outputs(), n)
    for e in engines[1:]:
        np.testing.assert_array_equal(unpack_bits(e.current_outputs(), n), want)


class TestEngineDifferentialFuzz:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(65, 400).filter(lambda n: n % 64),
    )
    def test_scan_commit_interleavings_agree(self, seed, n):
        rng = np.random.default_rng(seed)
        circuit = _fuzz_circuit(rng)
        windows = decompose(
            circuit, int(rng.integers(2, 6)), int(rng.integers(1, 5))
        )
        words = random_input_words(circuit.n_inputs, n, rng)
        engines = [
            IncrementalEvaluator(circuit, windows, words, n),
            CompiledEvaluator(circuit, windows, words, n),
            CompiledEvaluator(circuit, windows, words, n, sanitize=True),
        ] + [
            StreamingEvaluator(circuit, windows, words, n, chunk_words=cw)
            for cw in CHUNK_WORDS
        ]
        spec = QoRSpec(METRICS[int(rng.integers(0, len(METRICS)))])
        qors = [
            QoREvaluator(circuit, e.exact_outputs, n, spec) for e in engines
        ]
        for e, q in zip(engines, qors):
            q.rebase(e.current_outputs())
        current = {w.index: w.table(circuit) for w in windows}
        last_requests = None
        for _ in range(8):
            action = int(rng.integers(0, 5))
            if action <= 2:
                if action == 2 and last_requests is not None:
                    # Same table objects again: memo replay where the
                    # commit in between left the window's cone alone.
                    requests = last_requests
                else:
                    picks = rng.permutation(len(windows))
                    count = 1 if action == 0 else int(rng.integers(1, len(windows) + 1))
                    requests = [
                        (
                            windows[int(i)].index,
                            _tables(
                                rng, windows[int(i)],
                                current[windows[int(i)].index],
                                int(rng.integers(1, 5)),
                            ),
                        )
                        for i in picks[:count]
                    ]
                last_requests = requests
                want = engines[0].scan_errors(requests, qors[0])
                for e, q in zip(engines[1:], qors[1:]):
                    assert e.scan_errors(requests, q) == want
                continue
            w = windows[int(rng.integers(0, len(windows)))]
            if action == 3:
                table = _tables(rng, w, current[w.index], 1)[0]
            else:
                # Commit equal to the committed state: a recommit of the
                # current table, or the window's own exact function.
                table = current[w.index].copy()
            for e, q in zip(engines, qors):
                e.commit(w.index, table)
                q.rebase(e.current_outputs())
            current[w.index] = table
            _assert_same_outputs(engines, n)
        _assert_same_outputs(engines, n)
        for e in engines:
            e.close()


class TestShardedCounters:
    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_sharded_counters_equal_serial(self, seed):
        rng = np.random.default_rng(seed)
        circuit = _fuzz_circuit(rng)
        windows = decompose(circuit, 4, 3)
        n = 300  # five one-word chunks, split over two shards
        words = random_input_words(circuit.n_inputs, n, rng)
        current = {w.index: w.table(circuit) for w in windows}
        script = []
        for step in range(6):
            if step % 3 == 2:
                w = windows[int(rng.integers(0, len(windows)))]
                table = _tables(rng, w, current[w.index], 1)[0]
                script.append((w.index, table))
                continue
            requests = [
                (w.index, _tables(rng, w, current[w.index], 3))
                for w in windows
            ]
            # Scanning the same request twice exercises the memo.
            script.extend([requests] * (1 + step % 2))
        stats = {}
        results = {}
        for jobs in (1, 2):
            stats[jobs] = RuntimeStats()
            engine = StreamingEvaluator(
                circuit, windows, words, n, chunk_words=1,
                stats=stats[jobs], shard_jobs=jobs,
            )
            qor = QoREvaluator(circuit, engine.exact_outputs, n)
            qor.rebase(engine.current_outputs())
            results[jobs] = []
            for item in script:
                if isinstance(item, list):
                    results[jobs].append(engine.scan_errors(item, qor))
                else:
                    engine.commit(*item)
                    qor.rebase(engine.current_outputs())
            engine.close()
        assert results[2] == results[1]
        assert stats[2].n_shard_tasks > stats[1].n_shard_tasks  # it sharded
        for name in DETERMINISTIC_COUNTERS:
            assert getattr(stats[2], name) == getattr(stats[1], name), name
        assert stats[1].n_preview_cache_hits > 0
