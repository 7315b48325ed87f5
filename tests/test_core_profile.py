"""Tests for the profiling phase (Algorithm 1 lines 3-10)."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.bench import butterfly, get_benchmark, ripple_adder
from repro.circuit import CircuitBuilder
from repro.core.bmf import bool_product, column_select_ladder, factorize_ladder
from repro.core.profile import (
    HYBRID_ERROR_FACTOR,
    SELECTIONS,
    WEIGHT_MODES,
    ProfileParams,
    WindowTask,
    _VariantCosting,
    output_significance,
    profile_window_task,
    profile_windows,
    window_weights,
)
from repro.partition import (
    ConeReplacement,
    FactoredReplacement,
    decompose,
)
from repro.runtime.cache import canonical_circuit_bytes
from repro.synth import OracleMemo, synthesize_outputs_shared


@pytest.fixture(scope="module")
def adder_setup():
    circuit = ripple_adder(6)
    windows = decompose(circuit, 8, 8)
    return circuit, windows


class TestProfileWindows:
    def test_variant_range(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(circuit, windows, estimate_area=False)
        for p in profiles:
            assert set(p.variants) == set(range(1, p.window.n_outputs))

    def test_tables_are_products(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(circuit, windows, estimate_area=False)
        for p in profiles:
            for f, variants in p.variants.items():
                for v in variants:
                    np.testing.assert_array_equal(
                        v.table, bool_product(v.B, v.C)
                    )

    def test_bmf_error_decreases_with_degree(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(
            circuit, windows, estimate_area=False, weight_mode="uniform"
        )
        for p in profiles:
            errs = [p.variants[f][0].bmf_error for f in sorted(p.variants)]
            assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(errs, errs[1:]))

    def test_cone_selection_areas_monotone(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(
            circuit, windows, selection="cone", weight_mode="uniform"
        )
        for p in profiles:
            areas = [p.variants[f][0].area for f in sorted(p.variants)]
            ordered = areas + [p.exact_area]
            assert all(a <= b + 1e-6 for a, b in zip(ordered, ordered[1:])), (
                f"cone areas not monotone: {ordered}"
            )

    def test_dual_rail_candidates_under_significance(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(
            circuit, windows, weight_mode="significance", estimate_area=False
        )
        # At least one window/degree should offer two distinct candidates.
        counts = [
            len(vs) for p in profiles for vs in p.variants.values()
        ]
        assert max(counts) == 2
        assert min(counts) >= 1

    def test_selection_kinds(self, adder_setup):
        circuit, windows = adder_setup
        for selection in SELECTIONS:
            profiles = profile_windows(
                circuit, windows, selection=selection, estimate_area=False
            )
            kinds = {
                v.kind
                for p in profiles
                for vs in p.variants.values()
                for v in vs
            }
            if selection == "bmf":
                assert kinds == {"bmf"}
            elif selection == "cone":
                assert kinds == {"cone"}
            else:
                assert kinds <= {"bmf", "cone"}

    def test_replacement_types_match_kind(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(circuit, windows, estimate_area=False)
        for p in profiles:
            for vs in p.variants.values():
                for v in vs:
                    if v.kind == "cone":
                        assert isinstance(v.replacement, ConeReplacement)
                    else:
                        assert isinstance(v.replacement, FactoredReplacement)

    def test_invalid_selection(self, adder_setup):
        circuit, windows = adder_setup
        with pytest.raises(ValueError):
            profile_windows(circuit, windows, selection="best")

    def test_invalid_weight_mode(self, adder_setup):
        circuit, windows = adder_setup
        with pytest.raises(ValueError):
            profile_windows(circuit, windows, weight_mode="fanout")

    def test_weighted_profiles_record_weights(self, adder_setup):
        circuit, windows = adder_setup
        profiles = profile_windows(
            circuit, windows, weight_mode="significance", estimate_area=False
        )
        for p in profiles:
            assert p.weights is not None
            assert p.weights.shape == (p.window.n_outputs,)
            assert p.weights.sum() == pytest.approx(p.window.n_outputs)


class TestOutputSignificance:
    def test_msb_weighs_more_than_lsb(self):
        circuit = ripple_adder(6)
        sig = output_significance(circuit)
        out_nodes = circuit.output_nodes()
        assert sig[out_nodes[-1]] > sig[out_nodes[0]]

    def test_propagates_to_inputs(self):
        circuit = ripple_adder(4)
        sig = output_significance(circuit)
        assert all(sig[i] > 0 for i in circuit.inputs)

    def test_unworded_outputs_get_unit_weight(self):
        b = CircuitBuilder()
        a = b.input("a")
        b.output("y", b.not_(a))
        circuit = b.build()
        circuit.attrs["words"] = []
        sig = output_significance(circuit)
        assert sig[circuit.output_nodes()[0]] == pytest.approx(1.0)

    def test_window_weights_normalized(self):
        circuit = butterfly(5)
        windows = decompose(circuit, 8, 8)
        sig = output_significance(circuit)
        for w in windows:
            weights = window_weights(circuit, w, "significance", sig)
            assert weights.sum() == pytest.approx(w.n_outputs)
            assert (weights > 0).all()

    def test_uniform_mode_returns_none(self):
        circuit = butterfly(5)
        windows = decompose(circuit, 8, 8)
        assert window_weights(circuit, windows[0], "uniform", None) is None


class TestPlanMemo:
    """The per-task oracle memo of the area oracle."""

    def test_at_most_one_espresso_call_per_distinct_column(self, monkeypatch):
        import repro.core.profile as profile_mod
        import repro.synth.synthesis as synthesis_mod

        circuit = get_benchmark("mult8").factory()
        w = max(decompose(circuit, 8, 8), key=lambda w: w.n_outputs)
        task = WindowTask(
            w.table(circuit),
            window_weights(
                circuit, w, "significance", output_significance(circuit)
            ),
            w.subcircuit(circuit),
            # Under "hybrid" no BMF variant of this window wins, so only
            # cone areas are costed and the oracle is never reached.
            ProfileParams(selection="bmf"),
        )
        minimized, columns, reached, n_columns = [], set(), set(), [0]
        memos = set()
        espresso = synthesis_mod.espresso
        shared = profile_mod.synthesize_outputs_shared

        def counting_espresso(table, *args, **kwargs):
            minimized.append(np.asarray(table).tobytes())
            return espresso(table, *args, **kwargs)

        def recording_shared(builder, tables, *args, **kwargs):
            mine = {tables[:, j].tobytes() for j in range(tables.shape[1])}
            columns.update(mine)
            n_columns[0] += tables.shape[1]
            out = shared(builder, tables, *args, **kwargs)
            memo = kwargs["memo"]
            memos.add(id(memo))
            # A call that reached the flat comparison leaves every column
            # planned; one the BDD won on the lower bound may leave none.
            if mine <= {column for _, column in memo.plans}:
                reached.update(mine)
            return out

        monkeypatch.setattr(synthesis_mod, "espresso", counting_espresso)
        monkeypatch.setattr(
            profile_mod, "synthesize_outputs_shared", recording_shared
        )
        result = profile_window_task(task)
        assert result.n_syntheses > 0
        assert len(memos) == 1  # one memo serves the whole task
        assert len(minimized) == len(set(minimized))
        assert set(minimized) == reached <= columns
        # The lower bound lets the BDD win without a cover.
        assert len(minimized) < len(columns)
        # Degrees and weight rails share basis columns: the memo pays.
        assert len(columns) < n_columns[0]

    # k = 4 and 5 build the flat SOP/ANF forms, k = 6 the shared BDD.
    @pytest.mark.parametrize("k,seed", [(4, 0), (5, 1), (6, 0)])
    def test_memo_builds_the_same_netlist(self, k, seed):
        rng = np.random.default_rng(seed)
        idx = np.arange(1 << k)
        x = [((idx >> i) & 1).astype(bool) for i in range(k)]
        first = np.column_stack(
            [x[0] & x[1], x[0] ^ x[1] ^ x[2], x[2] | x[3],
             rng.random(1 << k) < 0.15]
        )
        # The second table reuses two of the first's columns, so it is
        # built partly from memo hits.
        second = np.column_stack([first[:, 1], x[1] & ~x[3], first[:, 3]])
        shared_memo = OracleMemo()
        for tables in (first, second):
            netlists = []
            for memo in (None, shared_memo):
                builder = CircuitBuilder("t")
                ins = [builder.input(f"x{i}") for i in range(k)]
                outs = synthesize_outputs_shared(builder, tables, ins, memo=memo)
                for j, sig in enumerate(outs):
                    builder.output(f"y{j}", sig)
                netlists.append(canonical_circuit_bytes(builder.build()))
            assert netlists[0] == netlists[1]
        distinct = {
            t[:, j].tobytes() for t in (first, second) for j in range(t.shape[1])
        }
        plans = shared_memo.plans
        # Only calls that reached the flat comparison planned columns; at
        # k = 6 one call's BDD beat the lower bound, skipping espresso.
        assert len(plans) == len(distinct) - (k == 6)
        assert {kind for kind, _, _ in plans.values()} == {"sop", "anf"}
        # Plans are immutable values: nothing the builder does can alias
        # a memo entry into a later call.
        for _, payload, cost in plans.values():
            assert isinstance(payload, tuple)
            assert isinstance(cost, float)


def _winner_keys(task):
    """The hybrid rule's winner per (degree, rail), in costing order.

    Keys name what the winner's area is computed from: ``B``/``C`` for a
    general factorization, the kept columns and ``C`` for a cone.
    """
    n = task.table.shape[1]
    rails = [None] if task.weights is None else [task.weights, None]
    bmf = [factorize_ladder(task.table, n - 1, weights=r) for r in rails]
    cone = [column_select_ladder(task.table, n - 1, weights=r) for r in rails]
    keys = []
    for f in range(1, n):
        for b, c in zip(bmf, cone):
            if b[f].error < HYBRID_ERROR_FACTOR * c[f].error:
                keys.append(("bmf", b[f].B.tobytes(), b[f].C.tobytes()))
            else:
                keys.append(("cone", tuple(c[f].selected), c[f].C.tobytes()))
    return keys


class TestWinnerOnlyCosting:
    def test_only_the_error_rule_winner_is_costed(self, monkeypatch):
        circuit = get_benchmark("mult8").factory()
        sig = output_significance(circuit)
        tasks = (
            WindowTask(
                w.table(circuit),
                window_weights(circuit, w, "significance", sig),
                w.subcircuit(circuit),
                ProfileParams(),
            )
            for w in decompose(circuit, 10, 10)
        )
        # A window where each family wins somewhere exercises both.
        task, winners = next(
            (t, keys)
            for t in tasks
            for keys in [_winner_keys(t)]
            if {kind for kind, _, _ in keys} == {"bmf", "cone"}
        )
        costed = []
        factored_area = _VariantCosting.factored_area
        cone_area = _VariantCosting.cone_area

        def record_factored(self, B, C, algebra):
            costed.append(("bmf", B.tobytes(), C.tobytes()))
            return factored_area(self, B, C, algebra)

        def record_cone(self, sub, replacement):
            costed.append(
                ("cone", tuple(replacement.selected), replacement.C.tobytes())
            )
            return cone_area(self, sub, replacement)

        monkeypatch.setattr(_VariantCosting, "factored_area", record_factored)
        monkeypatch.setattr(_VariantCosting, "cone_area", record_cone)
        result = profile_window_task(task)
        assert costed == winners
        # The exact window plus one synthesis per distinct winner.
        assert result.n_syntheses == 1 + len(set(winners))


#: sha256 of adder32's cold profiles under the explorer's defaults (10×10
#: windows, significance weights, hybrid selection): ``exact_area`` and
#: every variant's ``f``, ``area``, ``bmf_error``, ``kind``, ``table``,
#: ``B`` and ``C``.  Recorded before the profiler stopped costing losing
#: variants and repeating ASSO thresholds; a faster oracle or
#: factorization must reproduce it.
ADDER32_PROFILE_SHA256 = (
    "be9b72d03e6c924bcc08f906c686b71ad47faee024fd3dab9dfc544ff1d7836f"
)


def _profile_digest(profiles) -> str:
    h = hashlib.sha256()
    for p in profiles:
        h.update(struct.pack("<d", p.exact_area))
        for f in sorted(p.variants):
            for v in p.variants[f]:
                h.update(struct.pack("<qdd", v.f, v.area, v.bmf_error))
                h.update(v.kind.encode())
                for a in (v.table, v.B, v.C):
                    a = np.ascontiguousarray(a, dtype=bool)
                    h.update(repr(a.shape).encode())
                    h.update(a.tobytes())
    return h.hexdigest()


def test_adder32_profile_bytes_pinned():
    circuit = get_benchmark("adder32").factory()
    profiles = profile_windows(
        circuit, decompose(circuit, 10, 10), weight_mode="significance"
    )
    assert _profile_digest(profiles) == ADDER32_PROFILE_SHA256
