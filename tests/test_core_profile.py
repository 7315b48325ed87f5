"""Tests for the profiling phase (Algorithm 1 lines 3-10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import butterfly, get_benchmark, ripple_adder
from repro.circuit import CircuitBuilder
from repro.core.bmf import bool_product
from repro.core.profile import (
    SELECTIONS,
    WEIGHT_MODES,
    ProfileParams,
    WindowTask,
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
            ProfileParams(),
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
