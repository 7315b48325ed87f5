"""Tests for the one counter-and-span mechanism (``repro.runtime.stats``)."""

from __future__ import annotations

import json
import pickle
import re
import time
from pathlib import Path

import pytest

from repro.bench.registry import get_benchmark
from repro.core.explorer import ExplorerConfig
from repro.flow import run_blasys
from repro.runtime import COUNTERS, RuntimeStats
from repro.runtime.stats import MAX, SUM, current, recorded

FLOWBENCH = Path(__file__).resolve().parent.parent / "flowbench"


def _work(x):
    current().add("n_syntheses", x)
    with current().span("leaf"):
        return x * x


class TestCounterTable:
    def test_table_is_declared_once(self):
        names = [c.name for c in COUNTERS]
        assert len(names) == len(set(names))
        for c in COUNTERS:
            assert c.kind in (SUM, MAX)
            assert c.doc and c.show

    def test_add_sums_counters_and_raises_gauges(self):
        stats = RuntimeStats()
        stats.add("n_tasks", 3)
        stats.add("n_tasks")
        stats.add("peak_sample_matrix_bytes", 50)
        stats.add("peak_sample_matrix_bytes", 20)
        assert stats.n_tasks == 4
        assert stats.peak_sample_matrix_bytes == 50
        with pytest.raises(KeyError):
            stats.add("n_no_such_counter")

    def test_counters_are_not_assignable(self):
        stats = RuntimeStats()
        with pytest.raises(AttributeError):
            stats.n_tasks = 5
        with pytest.raises(AttributeError):
            stats.no_such_counter  # noqa: B018

    def test_merge_and_delta_are_generic(self):
        a = RuntimeStats(n_sweep_units=5, shard_jobs=2)
        mark = a.copy()
        a.add("n_sweep_units", 7)
        a.add("shard_jobs", 3)
        delta = a.delta(mark)
        assert delta.n_sweep_units == 7
        assert delta.shard_jobs == 3  # gauges carry their current value
        total = RuntimeStats(n_sweep_units=1)
        total.merge(delta)
        assert total.n_sweep_units == 8 and total.shard_jobs == 3

    def test_retired_names_read_as_constants(self):
        stats = RuntimeStats()
        assert stats.n_cones_compiled == 0
        assert stats.n_chunk_cache_hits == stats.n_chunk_cache_misses == 0
        assert stats.kernel_backend == "numpy"

    def test_pickles_with_spans(self):
        stats = RuntimeStats(n_tasks=2)
        with stats.span("a"):
            pass
        back = pickle.loads(pickle.dumps(stats))
        assert back.report() == stats.report()


class TestSpans:
    def test_nested_paths_accumulate(self):
        stats = RuntimeStats()
        for _ in range(2):
            with stats.span("explore"):
                with stats.span("scan"):
                    pass
        spans = stats.report()["spans"]
        assert list(spans) == ["explore", "explore/scan"]
        assert spans["explore/scan"]["count"] == 2
        assert spans["explore/scan"]["seconds"] <= spans["explore"]["seconds"]

    def test_span_records_on_exception(self):
        stats = RuntimeStats()
        with pytest.raises(ValueError):
            with stats.span("boom"):
                raise ValueError
        assert stats.report()["spans"]["boom"]["count"] == 1
        with stats.span("after"):
            pass
        assert "after" in stats.report()["spans"]  # the stack unwound

    def test_worker_delta_lands_under_the_open_span(self):
        payload, delta = recorded(_work, 3)
        assert payload == 9 and delta.n_syntheses == 3
        parent = RuntimeStats()
        with parent.span("profile"):
            parent.merge(delta)
        assert "profile/leaf" in parent.report()["spans"]
        assert current().report()["spans"].get("leaf") is None

    def test_report_is_json(self):
        stats = RuntimeStats(n_tasks=1)
        with stats.span("x"):
            pass
        report = json.loads(json.dumps(stats.report()))
        assert report["counters"]["n_tasks"] == 1
        assert set(report["counters"]) == {c.name for c in COUNTERS}

    def test_summary_prints_span_tree(self):
        stats = RuntimeStats(n_tasks=1)
        with stats.span("explore"):
            with stats.span("scan"):
                pass
        counters, tree = stats.summary().splitlines()
        assert counters.startswith("runtime: 1 tasks")
        assert re.fullmatch(r"time: explore \S+s \[scan \S+s\]", tree)


def _flowbench_reads():
    """Every RuntimeStats attribute the benchmark's sources read."""
    names = set()
    for name in ("gate.py", "tracing.py", "workloads.py"):
        text = (FLOWBENCH / name).read_text()
        names.update(re.findall(r'total\("\w+", "(\w+)"\)', text))
        names.update(re.findall(r"(?:\b\w*stats|\])\.(\w+)", text))
    return names


class TestFlowSpans:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """adder32 cold, warm, and cold again in a second cache."""
        circuit = get_benchmark("adder32").factory()
        first, second = (str(tmp_path_factory.mktemp("cache")) for _ in "ab")
        out = []
        for cache_dir in (first, first, second):
            config = ExplorerConfig(n_samples=2048, seed=1, cache_dir=cache_dir)
            start = time.perf_counter()
            result = run_blasys(
                circuit, thresholds=(0.01, 0.05), config=config,
                final_samples=8192,
            )
            out.append((time.perf_counter() - start, result))
        return out

    def test_top_level_spans_cover_the_wall(self, runs):
        for wall, result in runs:
            spans = result.exploration.runtime_stats.report()["spans"]
            assert {"synth", "explore", "realize", "measure"} <= set(spans)
            top = sum(s["seconds"] for p, s in spans.items() if "/" not in p)
            assert 0.95 * wall <= top <= wall

    def test_children_never_exceed_their_parent(self, runs):
        for _, result in runs:
            spans = result.exploration.runtime_stats.report()["spans"]
            assert "explore/search/scan" in spans
            children: dict = {}
            for path, span in spans.items():
                parent = path.rpartition("/")[0]
                if parent:
                    children.setdefault(parent, []).append(span["seconds"])
            for parent, seconds in children.items():
                assert sum(seconds) <= spans[parent]["seconds"], parent

    def test_cold_profiles_and_warm_serves_the_cache(self, runs):
        (_, cold), (_, warm), _ = runs
        cold_spans = cold.exploration.runtime_stats.report()["spans"]
        assert "explore/profile/factorize" in cold_spans
        assert warm.exploration.runtime_stats.n_factorizations == 0
        assert warm.exploration.runtime_stats.cache_hits > 0

    def test_counters_repeat_across_runs(self, runs):
        cold, warm, cold_again = (
            result.exploration.runtime_stats.report()["counters"]
            for _, result in runs
        )
        assert cold_again == cold
        for name in ("n_preview_sweeps", "n_sweep_units", "n_scan_gate_words"):
            assert warm[name] == cold[name]

    def test_every_name_flowbench_reads_is_readable(self, runs):
        names = _flowbench_reads()
        assert len(names) >= 20
        stats = runs[0][1].exploration.runtime_stats
        for name in sorted(names):
            getattr(stats, name)
