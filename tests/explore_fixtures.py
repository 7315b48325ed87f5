"""Shared exploration-test helpers, importable from test modules.

These live outside ``conftest.py`` because test files import them
directly (``from explore_fixtures import trajectory_key``) and the bare
module name ``conftest`` is ambiguous when pytest collects the whole
repository (``benchmarks/conftest.py`` claims it first).  Fixtures stay
in ``tests/conftest.py``, which re-exports these helpers.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.core import explorer
from repro.core.explorer import ExplorerConfig
from repro.core.incremental import IncrementalEvaluator


def trajectory_key(result):
    """Byte-comparison key over every TrajectoryPoint field.

    Includes the strategy/seed/move_id replay fields, so two runs agree
    only if the whole replay record matches — not just the QoR floats.
    """
    return [
        (p.iteration, p.window_index, p.f, p.qor, p.est_area, p.fs,
         p.strategy, p.seed, p.move_id)
        for p in result.trajectory
    ]


def explorer_config(**overrides) -> ExplorerConfig:
    """CI-sized ExplorerConfig matching the shared profiled fixtures.

    The defaults pair with ``butterfly_profiled`` / ``adder8_profiled``
    (8x8 decomposition, 700 samples: words_for(700) = 11, so
    ``chunk_words=3`` gives 4 chunks when a test goes streaming).
    """
    base = dict(n_samples=700, max_inputs=8, max_outputs=8)
    base.update(overrides)
    return ExplorerConfig(**base)


def _reference_evaluator(
    circuit, windows, input_words, n_samples, stats=None, sanitize=None,
    **execution,
):
    """The interpreted oracle, built with the compiled engine's
    arguments; the chunk plan and shard knobs do not apply to it."""
    return IncrementalEvaluator(
        circuit, windows, input_words, n_samples, stats=stats,
        sanitize=sanitize,
    )


@contextmanager
def reference_engine():
    """Make :func:`repro.core.explorer.explore` build the interpreted
    oracle (:class:`IncrementalEvaluator`) where it builds the compiled
    engine, for explore-level comparisons against the oracle."""
    with mock.patch.object(
        explorer, "CompiledEvaluator", _reference_evaluator
    ):
        yield
