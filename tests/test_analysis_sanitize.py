"""Runtime sanitizer: frozen hand-outs, tail asserts, unchanged trajectories.

The sanitizer contract (DESIGN.md "Static contracts"): under
``REPRO_SANITIZE=1`` / ``ExplorerConfig.sanitize`` every array a cache
hands out is read-only, packed seed/word arrays crossing engine
boundaries are asserted tail-clean, shard payloads are deep-audited at
submit time — and trajectories stay **byte-identical** to sanitize-off
runs, because the mode only adds tripwires.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import (
    SANITIZE_ENV,
    assert_tail_clean,
    freeze,
    freeze_payload,
    frozen_view,
    sanitize_enabled,
)
from repro.bench import ripple_adder
from repro.circuit import random_input_words
from repro.core.engine import make_evaluator
from repro.core.explorer import ExplorerConfig, explore
from repro.core.incremental import IncrementalEvaluator
from repro.errors import ContractViolation
from repro.partition import decompose
from repro.runtime.cache import ProfileCache


# ---------------------------------------------------------------------------
# The sanitize switch.
# ---------------------------------------------------------------------------


def test_sanitize_enabled_env(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert not sanitize_enabled()
    for truthy in ("1", "true", "YES", "On"):
        monkeypatch.setenv(SANITIZE_ENV, truthy)
        assert sanitize_enabled()
    monkeypatch.setenv(SANITIZE_ENV, "0")
    assert not sanitize_enabled()


def test_sanitize_explicit_override_beats_env(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert not sanitize_enabled(False)
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert sanitize_enabled(True)


# ---------------------------------------------------------------------------
# Freezing primitives.
# ---------------------------------------------------------------------------


def test_freeze_is_in_place():
    arr = np.arange(4)
    assert freeze(arr) is arr
    with pytest.raises(ValueError):
        arr[0] = 9


def test_frozen_view_leaves_base_writable():
    arr = np.arange(4)
    view = frozen_view(arr)
    with pytest.raises(ValueError):
        view[0] = 9
    arr[0] = 9  # the owner's sanctioned repair path stays open
    assert view[0] == 9  # ...and the view sees it: same storage


def test_freeze_payload_recurses():
    payload = {
        "rows": [np.arange(3), (np.zeros(2), {np.uint64(1)})],
        "nested": {"deep": np.ones(2)},
    }
    freeze_payload(payload)
    for arr in (payload["rows"][0], payload["rows"][1][0],
                payload["nested"]["deep"]):
        with pytest.raises(ValueError):
            arr[0] = 5


def test_assert_tail_clean():
    # 70 samples in 2 words: 6 tail bits in the last word must be zero.
    words = np.zeros((3, 2), dtype=np.uint64)
    assert_tail_clean(words, 70, "fixture")
    words[1, 1] = np.uint64(1) << np.uint64(63)  # a garbage tail bit
    with pytest.raises(ContractViolation, match="tail"):
        assert_tail_clean(words, 70, "fixture")
    # Full final word (tail == 0): nothing to assert.
    assert_tail_clean(words, 128, "fixture")


# ---------------------------------------------------------------------------
# Cache hand-outs (the satellite regression: mutating a cache-returned
# array must raise under the sanitizer instead of corrupting later hits).
# ---------------------------------------------------------------------------


def test_profile_cache_payload_frozen_under_sanitize(tmp_path):
    cache = ProfileCache(tmp_path, sanitize=True)
    key = ProfileCache.key_of(b"fixture")
    cache.put(key, {"tables": [np.arange(4)]})
    hit = cache.get(key)
    with pytest.raises(ValueError):
        hit["tables"][0][0] = 9


def test_profile_cache_payload_writable_without_sanitize(tmp_path):
    cache = ProfileCache(tmp_path, sanitize=False)
    key = ProfileCache.key_of(b"fixture")
    cache.put(key, {"tables": [np.arange(4)]})
    cache.get(key)["tables"][0][0] = 9


# ---------------------------------------------------------------------------
# Engine hand-outs.
# ---------------------------------------------------------------------------


@pytest.fixture
def small_setup():
    circuit = ripple_adder(4)
    windows = decompose(circuit, 6, 6)
    n = 256
    words = random_input_words(circuit.n_inputs, n, np.random.default_rng(3))
    return circuit, windows, words, n


def test_exact_outputs_handout_is_read_only(small_setup):
    # Unconditional (not just sanitize mode): exact_outputs is shared
    # reference state, and every legitimate consumer copies or reads.
    circuit, windows, words, n = small_setup
    ev = IncrementalEvaluator(circuit, windows, words, n)
    out = ev.exact_outputs
    with pytest.raises(ValueError):
        out[0, 0] = 1


@pytest.mark.parametrize("chunk_words", [None, 2])
def test_engine_runs_clean_under_sanitize(small_setup, chunk_words):
    # Engines must not trip their own tripwires: a full evaluator build
    # under sanitize exercises the frozen seed/index/memo paths.
    circuit, windows, words, n = small_setup
    ev = make_evaluator(circuit, windows, words, n,
                        chunk_words=chunk_words, sanitize=True)
    assert ev.exact_outputs.shape[0] == circuit.n_outputs


# ---------------------------------------------------------------------------
# The headline contract: sanitize changes nothing but failure modes.
# ---------------------------------------------------------------------------


def trajectory_bytes(result):
    return [
        (p.iteration, p.qor.hex(), p.est_area.hex())
        for p in result.trajectory
    ]


@pytest.mark.parametrize("chunk_words", [None, 2])
def test_trajectories_byte_identical_under_sanitize(tmp_path, chunk_words):
    circuit = ripple_adder(4)
    base = dict(max_inputs=6, max_outputs=6, n_samples=256,
                error_cap=0.2, chunk_words=chunk_words)
    plain = explore(circuit, ExplorerConfig(**base))
    sanitized = explore(circuit, ExplorerConfig(**base, sanitize=True))
    assert trajectory_bytes(plain) == trajectory_bytes(sanitized)
    assert len(plain.trajectory) > 1  # the run actually explored
