"""Correctness gate: every realized design is one operation, passed or failed.

A design fails when any of these hold:

* its ``run_blasys`` call (or the traced replay of it) raised;
* the accurate circuit disagrees with its registry ``golden`` numpy model;
* its mean relative error against the golden model, on vectors the
  exploration never saw, exceeds its threshold by more than ``MRE_SLACK``;
* its leg's digest differs from the first iteration's (or, in the traced
  run, from the untraced run of the same seed);
* its leg reported a resilience event (retry, fallback, pool rebuild or
  corrupt cache entry) — the benchmark injects no faults, so any is a bug.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

from repro.bench.registry import get_benchmark, input_patterns_from_words
from repro.circuit import simulate_patterns

#: Exploration picks designs on ``n_samples`` vectors; re-measured on fresh
#: vectors their error can sit above the threshold by Monte-Carlo noise.
#: Measured overshoot on the registry circuits is under 10% of the
#: threshold, so a design fails only beyond a quarter of it.
MRE_SLACK = 0.25
#: Fresh vectors drawn per check (golden equivalence and design MRE).
GATE_SAMPLES = 8192


def resilience_events(stats) -> int:
    """Retries, fallbacks, pool rebuilds and corrupt cache entries."""
    return (
        stats.n_shard_retries
        + stats.n_shard_fallbacks
        + stats.n_task_retries
        + stats.n_task_fallbacks
        + stats.n_pool_rebuilds
        + stats.cache_corrupt
    )


def _golden_outputs(name: str, circuit, seed: int, stimulus: bool):
    """Input patterns and golden outputs on ``GATE_SAMPLES`` fresh vectors.

    With ``stimulus`` the input words follow the circuit's Monte-Carlo
    stimulus (the distribution its error is defined over: MAC/SAD drive
    only the low accumulator bits); otherwise every bit is uniform.
    """
    rng = np.random.default_rng(seed)
    active = (circuit.attrs.get("stimulus") or {}) if stimulus else {}
    values = {
        spec.name: rng.integers(
            0, 1 << min(active.get(spec.name, spec.width), spec.width),
            size=GATE_SAMPLES, dtype=np.int64,
        )
        for spec in circuit.attrs["input_words"]
    }
    patterns = input_patterns_from_words(circuit, values)
    return patterns, get_benchmark(name).golden(values)


def golden_mismatch(name: str, circuit, seed: int) -> str:
    """Why the accurate ``circuit`` disagrees with its golden model, or ``""``."""
    patterns, expected = _golden_outputs(name, circuit, seed, stimulus=False)
    bits = simulate_patterns(circuit, patterns)
    for spec in circuit.attrs["words"]:
        got = spec.to_ints(bits)
        bad = int(np.count_nonzero(got != expected[spec.name]))
        if bad:
            return f"{name}: word {spec.name} wrong on {bad}/{GATE_SAMPLES} vectors"
    return ""


def golden_mre(name: str, accurate, design, seed: int) -> float:
    """Mean relative error of ``design`` against the golden model."""
    patterns, expected = _golden_outputs(name, accurate, seed, stimulus=True)
    bits = simulate_patterns(design, patterns)
    per_word = []
    for spec in accurate.attrs["words"]:
        exact = expected[spec.name]
        diff = np.abs(exact - spec.to_ints(bits)).astype(float)
        per_word.append(float(np.mean(diff / np.maximum(np.abs(exact), 1))))
    return float(np.mean(per_word))


def leg_digest(exploration, designs) -> str:
    """Hash of window choices, degree vectors, and qor/area/power floats.

    ``designs`` maps threshold to ``(point, metrics, measured)``.
    """
    h = hashlib.sha256()
    for p in exploration.trajectory:
        h.update(
            repr(
                (p.iteration, p.window_index, p.f, p.qor.hex(),
                 p.est_area.hex(), p.fs)
            ).encode()
        )
    for thr in sorted(designs):
        point, metrics, measured = designs[thr]
        h.update(
            repr(
                (thr, point.iteration, float(metrics.area_um2).hex(),
                 float(metrics.power_uw).hex(), float(measured["mre"]).hex())
            ).encode()
        )
    return h.hexdigest()


def check_leg(leg, accurate, outcome, seed, reference_digest) -> List[str]:
    """Failure reasons, one entry per failed design of this leg.

    ``outcome`` is a :class:`~workloads.LegOutcome`; ``reference_digest`` is
    the digest the leg must reproduce (``None`` on the first iteration).
    """
    name = leg.circuit
    if outcome.error:
        return [f"{name}: raised {outcome.error}"] * len(leg.thresholds)
    reasons = []
    events = outcome.resilience_events
    digest_ok = reference_digest is None or outcome.digest == reference_digest
    for i, thr in enumerate(leg.thresholds):
        design = outcome.designs.get(thr)
        if design is None:
            reasons.append(f"{name}@{thr}: no design realized")
            continue
        if events:
            reasons.append(f"{name}@{thr}: {events} resilience events")
        elif not digest_ok:
            reasons.append(f"{name}@{thr}: digest differs from the first run")
        else:
            mre = golden_mre(name, accurate, design, seed + 1000 + i)
            if mre > thr * (1 + MRE_SLACK):
                reasons.append(f"{name}@{thr}: golden MRE {mre:.4f} over threshold")
    return reasons

