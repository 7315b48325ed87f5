#!/usr/bin/env python
"""CI smoke: kill-and-resume reproduces the exact final trajectory.

Runs one small exploration three ways and demands byte-identical
trajectories (DESIGN.md "Fault tolerance"):

1. an uninterrupted reference run,
2. a run interrupted after two iterations (via ``max_iterations``) that
   checkpoints every iteration, then resumed from the checkpoint,
3. the same interrupt/resume with deterministic faults injected into the
   resumed leg (worker crash + pool break across two shard workers).

Exercised end to end: atomic checkpoint writes, fingerprint validation,
heap/RNG state restoration, and the supervised executor's recovery path.

Usage::

    PYTHONPATH=src python scripts/check_resume.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.bench import butterfly
from repro.core.explorer import ExplorerConfig, explore
from repro.core.profile import profile_windows
from repro.partition import decompose

BASE = dict(
    n_samples=700, max_inputs=8, max_outputs=8, strategy="full", chunk_words=3
)
INTERRUPT_AT = 2


def trajectory_key(result):
    return [
        (p.iteration, p.window_index, p.f, p.qor, p.est_area, p.fs)
        for p in result.trajectory
    ]


def main() -> int:
    circuit = butterfly(6)
    windows = decompose(circuit, 8, 8)
    profiles = profile_windows(circuit, windows)

    def run(**overrides):
        config = ExplorerConfig(**BASE, **overrides)
        return explore(circuit, config, windows=windows, profiles=profiles)

    reference = run()
    ref_key = trajectory_key(reference)
    n_iter = len(ref_key) - 1
    assert n_iter > INTERRUPT_AT, (
        f"reference run too short ({n_iter} iterations) to interrupt "
        f"at {INTERRUPT_AT}"
    )

    with tempfile.TemporaryDirectory(prefix="blasys-resume-") as tmp:
        ck = str(Path(tmp) / "explore.ckpt")
        interrupted = run(checkpoint_path=ck, max_iterations=INTERRUPT_AT)
        assert interrupted.runtime_stats.n_checkpoints == INTERRUPT_AT, (
            f"expected {INTERRUPT_AT} checkpoint writes, got "
            f"{interrupted.runtime_stats.n_checkpoints}"
        )

        resumed = run(resume=ck)
        assert trajectory_key(resumed) == ref_key, (
            "resumed trajectory diverged from the uninterrupted run"
        )
        assert resumed.n_evaluations == reference.n_evaluations

        chaotic = run(
            resume=ck,
            shard_jobs=2,
            faults="crash:shard=0,attempt=0,scan=0;pool:scan=1",
        )
        assert trajectory_key(chaotic) == ref_key, (
            "chaos-resumed trajectory diverged from the uninterrupted run"
        )
        stats = chaotic.runtime_stats
        assert stats.n_shard_retries == 1, stats.summary()
        assert stats.n_pool_rebuilds == 1, stats.summary()

    print(
        f"resume check OK: {circuit.name}, {n_iter} iterations, "
        f"interrupted at {INTERRUPT_AT}, plain and chaos resumes "
        f"byte-identical ({stats.n_shard_retries} shard retries, "
        f"{stats.n_pool_rebuilds} pool rebuilds recovered)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
