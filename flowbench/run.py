"""End-to-end benchmark of the BLASYS flow (``repro.flow.run_blasys``).

Run from the repository root::

    python3 flowbench/run.py --workload flow_cold --seed 1 --seconds 50 --trace 0
    python3 flowbench/run.py --self-test

One client drives the flow in a closed loop, one ``run_blasys`` call at a
time.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` follows
every untraced iteration with a traced replay and prints the per-layer
split instead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans,
per-iteration walls and provenance go to ``.flowbench/`` at the repository
root.  See ``flowbench/README.md`` for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".flowbench"

#: Environment knobs that inject faults, slow every call, or pick kernels;
#: a measurement taken under any of them is not the benchmark.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_KERNELS")

#: The program imports a run needs, timed in fresh interpreters for
#: ``setup_s`` (this process has imported them already).
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.flow, repro.core.profile, repro.partition, repro.bench.registry; "
    "print(time.perf_counter() - t)"
)
IMPORT_REPS = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "area_savings_pct": "%",
    "power_savings_pct": "%",
}
PER_LAYER = {
    "decompose.s": "s",
    "decompose.windows": "count",
    "profile.s": "s",
    "profile.tasks_computed": "count",
    "profile.factorizations": "count",
    "profile.syntheses": "count",
    "profile.dedup_hits": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "explore.s": "s",
    "explore.iterations": "count",
    "explore.evaluations": "count",
    "explore.evals_per_s": "1/s",
    "explore.preview_sweeps": "count",
    "explore.preview_memo_ratio": "ratio",
    "explore.sweep_units": "count",
    "explore.cones_compiled": "count",
    "stream.chunk_passes": "count",
    "stream.stacked_blocks": "count",
    "stream.chunk_cache_hit_ratio": "ratio",
    "stream.peak_sample_matrix_mb": "MB",
    "executor.shard_tasks": "count",
    "executor.resilience_events": "count",
    "realize.s": "s",
    "synth.s": "s",
    "synth.calls": "count",
    "measure.s": "s",
    "measure.samples_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "failed_frac": "ratio",
}


def fail(message: str) -> None:
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(2)


for _name in REFUSED_ENV:
    if os.environ.get(_name):
        fail(
            f"{_name} is set; the benchmark measures the fault-free default "
            f"flow — unset {', '.join(REFUSED_ENV)} and rerun"
        )

# The program comes from this checkout's src/, never from anywhere else.
sys.path.insert(0, str(SRC))
try:
    import numpy
    import repro
except ImportError as exc:
    fail(f"cannot import the program from {SRC}: {exc}")
if Path(repro.__file__).resolve().parent.parent != SRC:
    fail(f"imported repro from {repro.__file__}, not from {SRC}")

from gate import check_leg, golden_mismatch
from tracing import Tracer, fraction, layer_metrics, replay_leg
from workloads import SMALL, WORKLOADS, make_circuits, prefill, run_leg


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "git_commit": git_commit(),
    }


def import_seconds() -> list:
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB -> MB)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


class Run:
    """One benchmark run: set-up, iterations, and the gate's tally."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.prefilled = ""
        self.attempted = 0
        self.failures: list = []
        self.reference: dict = {}  # leg index -> digest of the first iteration
        self.savings: dict = {}  # leg index -> threshold -> savings
        self.kernel_backend = ""
        # Reference circuits for the gate; never handed to the flow.
        self.accurate = make_circuits(workload)
        self.golden = {
            name: golden_mismatch(name, circuit, seed)
            for name, circuit in self.accurate.items()
        }

    def setup(self) -> list:
        """Set up ``setup_reps`` times; returns each repetition's seconds."""
        times = []
        for rep in range(self.workload.setup_reps):
            cache = self.work / f"prefill-{rep}"
            t0 = time.perf_counter()
            circuits = make_circuits(self.workload)
            if self.workload.warm:
                prefill(self.workload, circuits, str(cache))
            times.append(time.perf_counter() - t0)
            if self.prefilled:
                shutil.rmtree(self.prefilled)
            self.prefilled = str(cache) if self.workload.warm else ""
        return times

    def iteration(self, k: int, tracer=None):
        """Every leg once; returns (each leg's wall, layer records)."""
        # Fresh circuit objects: compiled programs are memoized per circuit
        # object, and each iteration stands for one designer's first call.
        circuits = make_circuits(self.workload)
        gc.collect()
        walls, records = [], []
        for i, leg in enumerate(self.workload.legs):
            cache_dir = self.prefilled or str(self.work / f"cold-{k}-{i}")
            if tracer is None:
                outcome = run_leg(leg, circuits[leg.circuit], self.seed, cache_dir)
            else:
                outcome, record = replay_leg(
                    leg, circuits[leg.circuit], self.seed, cache_dir, tracer, i
                )
                records.append(record)
            if not self.prefilled:
                shutil.rmtree(cache_dir, ignore_errors=True)
            walls.append(outcome.wall_s)
            self.attempted += len(leg.thresholds)
            if self.golden[leg.circuit]:
                self.failures += [self.golden[leg.circuit]] * len(leg.thresholds)
                continue
            self.failures += check_leg(
                leg, self.accurate[leg.circuit], outcome, self.seed,
                self.reference.get(i),
            )
            self.reference.setdefault(i, outcome.digest)
            self.savings.setdefault(i, outcome.savings)
            self.kernel_backend = self.kernel_backend or outcome.kernel_backend
        return walls, records

    def mean_saving(self, kind: str) -> float:
        values = [
            s[kind] for per_leg in self.savings.values() for s in per_leg.values()
        ]
        return statistics.fmean(values) if values else 0.0


def leg_median_sum(iterations: list) -> float:
    """Sum over legs of each leg's median wall across iterations.

    A slowdown burst on a shared host usually hits one leg of one
    iteration; the per-leg median drops it where a median of whole
    iterations would keep it.
    """
    return sum(statistics.median(legs) for legs in zip(*iterations))


def measure(args, run: Run, detail: dict) -> dict:
    """Set up, iterate while the next iteration fits in ``--seconds``."""
    setup_times = run.setup()
    walls, traced_walls, layers, spans = [], [], [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        legs, _ = run.iteration(k)
        walls.append(legs)
        k += 1
        step = sum(legs)
        if args.trace:
            tracer = Tracer()
            traced, records = run.iteration(k, tracer)
            k += 1
            traced_walls.append(traced)
            if all(records):  # a leg that raised leaves no record
                layers.append(layer_metrics(tracer.spans, records))
            spans.append(tracer.spans)
            step += sum(traced)
        if time.perf_counter() - t0 + step > args.seconds:
            break

    detail.update(
        setup_reps_s=setup_times,
        iteration_walls_s=walls,
        traced_walls_s=traced_walls,
    )
    if args.trace:
        detail["spans"] = spans
        untraced = leg_median_sum(walls)
        if layers:
            metrics = {
                name: statistics.median(layer[name] for layer in layers)
                for name in layers[0]
            }
        else:  # every traced iteration had a leg raise: nothing to split
            metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics["trace.overhead_frac"] = fraction(
            leg_median_sum(traced_walls) - untraced, untraced
        )
        metrics["failed_frac"] = len(run.failures) / run.attempted
        return metrics
    # Read the peak before the import probes add their own children.
    rss = peak_rss_mb()
    detail["import_reps_s"] = imports = import_seconds()
    return {
        "wall_s": leg_median_sum(walls),
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "peak_rss_mb": rss,
        "area_savings_pct": run.mean_saving("area"),
        "power_savings_pct": run.mean_saving("power"),
    }


def bench(args) -> int:
    table = SMALL if args.small else WORKLOADS
    if args.workload not in table:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "small": args.small}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = Run(table[args.workload], args.seed, work)
            metrics = measure(args, run, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov = provenance()
    prov["kernel_backend"] = run.kernel_backend
    prov["warnings"] = {}
    for w in caught:
        key = f"{w.category.__name__}: {w.message}"
        prov["warnings"][key] = prov["warnings"].get(key, 0) + 1
    detail.update(
        provenance=prov, metrics=metrics, failures=run.failures,
        digests=run.reference,
    )
    (WORK / f"{tag}.json").write_text(json.dumps(detail, indent=1))

    for reason in run.failures:
        print(f"flowbench: FAILED {reason}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def self_test() -> int:
    """Each workload at reduced size on two seeds; names vs BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    t0 = time.perf_counter()
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((11, 0), (11, 1), (12, 0)):
            tag = f"{workload} seed={seed} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--small"],
                capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            found = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                found.append(f"result keys {sorted(result)}")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != expected[trace]:
                found.append("metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                found.append(f"correctness gate failed: {proc.stderr[-500:]}")
            problems += [f"{tag}: {p}" for p in found]
            print(f"{'FAIL' if found else 'ok'} {tag}", flush=True)
    print(f"self-test took {time.perf_counter() - t0:.1f} s")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="reduced-size variant of each workload (the self-test's)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run every workload at reduced size on two seeds",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
