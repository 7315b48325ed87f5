"""Work accounting: one declared counter table plus nested wall-clock spans.

:data:`COUNTERS` declares every counter once (name, merge kind, summary
section and format, doc): ``sum`` counters add, ``max`` gauges keep the
largest value.  :class:`RuntimeStats` adds, merges and diffs them
generically, and times ``span(...)`` blocks per slash-joined path of the
spans open around them.  Workers return one :class:`RuntimeStats` delta
with their results; pure task functions record into :func:`current`,
which :func:`recorded` points at a fresh recorder per task.  Wall-clock
data never leaves this record (DESIGN.md "Observability").
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

#: Merge kinds: counters add, gauges keep their maximum.
SUM = "sum"
MAX = "max"


class Counter(NamedTuple):
    """One declared counter.  ``show`` formats it in its summary
    ``section``: ``{}`` is the value, ``{bytes}`` its byte rendering."""

    name: str
    kind: str
    section: str
    show: str
    doc: str
    default: int = 0


COUNTERS: Tuple[Counter, ...] = (
    Counter("n_tasks", SUM, "runtime", "{} tasks",
            "Tasks submitted to the task driver."),
    Counter("tasks_computed", SUM, "runtime", "{} computed",
            "Tasks executed, not served by the cache or an identical task."),
    Counter("jobs", MAX, "runtime", "jobs={}",
            "Resolved worker count of the task driver.", 1),
    Counter("cache_hits", SUM, "runtime", "{} cache hits",
            "Profile-cache lookups that returned an entry."),
    Counter("cache_misses", SUM, "runtime", "{} cache misses",
            "Profile-cache lookups that did not (corrupt entries included)."),
    Counter("cache_stores", SUM, "runtime", "{} cache stores",
            "Profile-cache entries written."),
    Counter("dedup_hits", SUM, "runtime", "{} deduped",
            "Tasks served by an identical task of the same run."),
    Counter("n_factorizations", SUM, "runtime", "{} factorizations",
            "Factorization calls: one per ladder (each sweeps every tau)."),
    Counter("n_ladder_levels", SUM, "runtime", "{} degree results",
            "Degree results those calls produced (the ladder's yield)."),
    Counter("n_syntheses", SUM, "runtime", "{} syntheses",
            "Area syntheses performed (memo hits excluded)."),
    Counter("n_preview_sweeps", SUM, "explore", "{} preview sweeps",
            "Candidates swept by the exploration engine."),
    Counter("n_preview_cache_hits", SUM, "explore", "{} memoized",
            "Candidates replayed from the scan memo of error totals."),
    Counter("n_sweep_units", SUM, "explore", "{} sweep units",
            "Quotient-plan units visited: per candidate on the reference "
            "engine, per stacked pass on the compiled one."),
    Counter("n_scan_gate_words", SUM, "explore", "{} scan gate words",
            "Gate rows x packed words the cone-sparse scan passes evaluated."),
    Counter("peak_sample_matrix_bytes", MAX, "explore",
            "peak sample matrix {bytes}",
            "Largest packed sample-value working set of any one process."),
    Counter("chunk_words", MAX, "stream", "chunk={} words",
            "Chunk size in packed words (0: one uncapped whole-axis chunk)."),
    Counter("n_chunk_passes", SUM, "stream", "{} chunk passes",
            "Chunk base rebuilds (per chunk per scan or commit; a "
            "one-chunk plan keeps its base)."),
    Counter("n_stacked_blocks", SUM, "stream", "{} stacked blocks",
            "Candidate blocks the scan passes executed."),
    Counter("n_shard_tasks", SUM, "stream", "{} shard tasks",
            "Shard tasks of multi-chunk scans, in-process ones included."),
    Counter("shard_jobs", MAX, "stream", "shard-jobs={}",
            "Resolved worker count of the shard executor.", 1),
    Counter("n_checkpoints", SUM, "checkpoints", "{} written",
            "Exploration checkpoints written."),
    Counter("n_shard_retries", SUM, "recovered", "{} shard retries",
            "Shard re-submissions after a failed or timed-out attempt."),
    Counter("n_shard_fallbacks", SUM, "recovered", "{} shard fallbacks",
            "Shards that exhausted their retries and ran in-process."),
    Counter("n_task_retries", SUM, "recovered", "{} task retries",
            "Task re-submissions after a failed or timed-out attempt."),
    Counter("n_task_fallbacks", SUM, "recovered", "{} task fallbacks",
            "Tasks that exhausted their retries and ran in-process."),
    Counter("n_pool_rebuilds", SUM, "recovered", "{} pool rebuilds",
            "Compromised pools killed and respawned, both layers."),
    Counter("cache_corrupt", SUM, "recovered",
            "{} corrupt cache entries quarantined",
            "Cache entries quarantined after failing to unpickle."),
    Counter("cache_corrupt_purged", SUM, "recovered", "{} purged",
            "Quarantined files deleted by the bounded-retention sweep."),
)

_BY_NAME: Dict[str, Counter] = {c.name: c for c in COUNTERS}

#: Retired names, still read by the benchmark's tracer: no engine
#: compiles cone schedules or caches chunks, and the kernels are numpy.
RETIRED: Dict[str, object] = {
    "n_cones_compiled": 0,
    "n_chunk_cache_hits": 0,
    "n_chunk_cache_misses": 0,
    "kernel_backend": "numpy",
}


def format_bytes(n: int) -> str:
    """Human-readable byte count (kB below 1 MB, MB above)."""
    if n >= 1e6:
        return f"{n / 1e6:.2f} MB"
    return f"{n / 1e3:.1f} kB"


class RuntimeStats:
    """Counters from :data:`COUNTERS` plus wall-clock spans.

    ``RuntimeStats(name=value, ...)`` starts from the table defaults with
    the given values added.  Counters change only through :meth:`add` and
    :meth:`merge`; reading one is a plain attribute read.
    """

    __slots__ = ("_values", "_spans", "_stack")

    def __init__(self, **values: int) -> None:
        self._values: Dict[str, int] = {c.name: c.default for c in COUNTERS}
        #: path -> [seconds, entries]
        self._spans: Dict[str, List] = {}
        self._stack: List[str] = []
        for name, value in values.items():
            self.add(name, value)

    def __getattr__(self, name: str):
        if not name.startswith("_"):
            for source in (self._values, RETIRED):
                if name in source:
                    return source[name]
        raise AttributeError(
            f"{type(self).__name__!r} has no counter {name!r}"
        )

    # -- counters --------------------------------------------------------
    def add(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a ``sum`` counter, or raise a ``max`` gauge to it."""
        if _BY_NAME[name].kind == SUM:
            self._values[name] += n
        elif n > self._values[name]:
            self._values[name] = n

    def merge(self, other: "RuntimeStats") -> None:
        """Fold ``other`` in: counters by kind, spans under the open path."""
        for name, value in other._values.items():
            self.add(name, value)
        prefix = "".join(f"{name}/" for name in self._stack)
        for path, (seconds, count) in other._spans.items():
            entry = self._spans.setdefault(prefix + path, [0.0, 0])
            entry[0] += seconds
            entry[1] += count

    def copy(self) -> "RuntimeStats":
        out = RuntimeStats()
        out.merge(self)
        return out

    def delta(self, since: "RuntimeStats") -> "RuntimeStats":
        """What was recorded after the ``since`` snapshot (a :meth:`copy`).

        Counters and spans subtract; gauges keep their current value,
        which merging by maximum makes exact.
        """
        out = RuntimeStats()
        for c in COUNTERS:
            value = self._values[c.name]
            if c.kind == SUM:
                value -= since._values[c.name]
            out._values[c.name] = value
        for path, (seconds, count) in self._spans.items():
            old_seconds, old_count = since._spans.get(path, (0.0, 0))
            if count > old_count:
                out._spans[path] = [seconds - old_seconds, count - old_count]
        return out

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block under ``<open path>/name``."""
        self._stack.append(name)
        entry = self._spans.setdefault("/".join(self._stack), [0.0, 0])
        start = time.perf_counter()
        try:
            yield
        finally:
            entry[0] += time.perf_counter() - start
            entry[1] += 1
            self._stack.pop()

    # -- output ----------------------------------------------------------
    def report(self) -> dict:
        """Every counter and span, JSON-ready."""
        return {
            "counters": dict(self._values),
            "spans": {
                path: {"seconds": seconds, "count": count}
                for path, (seconds, count) in self._spans.items()
            },
        }

    def summary(self) -> str:
        """One line of counters, then the span tree.

        A section prints when any of its counters left its default: all
        of its ``sum`` counters (zeros say "none of this work happened"),
        and those gauges that moved.
        """
        moved = {
            c.section for c in COUNTERS if self._values[c.name] != c.default
        }
        sections: Dict[str, List[str]] = {}
        for c in COUNTERS:
            value = self._values[c.name]
            if c.section in moved and (c.kind == SUM or value != c.default):
                sections.setdefault(c.section, []).append(
                    c.show.format(value, bytes=format_bytes(value))
                )
        lines = ["; ".join(
            f"{section}: {', '.join(items)}"
            for section, items in sections.items()
        ) or "runtime: no work recorded"]
        if self._spans:
            lines.append(f"time: {self._span_tree('')}")
        return "\n".join(lines)

    def _span_tree(self, parent: str) -> str:
        parts = []
        for path, (seconds, count) in self._spans.items():
            head, _, name = path.rpartition("/")
            if head != parent:
                continue
            text = f"{name} {seconds:.3f}s"
            if count > 1:
                text += f" x{count}"
            children = self._span_tree(path)
            parts.append(f"{text} [{children}]" if children else text)
        return ", ".join(parts)


#: Recorder stack behind :func:`current`; the bottom entry is a sink for
#: task functions called outside :func:`recorded`.
_RECORDERS: List[RuntimeStats] = [RuntimeStats()]


def current() -> RuntimeStats:
    """The recorder of the task running in this process."""
    return _RECORDERS[-1]


def recorded(fn: Callable, item) -> Tuple[object, RuntimeStats]:
    """``fn(item)`` under a fresh :func:`current` recorder; returns the
    result and everything the call recorded (a picklable delta)."""
    stats = RuntimeStats()
    _RECORDERS.append(stats)
    try:
        return fn(item), stats
    finally:
        _RECORDERS.pop()
