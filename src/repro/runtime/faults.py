"""Deterministic fault injection for chaos-testing the parallel runtime.

The fault-tolerant runtime (supervised shard executor, retrying task
driver, hardened profile cache) is only trustworthy if its failure paths
are *exercised*, deterministically, in CI.  This module provides the
injection side: a :class:`FaultPlan` parsed from a compact spec string
(``REPRO_FAULTS=<spec>`` / ``ExplorerConfig.faults`` / ``--faults``)
that the executor, the profiling task driver, and the profile cache
consult at well-defined decision points.  Injection is fully
deterministic — a clause names exactly which shard/task/scan/attempt it
fires on — so a chaos run's trajectory can be asserted byte-identical to
the fault-free run and its retry/fallback/rebuild counters asserted
equal to what the plan implies.

Spec grammar (DESIGN.md "Fault tolerance")::

    spec    := clause (';' clause)*
    clause  := kind (':' field '=' value (',' field '=' value)*)?
    kind    := 'crash' | 'hang' | 'pool' | 'cache' | 'task'
    value   := integer | '*' | float (``seconds`` only)

Fields per kind (integer fields accept ``*`` = match any):

======  ==============================================  =================
kind    fields (defaults)                               effect
======  ==============================================  =================
crash   shard, attempt (0), scan (``*``)                worker raises
                                                        :class:`InjectedFault`
hang    shard, attempt (0), scan (``*``),               worker sleeps
        seconds (30.0)                                  ``seconds`` before
                                                        running the task
pool    scan                                            simulated
                                                        ``BrokenProcessPool``
                                                        at dispatch time
cache   put                                             corrupt the file of
                                                        the ``put``-th cache
                                                        store (0-based)
task    index, attempt (0)                              profiling-pool task
                                                        raises
                                                        :class:`InjectedFault`
======  ==============================================  =================

A clause whose fields are all concrete fires **exactly once** per plan
instance; a clause containing a wildcard fires on every match.  One plan
instance is shared across the executor, driver, and cache of a run, so
"crash shard 1 on scan 0, attempt 0" means one crash total, not one per
layer.

Example::

    REPRO_FAULTS="crash:shard=0,attempt=0,scan=0;pool:scan=1"

injects one worker crash into shard 0's first attempt of the first
pooled scan and one simulated pool break at the second scan — the run
must still finish with a byte-identical trajectory, one shard retry and
one pool rebuild on the books.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import FaultSpecError

#: Environment variable holding the default fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Default injected hang duration (seconds).  Bounded so a worker the
#: supervisor failed to terminate still exits on its own eventually.
DEFAULT_HANG_SECONDS = 30.0

_KINDS = ("crash", "hang", "pool", "cache", "task")

#: Integer fields accepted per kind (``seconds`` is float, hang only).
_FIELDS = {
    "crash": ("shard", "attempt", "scan"),
    "hang": ("shard", "attempt", "scan"),
    "pool": ("scan",),
    "cache": ("put",),
    "task": ("index", "attempt"),
}

#: Fields that must be present in the clause (no useful default).
_REQUIRED = {
    "crash": ("shard",),
    "hang": ("shard",),
    "pool": ("scan",),
    "cache": ("put",),
    "task": ("index",),
}


class InjectedFault(RuntimeError):
    """The deliberate failure a fault clause raises inside a worker.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it stands in
    for a worker crash, so the supervisor retries it like one.  Any
    other exception raised in a worker is treated as a bug and fails the
    batch at once (:class:`~repro.runtime.parallel.PoolSupervisor`).
    """


def _raise_injected(message: str):
    """Module-level raiser (picklable pool submission target)."""
    raise InjectedFault(message)


@dataclass(frozen=True)
class FaultClause:
    """One parsed fault clause.  ``None`` field values mean ``*``."""

    kind: str
    shard: Optional[int] = None
    attempt: Optional[int] = 0
    scan: Optional[int] = None
    index: Optional[int] = None
    put: Optional[int] = None
    seconds: float = DEFAULT_HANG_SECONDS

    def _concrete(self) -> bool:
        """True when every matched field is pinned (one-shot clause)."""
        return all(
            getattr(self, field) is not None for field in _FIELDS[self.kind]
        )


def _parse_int(kind: str, field: str, raw: str) -> Optional[int]:
    if raw == "*":
        return None
    try:
        return int(raw)
    except ValueError:
        raise FaultSpecError(
            f"fault clause {kind!r}: field {field}={raw!r} is not an "
            "integer or '*'"
        ) from None


class FaultPlan:
    """A parsed, stateful fault plan (see the module docstring).

    Stateful because concrete clauses fire exactly once: the plan tracks
    which clauses already fired, which is what makes expected
    retry/rebuild counters computable from the spec.  Share **one**
    instance per run (``explore()`` parses the spec once and threads the
    instance through every layer).
    """

    def __init__(self, clauses: Tuple[FaultClause, ...], spec: str) -> None:
        self.clauses = tuple(clauses)
        self.spec = spec
        self._fired: set = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec!r})"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; raises :class:`FaultSpecError` on errors."""
        clauses = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, rest = part.partition(":")
            kind = kind.strip()
            if kind not in _KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r}; expected one of {_KINDS}"
                )
            fields: dict = {"kind": kind}
            for pair in rest.split(",") if rest.strip() else []:
                field, sep, raw = (s.strip() for s in pair.partition("="))
                if not sep or not field or not raw:
                    raise FaultSpecError(
                        f"fault clause {kind!r}: malformed field {pair!r} "
                        "(expected field=value)"
                    )
                if field == "seconds" and kind == "hang":
                    try:
                        fields["seconds"] = float(raw)
                    except ValueError:
                        raise FaultSpecError(
                            f"fault clause 'hang': seconds={raw!r} is not "
                            "a number"
                        ) from None
                    continue
                if field not in _FIELDS[kind]:
                    raise FaultSpecError(
                        f"fault clause {kind!r} does not accept field "
                        f"{field!r}; expected {_FIELDS[kind]}"
                    )
                fields[field] = _parse_int(kind, field, raw)
            for req in _REQUIRED[kind]:
                if req not in fields:
                    raise FaultSpecError(
                        f"fault clause {kind!r} requires field {req!r} "
                        "(use '*' to match any)"
                    )
            clauses.append(FaultClause(**fields))
        if not clauses:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        return cls(tuple(clauses), spec)

    # -- matching ------------------------------------------------------
    def _fire(self, pos: int, clause: FaultClause) -> bool:
        if pos in self._fired:
            return False
        if clause._concrete():
            self._fired.add(pos)
        return True

    @staticmethod
    def _field_matches(want: Optional[int], got: int) -> bool:
        return want is None or want == int(got)

    def shard_fault(
        self, scan: int, shard: int, attempt: int
    ) -> Optional[FaultClause]:
        """The crash/hang clause firing for this shard attempt, if any."""
        for pos, c in enumerate(self.clauses):
            if (
                c.kind in ("crash", "hang")
                and self._field_matches(c.shard, shard)
                and self._field_matches(c.attempt, attempt)
                and self._field_matches(c.scan, scan)
                and self._fire(pos, c)
            ):
                return c
        return None

    def pool_break(self, scan: int) -> bool:
        """True when a pool-break clause fires at this scan's dispatch."""
        for pos, c in enumerate(self.clauses):
            if (
                c.kind == "pool"
                and self._field_matches(c.scan, scan)
                and self._fire(pos, c)
            ):
                return True
        return False

    def cache_fault(self, put: int) -> bool:
        """True when the ``put``-th cache store should be corrupted."""
        for pos, c in enumerate(self.clauses):
            if (
                c.kind == "cache"
                and self._field_matches(c.put, put)
                and self._fire(pos, c)
            ):
                return True
        return False

    def task_fault(self, index: int, attempt: int) -> bool:
        """True when this profiling-task attempt should crash."""
        for pos, c in enumerate(self.clauses):
            if (
                c.kind == "task"
                and self._field_matches(c.index, index)
                and self._field_matches(c.attempt, attempt)
                and self._fire(pos, c)
            ):
                return True
        return False


def faults_enabled(
    override: Union[None, str, FaultPlan] = None
) -> Optional[FaultPlan]:
    """Resolve the active fault plan: explicit override, else environment.

    ``override`` may be a spec string (parsed), an existing plan
    (returned as-is, preserving its fired-clause state), or ``None``
    (defer to ``REPRO_FAULTS``).  Returns ``None`` when no faults are
    configured — the runtime's hot paths skip all injection checks.
    """
    if isinstance(override, FaultPlan):
        return override
    if override:
        return FaultPlan.parse(override)
    spec = os.environ.get(FAULTS_ENV, "").strip()
    return FaultPlan.parse(spec) if spec else None
