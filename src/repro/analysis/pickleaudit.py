"""Shard-boundary pickle-safety auditor.

Everything crossing the :class:`ProcessShardExecutor` boundary —
:class:`StreamContext` (shipped once per worker) and :class:`ScanShard`
/ :class:`ShardOutcome` (shipped per task) — must pickle cleanly and
must not smuggle mutable shared state into workers.  This module
enforces that two ways (DESIGN.md "Static contracts: shard
pickle-safety"):

* :func:`audit_payload_class` — a static walk over a payload class's
  dataclass field annotations, rejecting types that cannot pickle
  (callables/closures, generators, locks, open handles, modules) or
  that would share mutable state by reference.  The linter runs this
  over ``SHARD_PAYLOAD_CLASSES`` as the ``shard-pickle`` rule.
* :func:`audit_payload` — a runtime deep walk over a payload
  *instance*, used by the executor under ``REPRO_SANITIZE=1`` to catch
  dynamically injected members (a lambda stuffed into a field typed
  ``object``) that no static check can see.
"""

from __future__ import annotations

import dataclasses
import io
import threading
import types
import typing
from dataclasses import dataclass
from typing import Any, Iterator, List, Set, Tuple

from ..errors import ContractViolation

#: Annotation head names that cannot survive (or must not cross) the
#: process boundary.  Matched against the unsubscripted origin of each
#: dataclass field annotation.
_BANNED_ANNOTATION_NAMES = {
    "Callable",
    "callable",
    "function",
    "lambda",
    "Generator",
    "Iterator",
    "AsyncGenerator",
    "Coroutine",
    "IO",
    "TextIO",
    "BinaryIO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "Thread",
    "Queue",
    "ModuleType",
    "memoryview",
}

#: Runtime types rejected by the instance walk.
_BANNED_INSTANCE_TYPES: Tuple[type, ...] = (
    types.GeneratorType,
    types.AsyncGeneratorType,
    types.CoroutineType,
    types.ModuleType,
    io.IOBase,
    memoryview,
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Event,
    threading.Condition,
    threading.Thread,
)


@dataclass(frozen=True)
class AuditProblem:
    """One payload violation: where it is and why it cannot ship."""

    location: str
    message: str
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.location}: {self.message}"


def _annotation_names(annotation: Any) -> Iterator[str]:
    """All head names reachable in an annotation (handles subscripts)."""
    if annotation is None:
        return
    origin = typing.get_origin(annotation)
    if origin is not None:
        name = getattr(origin, "__name__", None) or getattr(
            origin, "_name", None
        )
        if name:
            yield str(name)
        for arg in typing.get_args(annotation):
            yield from _annotation_names(arg)
        return
    name = getattr(annotation, "__name__", None)
    if name:
        yield str(name)
    elif isinstance(annotation, str):
        # Stringized annotations (``from __future__ import annotations``):
        # match on the raw head token(s).
        for token in (
            annotation.replace("[", " ")
            .replace("]", " ")
            .replace(",", " ")
            .replace('"', " ")
            .replace("'", " ")
            .split()
        ):
            yield token.split(".")[-1]


def audit_payload_class(cls: type) -> List[AuditProblem]:
    """Statically audit a shard payload class's field annotations.

    Rejects module-nested classes (unpicklable by qualname) and any
    dataclass field whose annotation names a banned type.  Fields typed
    ``object``/``Any`` pass here — the runtime walk covers them.
    """
    problems: List[AuditProblem] = []
    if "<locals>" in getattr(cls, "__qualname__", ""):
        problems.append(
            AuditProblem(
                location=cls.__qualname__,
                message="payload class is function-local — not picklable "
                "by qualified name",
            )
        )
    if not dataclasses.is_dataclass(cls):
        problems.append(
            AuditProblem(
                location=cls.__name__,
                message="shard payloads must be module-level dataclasses "
                "with auditable fields",
            )
        )
        return problems
    for field in dataclasses.fields(cls):
        banned = set(_annotation_names(field.type)) & _BANNED_ANNOTATION_NAMES
        if banned:
            problems.append(
                AuditProblem(
                    location=f"{cls.__name__}.{field.name}",
                    message=(
                        "field annotation names unpicklable/shared type(s) "
                        + ", ".join(sorted(banned))
                    ),
                )
            )
        if field.default_factory is not dataclasses.MISSING and (
            field.default_factory in (list, dict, set)
        ):
            # Fine for pickling but a red flag for a frozen payload:
            # per-instance mutable state crossing the boundary.
            problems.append(
                AuditProblem(
                    location=f"{cls.__name__}.{field.name}",
                    message="mutable default_factory on a shard payload "
                    "field — prefer immutable tuples",
                )
            )
    return problems


def _walk_instance(
    obj: Any, location: str, seen: Set[int]
) -> Iterator[AuditProblem]:
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, _BANNED_INSTANCE_TYPES):
        yield AuditProblem(
            location=location,
            message=f"unpicklable member of type {type(obj).__name__}",
        )
        return
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        qualname = getattr(obj, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            yield AuditProblem(
                location=location,
                message=f"closure/lambda {qualname!r} cannot cross the "
                "shard boundary",
            )
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _walk_instance(value, f"{location}[{key!r}]", seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, value in enumerate(obj):
            yield from _walk_instance(value, f"{location}[{i}]", seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from _walk_instance(
                getattr(obj, field.name), f"{location}.{field.name}", seen
            )


def audit_payload(
    obj: Any, what: str = "payload", strict: bool = True
) -> List[AuditProblem]:
    """Deep-walk a payload instance; raise (strict) or return problems.

    Used by the executor under sanitize mode before shipping contexts
    and shards to the pool — a dynamically injected closure, generator,
    lock, or open handle raises :class:`ContractViolation` at submit
    time instead of a cryptic pickling error (or silent state sharing)
    inside the pool machinery.
    """
    problems = list(_walk_instance(obj, what, set()))
    if problems and strict:
        detail = "; ".join(str(p) for p in problems[:5])
        raise ContractViolation(
            f"shard payload audit failed for {what}: {detail} "
            "(DESIGN.md 'Static contracts: shard pickle-safety')"
        )
    return problems
