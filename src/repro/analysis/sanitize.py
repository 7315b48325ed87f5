"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The engines document two invariants that plain runs only *assume*
(DESIGN.md "Static contracts"):

* **cache aliasing** — arrays handed out by the seed/index and
  committed-table-transpose caches, :class:`QoREvaluator`'s rebased
  partials, and :class:`ProfileCache` payloads are shared state; callers
  must treat them as read-only and ``.copy()`` before mutating.
* **tail-bit mask** — packed arrays crossing engine boundaries as window
  or seed values have their tail bits (beyond ``n_samples``) masked to
  zero, so valid-bit comparisons and canonical partial sums see no
  garbage.

Sanitize mode turns both into immediate tracebacks: shared arrays are
frozen (``flags.writeable = False``) so an aliasing write raises at the
write site, and tail masks are asserted at hand-off points so a missing
``mask_tail_words`` raises at the boundary rather than corrupting QoR
values three layers downstream.

The mode is off by default (freezing and asserting cost a little on hot
paths) and resolves per evaluator from ``ExplorerConfig.sanitize`` when
set, else the ``REPRO_SANITIZE`` environment variable.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ..errors import ContractViolation

#: Environment toggle: "1"/"true"/"yes"/"on" (case-insensitive) enable.
SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the sanitizer flag: explicit override, else environment."""
    if override is not None:
        return bool(override)
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` itself read-only (in place) and return it.

    Use for arrays the owner retains and never writes again (cache
    entries, exact outputs, packed stimulus).  Writers that aliased the
    array get ``ValueError: assignment destination is read-only``.
    """
    arr.flags.writeable = False
    return arr


def frozen_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the base stays writable.

    Use to hand out an array callers must not write without freezing
    the owner's copy (e.g. ``IncrementalEvaluator.exact_outputs``).
    """
    view = arr.view()
    view.flags.writeable = False
    return view


def freeze_payload(obj, _seen: Optional[set] = None):
    """Recursively freeze every ndarray reachable from ``obj``.

    Walks dicts, lists, tuples, sets, and dataclass-like objects (via
    ``__dict__``).  Returns ``obj`` for call-site convenience.  Used on
    :class:`ProfileCache` payloads so cached profiling results — shared
    across windows with identical content keys — cannot be mutated by
    one consumer under another's feet.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return obj
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        freeze(obj)
    elif isinstance(obj, dict):
        for value in obj.values():
            freeze_payload(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            freeze_payload(value, _seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            freeze_payload(value, _seen)
    return obj


def assert_tail_clean(words: np.ndarray, n_samples: int, what: str) -> None:
    """Raise :class:`ContractViolation` if tail bits past ``n_samples`` set.

    ``words`` is a packed uint64 array whose last axis is the word axis;
    only the final word can carry tail bits.  Matches the mask layout of
    ``repro.core.bmf.packed.mask_tail_words``.
    """
    tail = n_samples % 64
    if tail == 0 or words.size == 0:
        return
    last = np.asarray(words)[..., -1]
    garbage = last & ~np.uint64((1 << tail) - 1)
    if np.any(garbage):
        raise ContractViolation(
            f"tail-bit invariant violated in {what}: bits past "
            f"n_samples={n_samples} are set (DESIGN.md 'Tail-bit "
            "invariant') — a mask_tail_words call is missing upstream"
        )
