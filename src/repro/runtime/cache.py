"""Persistent content-addressed cache for profiling results.

Cache entries are keyed by a SHA-256 hash over a *canonical* serialization
of everything the result depends on — never by file names, window indices,
or other run-local identity.  For window profiling the key material is:

* the window truth table (dtype, shape, raw bytes);
* the WQoR weight vector (or a marker for uniform weighting);
* the profiling parameters (BMF method, algebra, tau sweep, selection
  policy, library name, espresso options, area/macro flags);
* the canonical structure of the window's standalone subcircuit (ops,
  fanins, LUT tables, output wiring — names excluded), because cone and
  exact areas reuse the window's own gates.

Identical windows (e.g. ripple-adder slices) therefore share one entry,
and a threshold sweep or repeated CLI run on the same design hits on every
window.  The key scheme is documented in DESIGN.md; bump
:data:`CACHE_VERSION` whenever profiling output semantics change.

Values are stored as one pickle file per key, written atomically and
durably (temp file + flush + ``fsync`` + ``os.replace``) so concurrent
runs sharing a cache directory never observe torn entries and a crash
mid-write cannot leave one behind on non-atomic filesystems.  Reads are
hardened the other way: any unpickling failure — truncation, garbage
bytes, or a payload referencing classes this build no longer has — is a
cache *miss*, and the offending file is quarantined (renamed to
``*.corrupt``, counted in the ``cache_corrupt`` stat) so it is
diagnosable but never consulted again.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from .stats import RuntimeStats

#: Bumped when cached payload semantics change; part of every key.
#: v2: the packed BMF kernel's canonical `dot(counts, w)` weighted error
#: can differ in the last ulp from v1's row-major matmul sums under
#: non-dyadic WQoR weights, and ASSO gain scoring moved off BLAS — v1
#: payloads are no longer guaranteed byte-identical to fresh computation,
#: and serving them would break the warm == cold determinism invariant.
CACHE_VERSION = b"blasys-profile-v2"


def array_token(arr: Optional[np.ndarray], none: bytes = b"~") -> bytes:
    """Canonical bytes of an array (dtype + shape + data), or ``none``."""
    if arr is None:
        return none
    a = np.ascontiguousarray(arr)
    return repr((a.dtype.str, a.shape)).encode() + a.tobytes()


def canonical_circuit_bytes(circuit) -> bytes:
    """Canonical structural serialization of a circuit.

    Covers ops, fanin wiring, LUT tables, and output order — everything
    that determines simulation and synthesis results.  Node and port
    *names* are deliberately excluded so structurally identical windows
    extracted from different parents (or different indices) collide.
    """
    parts = []
    for node in circuit.nodes:
        table = (
            b""
            if node.table is None
            else np.asarray(node.table, dtype=np.uint8).tobytes()
        )
        fanins = ",".join(str(f) for f in node.fanins)
        parts.append(f"{node.op.value}:{fanins}:".encode() + table)
    parts.append(
        ("out=" + ",".join(str(p.node) for p in circuit.outputs)).encode()
    )
    return b";".join(parts)


class ProfileCache:
    """On-disk pickle store addressed by SHA-256 content keys.

    Attributes:
        stats: This instance's :class:`~repro.runtime.RuntimeStats`:
            ``cache_hits``, ``cache_misses`` (corrupt entries included),
            ``cache_stores``, ``cache_corrupt`` (entries :meth:`get`
            quarantined) and ``cache_corrupt_purged`` (quarantined files
            the retention sweep deleted).  Not persisted.

    Args:
        corrupt_keep: Retention bound on quarantined ``*.pkl.corrupt``
            files.  Each quarantine triggers a sweep that keeps only the
            newest ``corrupt_keep`` files (oldest deleted first, ties
            broken by name so the order is deterministic).  Quarantined
            entries exist purely for post-mortem diagnosis — without a
            bound, a recurring corruption source (bad disk, crashing
            writer) grows the directory without limit.  ``0`` deletes
            quarantined files immediately; ``None`` disables the sweep
            (unbounded, the pre-bound behavior).
        corrupt_max_age_s: Optional age cap — the sweep additionally
            deletes quarantined files whose mtime is older than this
            many seconds, regardless of count.
    """

    def __init__(
        self,
        path,
        sanitize: Optional[bool] = None,
        faults=None,
        corrupt_keep: Optional[int] = 16,
        corrupt_max_age_s: Optional[float] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.stats = RuntimeStats()
        if corrupt_keep is not None and corrupt_keep < 0:
            raise ValueError(
                f"corrupt_keep must be >= 0 or None, got {corrupt_keep}"
            )
        if corrupt_max_age_s is not None and corrupt_max_age_s < 0:
            raise ValueError(
                f"corrupt_max_age_s must be >= 0 or None, "
                f"got {corrupt_max_age_s}"
            )
        self.corrupt_keep = corrupt_keep
        self.corrupt_max_age_s = corrupt_max_age_s
        # Sanitize mode (DESIGN.md "Static contracts"): payloads served
        # by get() have every reachable ndarray frozen, because entries
        # are shared across windows with identical content keys — one
        # consumer mutating a served array would corrupt the others.
        # None defers to the REPRO_SANITIZE environment variable.
        from ..analysis.sanitize import sanitize_enabled
        from .faults import faults_enabled

        self._sanitize = sanitize_enabled(sanitize)
        # Chaos harness (DESIGN.md "Fault tolerance"): a matching `cache`
        # clause overwrites the n-th stored entry with garbage right
        # after the atomic write, exercising the quarantine path end to
        # end.  None defers to REPRO_FAULTS.
        self._faults = faults_enabled(faults)

    @staticmethod
    def key_of(*tokens: bytes) -> str:
        """Hash canonical byte tokens into a hex cache key."""
        digest = hashlib.sha256(CACHE_VERSION)
        for token in tokens:
            digest.update(b"\x00")
            digest.update(token)
        return digest.hexdigest()

    def _file(self, key: str) -> Path:
        return self.path / f"{key}.pkl"

    def get(self, key: str):
        """The stored value for ``key``, or None (corrupt entries = miss).

        Unpickling garbage raises more than ``UnpicklingError``: a
        truncated file raises ``EOFError``, a file whose payload
        references classes/attributes this build no longer defines
        raises ``AttributeError``/``ImportError``, and malformed opcode
        arguments raise ``IndexError``/``ValueError``.  All of them mean
        "this entry is unusable", so all are misses — and the file is
        quarantined to ``<key>.pkl.corrupt`` so the bad bytes stay
        available for diagnosis without ever being consulted again.
        """
        path = self._file(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.add("cache_misses")
            return None
        except (
            EOFError,
            pickle.UnpicklingError,
            AttributeError,
            ImportError,
            IndexError,
            ValueError,
        ):
            self.stats.add("cache_misses")
            self.stats.add("cache_corrupt")
            try:
                os.replace(path, str(path) + ".corrupt")
            except OSError:  # pragma: no cover - racing cleanup
                pass
            self.purge_corrupt()
            return None
        self.stats.add("cache_hits")
        if self._sanitize:
            from ..analysis.sanitize import freeze_payload

            freeze_payload(value)
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` atomically and durably.

        The temp file is fsynced before ``os.replace`` publishes it:
        without the fsync, a crash between the rename and the data
        reaching disk can leave a *named* entry with torn contents on
        journaled-metadata filesystems — exactly the state
        :meth:`get`'s quarantine path exists to survive, but better
        never to create it.
        """
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._file(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self._faults is not None and self._faults.cache_fault(
            self.stats.cache_stores
        ):
            with open(self._file(key), "wb") as fh:
                fh.write(b"\x80\x05garbage: injected cache corruption")
        self.stats.add("cache_stores")

    def purge_corrupt(self) -> int:
        """Apply the quarantine retention bound; returns files deleted.

        Keeps the newest :attr:`corrupt_keep` ``*.pkl.corrupt`` files and
        drops any older than :attr:`corrupt_max_age_s`.  Cleanup order is
        deterministic — oldest mtime first, name as the tie-break — so
        concurrent sweeps of the same directory converge on the same
        survivors.  Quarantined entries are never consulted by
        :meth:`get`; this only bounds their disk/diagnostic footprint.
        """
        if self.corrupt_keep is None and self.corrupt_max_age_s is None:
            return 0
        import time

        entries = []
        for p in self.path.glob("*.pkl.corrupt"):  # contract-ok: listing-order -- sorted below before any decision
            try:
                entries.append((p.stat().st_mtime, p.name, p))
            except OSError:  # pragma: no cover - racing cleanup
                continue
        entries.sort()  # oldest first; name breaks mtime ties
        doomed = []
        if self.corrupt_keep is not None and len(entries) > self.corrupt_keep:
            excess = len(entries) - self.corrupt_keep
            doomed.extend(entries[:excess])
            entries = entries[excess:]
        if self.corrupt_max_age_s is not None:
            horizon = time.time() - self.corrupt_max_age_s
            doomed.extend(e for e in entries if e[0] < horizon)
        purged = 0
        for _, _, p in doomed:
            try:
                p.unlink()
                purged += 1
            except OSError:  # pragma: no cover - racing cleanup
                continue
        self.stats.add("cache_corrupt_purged", purged)
        return purged

    def __len__(self) -> int:
        # Cardinality only — no iteration order reaches any output.
        return sum(1 for _ in self.path.glob("*.pkl"))  # contract-ok: listing-order -- counting entries, order-free
