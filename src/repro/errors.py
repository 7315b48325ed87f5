"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid netlist operations."""


class SimulationError(ReproError):
    """Raised when simulation inputs do not match the circuit."""


class SynthesisError(ReproError):
    """Raised when logic synthesis or technology mapping fails."""


class FactorizationError(ReproError):
    """Raised for invalid Boolean matrix factorization requests."""


class DecompositionError(ReproError):
    """Raised when circuit decomposition cannot satisfy its constraints."""


class ExplorationError(ReproError):
    """Raised when design-space exploration is misconfigured."""


class ParseError(ReproError):
    """Raised when an interchange file (e.g. BLIF) cannot be parsed."""


class ShardFailure(ReproError):
    """Raised when a supervised shard or task fails permanently.

    The supervised pools (:class:`~repro.runtime.parallel.PoolSupervisor`)
    retry infrastructure faults — a dead or hung worker, a broken pool,
    an injected fault — and then re-run the item in-process; when the
    in-process fallback *also* fails, the failure propagates as this
    exception.  Any other exception raised in a worker is a bug and
    raises this at once, unretried.  Either way it carries the item
    index and the formatted worker traceback, so the root cause is never
    lost behind the retry machinery.
    """


class WorkerTimeout(ReproError):
    """Raised (internally) when a worker exceeds its attempt timeout.

    A hung worker can no longer block a run forever: the supervisor
    times the attempt out, terminates and respawns the compromised pool
    (bounded by the respawn budget), and retries or falls back to
    in-process execution.  Instances surface to callers only inside a
    :class:`ShardFailure` chain.
    """


class CheckpointError(ReproError):
    """Raised when an exploration checkpoint cannot be loaded or applied.

    Covers unreadable/corrupt checkpoint files, format-version mismatches,
    and resuming against a different circuit or search configuration than
    the one that wrote the checkpoint (fingerprint mismatch — see
    :mod:`repro.runtime.checkpoint`).
    """


class FaultSpecError(ReproError):
    """Raised for malformed ``REPRO_FAULTS`` / ``--faults`` specs."""


class ShutdownRequested(ReproError):
    """Raised inside in-flight work when a graceful shutdown begins.

    SIGTERM/SIGINT during a CLI run (see
    :class:`~repro.runtime.cancel.ShutdownGuard`) cancels outstanding
    work with this exception; the exploration loop flushes a final
    checkpoint before letting it propagate, so an interrupted run
    resumes byte-identically with ``--resume``.
    """


class ContractViolation(ReproError):
    """Raised when a runtime contract check fails.

    The sanitizer mode (``REPRO_SANITIZE=1`` / ``ExplorerConfig.sanitize``,
    see :mod:`repro.analysis.sanitize`) turns documented invariants — the
    tail-bit mask on packed arrays at engine boundaries, pickle-safety of
    shard payloads — into immediate tracebacks instead of silent
    downstream corruption.  (Aliasing violations surface as numpy
    ``ValueError: assignment destination is read-only`` on the frozen
    array itself.)
    """
