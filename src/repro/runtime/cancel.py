"""Cooperative cancellation and graceful-shutdown signals.

Long-running work in this repo — exploration loops, supervised pool
dispatch — is made interruptible *cooperatively*: a
:class:`CancelToken` is threaded through the layers and checked at safe
boundaries (loop iterations, dispatch rounds), never by killing threads
mid-computation.  That keeps every interruption point a place where the
determinism contract holds: an interrupted exploration can flush a
checkpoint whose resume is byte-identical to the uninterrupted run
(DESIGN.md "Fault tolerance").  A cancelled token raises
:class:`~repro.errors.ShutdownRequested` at its next check.

:class:`ShutdownGuard` is the signal-handling end: it installs
SIGINT/SIGTERM handlers that cancel a token instead of letting the
default handler kill the process with pools still alive and checkpoints
unflushed.  ``blasys run`` and ``blasys compare`` route through it, so
"no leaked workers on Ctrl-C" holds for every CLI run.
"""

from __future__ import annotations

import signal
import threading
from typing import Optional

from ..errors import ShutdownRequested


class CancelToken:
    """A cooperative cancellation flag.

    The token is sticky: once cancelled, every subsequent :meth:`check`
    raises :class:`~repro.errors.ShutdownRequested` with the first
    cancellation's reason.  Setting the flag is one attribute store and
    takes no lock, so a signal handler may cancel a token that the code
    it interrupted is checking (a lock held by :meth:`check` would
    deadlock that handler).
    """

    def __init__(self) -> None:
        self._reason: Optional[str] = None

    def cancel(self, reason: str) -> None:
        """Cancel the token; the first cancellation wins."""
        if self._reason is None:
            self._reason = reason

    @property
    def cancelled(self) -> bool:
        """True once cancelled (without raising)."""
        return self._reason is not None

    def check(self) -> None:
        """Raise :class:`~repro.errors.ShutdownRequested` if cancelled."""
        reason = self._reason
        if reason is not None:
            raise ShutdownRequested(reason)


class ShutdownGuard:
    """Scoped SIGINT/SIGTERM handlers that cancel a token gracefully.

    Used as a context manager around interruptible work::

        token = CancelToken()
        with ShutdownGuard(token):
            explore(circuit, config, cancel=token)

    The handler only flips the token — the work itself stops at its next
    cooperative check, flushes its checkpoint, and unwinds through the
    normal ``finally`` blocks (pool close, cache flush), so no worker
    processes leak.  A second signal while already shutting down falls
    through to the previous handler (typically the interpreter default),
    so a stuck run can still be killed the hard way.

    Handlers are restored on exit.  Installation is a no-op off the main
    thread (CPython restricts ``signal.signal`` to it).
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, token: CancelToken) -> None:
        self.token = token
        self.signum: Optional[int] = None
        self._previous: dict = {}
        self._installed = False

    def _handler(self, signum, frame) -> None:
        if self.token.cancelled:
            previous = self._previous.get(signum)
            if callable(previous):
                previous(signum, frame)
            return
        self.signum = signum
        name = signal.Signals(signum).name
        self.token.cancel(
            f"received {name}; finishing the current step, flushing "
            "checkpoints and closing worker pools"
        )

    def install(self) -> "ShutdownGuard":
        if threading.current_thread() is not threading.main_thread():
            return self  # signal API is main-thread-only; run unguarded
        for signum in self.SIGNALS:
            self._previous[signum] = signal.signal(signum, self._handler)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
        self._installed = False

    def __enter__(self) -> "ShutdownGuard":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
