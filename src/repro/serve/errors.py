"""The service's error vocabulary: typed failures that map to frames.

Everything the resilience layer can do *to* a request -- expire it,
shed it, fail it with a worker fault -- is expressed as a
:class:`ServeError` subclass carrying a stable wire ``code`` and an
HTTP-flavoured ``status``.  The front end
(:mod:`repro.serve.server`) renders any :class:`ServeError` raised out
of the scheduler into an error frame mechanically, so adding a failure
mode never touches the protocol code.

The hierarchy is deliberately small:

* :class:`DeadlineExceeded` -- a request outlived its ``deadline_ms``
  budget (504-style), with :attr:`~DeadlineExceeded.stage` recording
  where it died (``"queued"`` / ``"executing"``).
* :class:`CodelShed` -- the scheduler's CoDel watchdog dropped the
  request from the front of an over-target queue (429-style).
* :class:`QueryExecutionError` -- the executor failed while answering a
  coalesced group (500-style); :attr:`~QueryExecutionError.request_id`
  names the request whose execution raised, so members of a failed
  group are never left with an opaque shared error.  Subclasses
  :class:`RuntimeError` so callers treating executor failures as
  generic runtime faults keep working.
"""

from __future__ import annotations

from typing import Optional


class ServeError(Exception):
    """Base class for typed service-side request failures.

    Attributes:
        status: HTTP-flavoured status the front end reports (e.g. 504).
        code: Stable machine-readable reason for the error frame.
    """

    status: int = 500
    code: str = "internal"


class DeadlineExceeded(ServeError):
    """A request's ``deadline_ms`` budget ran out before it was answered.

    Args:
        message: Human-readable detail.
        stage: Where the deadline fired: ``"queued"`` (still in the
            scheduler queue) or ``"executing"`` (claimed into a group
            but expired before it ran).
    """

    status = 504
    code = "deadline_exceeded"

    def __init__(self, message: str, *, stage: str) -> None:
        super().__init__(message)
        self.stage = stage


class CodelShed(ServeError):
    """The scheduler's watchdog shed this request to protect latency.

    Raised (as a future exception) for requests dropped from the front
    of the queue when the CoDel target is exceeded; the front end
    renders it as a 429 with code ``"codel"`` so clients can tell
    overload sheds from rate-limit sheds.
    """

    status = 429
    code = "codel"


class QueryExecutionError(ServeError, RuntimeError):
    """Executing a request (or its coalesced group) raised unexpectedly.

    Args:
        message: Human-readable detail; names the failing request.
        request_id: The id of the request whose execution raised --
            attached so every member of a failed group learns *which*
            sibling took the group down, not just that something did.
    """

    status = 500
    code = "execution_failed"

    def __init__(self, message: str, *, request_id: Optional[str] = None) -> None:
        super().__init__(message)
        self.request_id = request_id
