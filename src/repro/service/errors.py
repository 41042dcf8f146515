"""Typed error taxonomy for the EDA-flow service layer.

Every way a request can be refused or a job can die has a **named**
exception carrying an HTTP-flavoured status code and a machine-readable
``code`` slug, so clients (and tests) dispatch on types and never parse
message strings.  :meth:`ServiceError.to_response` renders the
structured error document the in-process API and the CLI print:

.. code-block:: json

    {"error": {"code": "rate_limited", "status": 429,
               "message": "...", "retryable": true,
               "details": {"client": "alice", "retry_after_seconds": 0.5}}}

Three extra exceptions — :class:`JobCancelled`, :class:`JobEvicted` and
:class:`JobTimeout` — are *control flow*, not responses: runners raise
them at cooperative checkpoints and the worker pool converts them into
the ``cancelled`` / ``timed_out`` terminal states instead of error
documents.  :class:`JobEvicted` (a :class:`JobCancelled` subtype) marks
cancellation by an *external* event — an AZ reclaim, a spot storm —
rather than a client request; unlike a client cancel it leaves a
forensic crash dump and is eligible for automatic requeueing.
"""

from __future__ import annotations

from typing import Dict, Type

__all__ = [
    "ServiceError",
    "InvalidRequestError",
    "JobNotFoundError",
    "NotCancellableError",
    "RateLimitedError",
    "QueueFullError",
    "ServiceDrainingError",
    "JobCancelled",
    "JobEvicted",
    "JobTimeout",
    "ERROR_CODES",
]


class ServiceError(Exception):
    """Base class for typed request rejections and lookup failures.

    Subclasses pin ``code`` (a stable slug), ``status`` (the HTTP status
    the error maps to at a transport boundary), and ``retryable``
    (whether backing off and resubmitting can succeed).
    """

    code: str = "service_error"
    status: int = 500
    retryable: bool = False

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details: Dict[str, object] = details

    def to_response(self) -> dict:
        """The structured error document (sorted details, stable keys)."""
        return {
            "error": {
                "code": self.code,
                "status": self.status,
                "message": self.message,
                "retryable": self.retryable,
                "details": {k: self.details[k] for k in sorted(self.details)},
            }
        }


class InvalidRequestError(ServiceError):
    """The request itself is malformed (unknown kind, bad priority...)."""

    code = "invalid_request"
    status = 400


class JobNotFoundError(ServiceError):
    """No job with the given id exists in this service instance."""

    code = "job_not_found"
    status = 404


class NotCancellableError(ServiceError):
    """The job is already terminal; cancellation cannot apply."""

    code = "not_cancellable"
    status = 409


class RateLimitedError(ServiceError):
    """The client exhausted its token bucket; retry after the hint."""

    code = "rate_limited"
    status = 429
    retryable = True


class QueueFullError(ServiceError):
    """Admission refused: the bounded queue is at capacity."""

    code = "queue_full"
    status = 503
    retryable = True


class ServiceDrainingError(ServiceError):
    """The service is draining/shut down and accepts no new work."""

    code = "draining"
    status = 503
    retryable = True


#: Registry of rejection codes -> exception types (stable public map).
ERROR_CODES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        InvalidRequestError,
        JobNotFoundError,
        NotCancellableError,
        RateLimitedError,
        QueueFullError,
        ServiceDrainingError,
    )
}


class JobCancelled(Exception):
    """Control flow: a runner observed its job's cancellation request."""


class JobEvicted(JobCancelled):
    """Control flow: the job was cancelled by an *external* event.

    Raised at cooperative checkpoints once ``Job.external_cancel`` is
    set (a spot reclaim took the worker's capacity, or an outage struck
    the job's zone).  The pool still lands the job in the
    ``cancelled`` terminal state and always releases its slot, but —
    unlike a client cancel — it also writes the per-job crash dump and
    the service may requeue the job.
    """

    def __init__(self, job_id: str, reason: str = "external"):
        super().__init__(job_id)
        self.job_id = job_id
        self.reason = reason


class JobTimeout(Exception):
    """Control flow: a runner observed its per-job deadline had passed."""
