"""Request and handle types of the serving layer.

A tenant's ``submit()`` returns a :class:`RequestHandle` immediately; the
request itself is resolved later, when the server's event loop admits,
batches and dispatches it on the simulated clock.  Handles are future-like
but synchronous: ``result()`` raises if the request is still pending (the
caller must drive :meth:`CimServer.drain` / :meth:`CimServer.step` first)
— there is no blocking, because simulated time only moves when the event
loop moves it.

State transitions are idempotent-guarded: a handle that has reached a
terminal status (``COMPLETED``/``REJECTED``/``FAILED``) can never be
resolved again — a retry racing a fault abort raises
:class:`~repro.serve.errors.HandleStateError` instead of silently
overwriting the status, the result or the billing timestamps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.codegen.executor import ExecutionReport
from repro.serve.errors import AdmissionError, HandleStateError, ServeError


class RequestStatus(enum.Enum):
    """Lifecycle of one serving request."""

    SUBMITTED = "submitted"   # accepted by submit(), not yet at its arrival time
    QUEUED = "queued"         # admitted into its tenant queue
    COMPLETED = "completed"   # dispatched and finished; result available
    REJECTED = "rejected"     # refused by admission control
    FAILED = "failed"         # dispatched but raised (bad payload, exec error)


#: Statuses a handle can never leave.
TERMINAL_STATUSES = frozenset(
    {RequestStatus.COMPLETED, RequestStatus.REJECTED, RequestStatus.FAILED}
)


@dataclass
class TenantRequest:
    """Internal record of one submitted offload request."""

    seq: int                       # global submission index (tie-breaker)
    tenant: str
    signature: str                 # batch-compatibility key (see batcher)
    program: object                # compiled IR program
    params: Mapping[str, float]
    #: Snapshot of the tenant's data; stationary operands may be read-only
    #: snapshots shared with other requests (see ``ServingLoop._snapshot``).
    arrays: dict[str, np.ndarray]
    arrival_s: float
    #: Execution engine the kernel was compiled for (None = executor default).
    engine: Optional[str] = None
    handle: "RequestHandle" = None  # type: ignore[assignment]

    def sort_key(self) -> tuple[float, int]:
        return (self.arrival_s, self.seq)


@dataclass
class RequestHandle:
    """Caller-facing view of one request's lifecycle and result."""

    request_id: int
    tenant: str
    arrival_s: float
    status: RequestStatus = RequestStatus.SUBMITTED
    reject_reason: Optional[str] = None
    #: Simulated times, filled in as the event loop progresses.
    admitted_s: Optional[float] = None
    dispatched_s: Optional[float] = None
    completed_s: Optional[float] = None
    #: Which dispatch batch served this request and how full it was.
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    #: Fleet tier: device that served the request, execution attempts made
    #: (1 = served first try), and lease migrations after device deaths.
    device_id: Optional[int] = None
    attempts: int = 0
    migrations: int = 0
    #: Execution accounting of this request alone.
    report: Optional[ExecutionReport] = None
    _result: Optional[dict[str, np.ndarray]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Guarded transitions
    # ------------------------------------------------------------------
    def _require_not_terminal(self, target: RequestStatus) -> None:
        if self.status in TERMINAL_STATUSES:
            raise HandleStateError(
                f"request {self.request_id} of tenant {self.tenant!r} is "
                f"already {self.status.value}; cannot transition to "
                f"{target.value} (terminal handles are immutable)"
            )

    def mark_queued(self, admitted_s: float) -> None:
        """SUBMITTED -> QUEUED (admission).  Idempotent-guarded."""
        self._require_not_terminal(RequestStatus.QUEUED)
        self.status = RequestStatus.QUEUED
        self.admitted_s = admitted_s

    def mark_rejected(self, reason: str) -> None:
        """Resolve as REJECTED (admission backpressure / quota)."""
        self._require_not_terminal(RequestStatus.REJECTED)
        self.status = RequestStatus.REJECTED
        self.reject_reason = reason

    def mark_completed(
        self,
        completed_s: float,
        batch_id: int,
        batch_size: int,
        report: ExecutionReport,
        result: dict[str, np.ndarray],
        device_id: Optional[int] = None,
    ) -> None:
        """Resolve as COMPLETED with the result and its bill."""
        self._require_not_terminal(RequestStatus.COMPLETED)
        self.status = RequestStatus.COMPLETED
        self.completed_s = completed_s
        self.batch_id = batch_id
        self.batch_size = batch_size
        self.report = report
        self.device_id = device_id
        self._result = result

    def mark_failed(
        self,
        completed_s: float,
        reason: str,
        batch_id: Optional[int] = None,
        batch_size: Optional[int] = None,
        report: Optional[ExecutionReport] = None,
        device_id: Optional[int] = None,
    ) -> None:
        """Resolve as FAILED (bad payload, execution error, retries spent)."""
        self._require_not_terminal(RequestStatus.FAILED)
        self.status = RequestStatus.FAILED
        self.reject_reason = reason
        self.completed_s = completed_s
        if batch_id is not None:
            self.batch_id = batch_id
        if batch_size is not None:
            self.batch_size = batch_size
        if report is not None:
            self.report = report
        if device_id is not None:
            self.device_id = device_id

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def retries(self) -> int:
        """Execution attempts beyond the first (0 on a fault-free path)."""
        return max(0, self.attempts - 1)

    @property
    def latency_s(self) -> Optional[float]:
        """Arrival-to-completion simulated latency (None until completed)."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.arrival_s

    @property
    def queueing_delay_s(self) -> Optional[float]:
        """Time spent waiting (and batching) before dispatch began."""
        if self.dispatched_s is None:
            return None
        return self.dispatched_s - self.arrival_s

    def result(self) -> dict[str, np.ndarray]:
        """Final arrays of the request's program.

        Raises :class:`AdmissionError` if the request was rejected,
        :class:`ServeError` if its execution failed (bad payload) or if
        it has not been dispatched yet.
        """
        if self.status is RequestStatus.REJECTED:
            raise AdmissionError(
                f"request {self.request_id} of tenant {self.tenant!r} was "
                f"rejected: {self.reject_reason}"
            )
        if self.status is RequestStatus.FAILED:
            raise ServeError(
                f"request {self.request_id} of tenant {self.tenant!r} "
                f"failed: {self.reject_reason}"
            )
        if self.status is not RequestStatus.COMPLETED or self._result is None:
            raise ServeError(
                f"request {self.request_id} is {self.status.value}; drive "
                "CimServer.drain() (or step()) before asking for results"
            )
        return self._result
