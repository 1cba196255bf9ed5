"""Jobs: the unit of work a resident :class:`~repro.service.JobServer`
schedules.

A job is a callable over a :class:`JobContext` -- a freshly constructed
:class:`~repro.runtime.driver.TrioletRuntime` attached to the server's
shared cluster, data plane, and plan cache.  The *handle* returned by
``submit`` is the asynchronous surface: ``status()`` / ``result()`` /
``cancel()``.  Execution is cooperative and deterministic: submitted
jobs run when the server steps its scheduler (``drain()``, or lazily
from ``result()``), in an order that is a pure function of tenant
weights and accumulated virtual usage -- never of wall-clock races.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def finished(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED,
                        JobStatus.CANCELLED)


class JobCancelled(RuntimeError):
    """``result()`` on a job that was cancelled while queued."""


@dataclass
class JobContext:
    """What a job's body receives: the attached runtime plus server
    services.  ``rt`` is private to the job (its meters, sections and
    recovery report are isolated); everything reachable *through* it --
    placement, plans, cluster -- is shared server state."""

    rt: Any
    server: Any = None
    tenant: str | None = None

    def dataset(self, name: str):
        """A dataset registered on the server via ``register_dataset``."""
        if self.server is None:
            raise RuntimeError("no server attached to this job context")
        return self.server.dataset(name)


@dataclass
class JobResult:
    """Where a job's value or error lands.  Owned by the job's
    :class:`JobHandle`: a result lives exactly as long as somebody holds
    the handle, never as long as the server."""

    value: Any = None
    error: BaseException | None = None


@dataclass
class JobRecord:
    """One submitted job's ledger entry (owned by the server, for the
    server's lifetime -- so it keeps names, times and metrics, and lets
    go of the job's closure and result the moment the job is over)."""

    seq: int
    name: str
    tenant: str
    #: the job body and the handle's result slot; both ``None`` once the
    #: job has finished (see :meth:`release`)
    fn: Callable[[JobContext], Any] | None
    result: JobResult | None
    costs: Any = None
    faults: Any = None
    recovery: Any = None
    budget: Any = None
    status: JobStatus = JobStatus.PENDING
    #: server virtual time at submission / dispatch / completion
    submit_vtime: float = 0.0
    start_vtime: float | None = None
    finish_vtime: float | None = None
    #: per-job isolated accounting: visits, virtual seconds, shipped
    #: bytes, plan-cache and data-plane deltas, recovery report
    metrics: dict = field(default_factory=dict)

    @property
    def latency(self) -> float | None:
        """Virtual seconds from submission to completion (queue + run)."""
        if self.finish_vtime is None:
            return None
        return self.finish_vtime - self.submit_vtime

    def release(self) -> None:
        """The job is over: let go of its closure and its result."""
        self.fn = None
        self.result = None


class JobHandle:
    """Asynchronous submission handle: the caller's view of one job."""

    def __init__(self, server, record: JobRecord):
        self._server = server
        self._record = record
        self._result = record.result

    @property
    def name(self) -> str:
        return self._record.name

    @property
    def tenant(self) -> str:
        return self._record.tenant

    def status(self) -> JobStatus:
        return self._record.status

    def done(self) -> bool:
        return self._record.status.finished()

    def result(self) -> Any:
        """The job's value, running the server's queue as needed.

        Jobs ahead of this one in fair-share order run first -- calling
        ``result()`` never jumps the queue.  Raises the job's failure
        (:class:`~repro.runtime.recovery.JobFailure` subclasses pass
        through untranslated) or :class:`JobCancelled`.
        """
        rec = self._record
        self._server._run_until(rec)
        if rec.status is JobStatus.DONE:
            return self._result.value
        if rec.status is JobStatus.CANCELLED:
            raise JobCancelled(f"job {rec.name!r} was cancelled")
        assert self._result.error is not None
        raise self._result.error

    def cancel(self) -> bool:
        """Withdraw a still-queued job.  Returns False once it ran."""
        return self._server._cancel(self._record)

    @property
    def latency(self) -> float | None:
        return self._record.latency

    @property
    def metrics(self) -> dict:
        return dict(self._record.metrics)

    def __repr__(self) -> str:
        r = self._record
        return (f"JobHandle({r.name!r}, tenant={r.tenant!r}, "
                f"status={r.status.value})")
