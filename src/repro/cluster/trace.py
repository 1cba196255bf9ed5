"""Communication event tracing for the simulated cluster.

When enabled (``run_spmd(..., trace=True)``), every send and receive is
recorded with its virtual timestamp, endpoints, tag and byte count.
Traces make the virtual timeline inspectable: per-rank and per-kind
views, and ``repro.obs.export.check_event_causality`` over
``[e.as_dict() for e in log.events]`` (a receive never completes before
its matching send departs).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field


#: Event kinds beyond plain "send"/"recv": fault injection and recovery
#: stamps (``peer`` is -1 when there is no other endpoint).
FAULT_EVENT_KINDS = (
    "message_rejected",  # send refused by the runtime's message-byte cap
    "fragmented",  # oversized send split into limit-sized fragments
    "send_fault",  # injected transient send failure
    "send_retry",  # a retried send after backoff
    "delay_spike",  # injected in-flight message delay
    "rank_crash",  # injected rank crash (RankFailure raised)
    "rank_failed",  # a rank left the run with an exception
    "speculation",  # straggled task capped by a backup copy
)


@dataclass(frozen=True)
class CommEvent:
    """One traced communication or fault/recovery event."""

    kind: str  # "send" | "recv" | one of FAULT_EVENT_KINDS
    time: float  # virtual time at completion of the operation
    rank: int  # the rank performing the operation
    peer: int  # the other endpoint (-1 when not applicable)
    tag: int
    nbytes: int

    def as_dict(self) -> dict:
        """Plain-dict form (what the observability layer absorbs)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "rank": self.rank,
            "peer": self.peer,
            "tag": self.tag,
            "nbytes": self.nbytes,
        }

    def is_fault(self) -> bool:
        """An endpoint-less fault/recovery stamp (per-rank fault lane)."""
        return self.kind in FAULT_EVENT_KINDS and self.peer < 0


@dataclass
class TraceLog:
    """Thread-safe append-only event log shared by all ranks of a run."""

    events: list[CommEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, event: CommEvent) -> None:
        with self._lock:
            self.events.append(event)

    def for_rank(self, rank: int) -> list[CommEvent]:
        return sorted(
            (e for e in self.events if e.rank == rank), key=lambda e: e.time
        )

    def of_kind(self, kind: str) -> list[CommEvent]:
        """All events of one kind (e.g. ``"message_rejected"``)."""
        return sorted(
            (e for e in self.events if e.kind == kind), key=lambda e: e.time
        )

    def fault_events(self) -> list[CommEvent]:
        """Every injected-fault / recovery event, time-ordered."""
        return sorted(
            (e for e in self.events if e.kind in FAULT_EVENT_KINDS),
            key=lambda e: e.time,
        )
