"""Communication event tracing for the simulated cluster.

When enabled (``run_spmd(..., trace=True)``), every send and receive is
recorded with its virtual timestamp, endpoints, tag and byte count.
Traces make the virtual timeline inspectable -- the timeline renderer
shows per-rank lanes, and tests assert causality invariants (a receive
never completes before its matching send departs).
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

    def describe(self) -> str:
        if self.kind == "send":
            arrow = "->"
        elif self.kind == "recv":
            arrow = "<-"
        else:
            peer = f" (peer {self.peer})" if self.peer >= 0 else ""
            return (
                f"t={self.time * 1e3:10.4f}ms  rank {self.rank} "
                f"[{self.kind}]{peer}  tag={self.tag}  {self.nbytes}B"
            )
        return (
            f"t={self.time * 1e3:10.4f}ms  rank {self.rank} {arrow} "
            f"rank {self.peer}  tag={self.tag}  {self.nbytes}B"
        )


@dataclass
class TraceLog:
    """Thread-safe append-only event log shared by all ranks of a run."""

    events: list[CommEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, event: CommEvent) -> None:
        with self._lock:
            self.events.append(event)

    def sends(self) -> list[CommEvent]:
        return [e for e in self.events if e.kind == "send"]

    def recvs(self) -> list[CommEvent]:
        return [e for e in self.events if e.kind == "recv"]

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


def check_causality(log: TraceLog) -> list[str]:
    """Verify every receive completes no earlier than its send departed.

    Matches sends to receives per (src, dst, tag) channel in FIFO order
    (the channel discipline).  Returns a list of violation descriptions;
    an empty list means the virtual timeline is causally consistent.
    """
    violations: list[str] = []
    channels: dict[tuple[int, int, int], list[CommEvent]] = {}
    for e in sorted(log.sends(), key=lambda e: e.time):
        channels.setdefault((e.rank, e.peer, e.tag), []).append(e)
    matched: dict[tuple[int, int, int], int] = {}
    for r in sorted(log.recvs(), key=lambda e: e.time):
        key = (r.peer, r.rank, r.tag)
        idx = matched.get(key, 0)
        sends = channels.get(key, [])
        if idx >= len(sends):
            violations.append(f"recv with no matching send: {r.describe()}")
            continue
        s = sends[idx]
        matched[key] = idx + 1
        if r.time < s.time:
            violations.append(
                f"recv at {r.time} precedes its send at {s.time}: "
                f"{r.describe()}"
            )
    return violations
