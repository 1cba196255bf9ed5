"""Execution counters for the simulated cluster.

Every rank accumulates its own :class:`RankMetrics`; after a run they are
merged into a :class:`RunMetrics`.  These counters are *measurements of
the real execution* (bytes actually serialized, messages actually sent,
virtual seconds actually charged) and drive both the figures and the
ablation benchmarks.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields


@dataclass
class RankMetrics:
    """Counters owned by a single rank (single-threaded access)."""

    rank: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    compute_time: float = 0.0
    comm_time: float = 0.0
    idle_time: float = 0.0
    alloc_bytes: int = 0
    gc_time: float = 0.0
    # -- robustness counters (all stay 0 on a fault-free, unlimited run) --
    messages_rejected: int = 0  # sends refused by the runtime's byte cap
    messages_fragmented: int = 0  # oversized sends split into fragments
    fragments_sent: int = 0  # total fragments emitted
    send_retries: int = 0  # retried sends after transient faults
    backoff_time: float = 0.0  # virtual seconds spent in retry backoff
    straggler_time: float = 0.0  # extra compute charged by slow-node faults
    speculations: int = 0  # straggled tasks capped by a backup copy
    faults_delay: int = 0  # injected message delays
    faults_send: int = 0  # injected transient send failures
    faults_crash: int = 0  # injected rank crashes
    faults_straggler: int = 0  # compute intervals hit by a slow node

    def __reduce__(self):
        # by position: a rank process's report carries numbers, not names
        return RankMetrics, _BY_POSITION(self)

    def charge_send(self, nbytes: int, busy: float) -> None:
        self.bytes_sent += nbytes
        self.messages_sent += 1
        self.comm_time += busy

    def charge_recv(self, nbytes: int, busy: float, waited: float) -> None:
        self.bytes_received += nbytes
        self.messages_received += 1
        self.comm_time += busy
        self.idle_time += waited

    def charge_compute(self, dt: float) -> None:
        self.compute_time += dt

    def charge_alloc(self, nbytes: int, gc_dt: float = 0.0) -> None:
        self.alloc_bytes += nbytes
        self.gc_time += gc_dt

    @property
    def faults_injected(self) -> int:
        return (
            self.faults_delay
            + self.faults_send
            + self.faults_crash
            + self.faults_straggler
        )


_BY_POSITION = operator.attrgetter(*(f.name for f in fields(RankMetrics)))


@dataclass
class RunMetrics:
    """Aggregate over all ranks of one SPMD run."""

    per_rank: list[RankMetrics] = field(default_factory=list)

    @property
    def bytes_sent(self) -> int:
        return sum(m.bytes_sent for m in self.per_rank)

    @property
    def messages_sent(self) -> int:
        return sum(m.messages_sent for m in self.per_rank)

    @property
    def compute_time(self) -> float:
        return sum(m.compute_time for m in self.per_rank)

    @property
    def comm_time(self) -> float:
        return sum(m.comm_time for m in self.per_rank)

    @property
    def gc_time(self) -> float:
        return sum(m.gc_time for m in self.per_rank)

    @property
    def alloc_bytes(self) -> int:
        return sum(m.alloc_bytes for m in self.per_rank)

    @property
    def max_compute_time(self) -> float:
        return max((m.compute_time for m in self.per_rank), default=0.0)

    @property
    def messages_rejected(self) -> int:
        return sum(m.messages_rejected for m in self.per_rank)

    @property
    def messages_fragmented(self) -> int:
        return sum(m.messages_fragmented for m in self.per_rank)

    @property
    def fragments_sent(self) -> int:
        return sum(m.fragments_sent for m in self.per_rank)

    @property
    def send_retries(self) -> int:
        return sum(m.send_retries for m in self.per_rank)

    @property
    def backoff_time(self) -> float:
        return sum(m.backoff_time for m in self.per_rank)

    @property
    def straggler_time(self) -> float:
        return sum(m.straggler_time for m in self.per_rank)

    @property
    def speculations(self) -> int:
        return sum(m.speculations for m in self.per_rank)

    @property
    def faults_injected(self) -> int:
        return sum(m.faults_injected for m in self.per_rank)

    @property
    def faults_delay(self) -> int:
        return sum(m.faults_delay for m in self.per_rank)

    @property
    def faults_send(self) -> int:
        return sum(m.faults_send for m in self.per_rank)

    @property
    def faults_crash(self) -> int:
        return sum(m.faults_crash for m in self.per_rank)

    @property
    def faults_straggler(self) -> int:
        return sum(m.faults_straggler for m in self.per_rank)

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault tallies by kind (all zero on a clean run)."""
        return {
            "delay": sum(m.faults_delay for m in self.per_rank),
            "send": sum(m.faults_send for m in self.per_rank),
            "crash": sum(m.faults_crash for m in self.per_rank),
            "straggler": sum(m.faults_straggler for m in self.per_rank),
        }

    def summary(self) -> dict:
        return {
            "ranks": len(self.per_rank),
            "bytes_sent": self.bytes_sent,
            "messages_sent": self.messages_sent,
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "gc_time": self.gc_time,
            "alloc_bytes": self.alloc_bytes,
            "messages_rejected": self.messages_rejected,
            "faults_injected": self.faults_injected,
        }
