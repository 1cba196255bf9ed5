"""Fault tolerance for the Triolet runtime (policy + accounting).

The cluster substrate (:mod:`repro.cluster.faults`) *injects* faults;
this module decides what the runtime does about them:

* **retry** -- transient send failures are retried with capped
  exponential backoff charged to the sender's virtual clock;
* **re-execution** -- when an injected :class:`~repro.cluster.faults.
  RankFailure` kills a rank mid-section, the survivors keep the partials
  they finished and the driver re-partitions only the blocks nobody
  holds across them.  The paper's sliceable data sources (§3.5) make
  this cheap to express: any sub-block of a section can be re-extracted
  and shipped on its own, no checkpointing required.  A kind that cannot
  finish from partials (ordered reduces, stencil sweeps) re-executes the
  whole section, which is the same thing with nothing held;
* **graceful degradation** -- a message rejected by the runtime's
  byte cap (:class:`~repro.cluster.limits.BufferOverflowError`) is
  fragmented into limit-sized pieces instead of failing the run.  The
  Eden baseline installs no policy, so it keeps failing exactly as in
  Fig. 5;
* **speculation** -- a straggled task overrunning its ``task_timeout``
  is capped by a backup copy on a healthy core (Hadoop-style);
* **elastic shrink** -- a *permanent* rank loss
  (:class:`~repro.cluster.faults.RankLoss`) shrinks the machine: the
  data plane renumbers surviving shards and absorbs the lost rank's
  partition through the weighted-bounds migration path, and every later
  section runs degraded on the survivors;
* **failure taxonomy & budgets** -- when the runtime gives up, the
  terminal error is classified (:class:`TransientFault` /
  :class:`PermanentFault` / :class:`BudgetExhausted`), and an optional
  :class:`FailureBudget` bounds the whole *job*: a virtual-time
  deadline, a job-wide re-execution budget, and a cap on absorbed rank
  losses.

Every decision is deterministic: backoffs are a pure function of the
attempt number, re-execution of the re-sliced sections recomputes the
same numbers, and the added virtual time is reported, not hidden.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.cluster.faults import RankFailure, TransientSendError
from repro.cluster.metrics import RunMetrics

__all__ = [
    "RecoveryPolicy",
    "RecoveryReport",
    "DEFAULT_RECOVERY",
    "NO_RECOVERY",
    "FailureBudget",
    "JobFailure",
    "TransientFault",
    "PermanentFault",
    "BudgetExhausted",
    "classify_failure",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the runtime is allowed to do when a fault fires.

    The policy is consulted *only* when a fault or limit actually fires,
    so installing one on a fault-free run leaves the virtual timeline
    bit-identical (the zero-cost-when-disabled guarantee).
    """

    #: retries per send after a transient failure before giving up
    max_retries: int = 4
    #: first backoff (virtual seconds); doubles per attempt
    backoff_base: float = 1e-4
    #: backoff ceiling (virtual seconds)
    backoff_cap: float = 5e-3
    #: fragment messages rejected by the runtime's byte cap
    fragment: bool = True
    #: virtual seconds a straggled task may overrun its normal duration
    #: before a speculative backup copy caps it; ``None`` disables
    task_timeout: float | None = 0.05
    #: how many times a distributed section may be re-executed after
    #: rank crashes before the failure is propagated
    max_reexecutions: int = 2
    #: on a *permanent* rank loss, shrink the data plane (survivors keep
    #: their shards, the lost shard re-materializes from lineage) instead
    #: of dropping all placement and re-shipping everything
    lineage_recovery: bool = True

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff for 0-based *attempt*."""
        return min(self.backoff_base * (2.0**attempt), self.backoff_cap)


#: The Triolet runtime's default posture: retry, fragment, speculate.
DEFAULT_RECOVERY = RecoveryPolicy()

#: Explicitly no tolerance (the Eden posture, for ablations).
NO_RECOVERY: RecoveryPolicy | None = None


# -- failure taxonomy --------------------------------------------------------


class JobFailure(RuntimeError):
    """Base of the structured failure taxonomy.

    When the runtime exhausts its tolerance it raises (or chains) one of
    the three leaf classes so callers can branch on *why* the job died
    rather than on substrate exception types.  ``kind`` is the stable
    string surfaced through :attr:`RecoveryReport.failure`.
    """

    kind = "unknown"


class TransientFault(JobFailure):
    """A retryable fault survived every retry (e.g. a send failure burst
    longer than the retry budget).  Rerunning the job could succeed."""

    kind = "transient"


class PermanentFault(JobFailure):
    """A permanent rank loss the runtime could not absorb (no recovery
    policy, no survivors, or re-execution budget exhausted)."""

    kind = "permanent"


class BudgetExhausted(JobFailure):
    """The job-level :class:`FailureBudget` ran out: deadline passed,
    job-wide re-executions spent, or too many rank losses absorbed."""

    kind = "budget"


def classify_failure(exc: BaseException) -> str:
    """Map an escaped exception onto the taxonomy's ``kind`` string."""
    seen = set()
    e: BaseException | None = exc
    while e is not None and id(e) not in seen:
        seen.add(id(e))
        if isinstance(e, JobFailure):
            return e.kind
        if isinstance(e, RankFailure):
            return "permanent" if getattr(e, "permanent", False) else "transient"
        if isinstance(e, TransientSendError):
            return "transient"
        e = e.__cause__ or e.__context__
    return "unknown"


@dataclass
class FailureBudget:
    """Job-wide limits on how much failure a run may absorb.

    All limits are optional (``None`` = unlimited).  The driver charges
    the budget as it recovers; crossing any limit raises
    :class:`BudgetExhausted` instead of recovering further.  ``deadline``
    is in *virtual* seconds of program time.
    """

    deadline: float | None = None
    max_reexecutions: int | None = None
    max_rank_losses: int | None = None
    reexecutions_used: int = 0
    rank_losses_used: int = 0

    def charge_reexecution(self) -> None:
        self.reexecutions_used += 1
        if (
            self.max_reexecutions is not None
            and self.reexecutions_used > self.max_reexecutions
        ):
            raise BudgetExhausted(
                f"job re-execution budget exhausted "
                f"({self.reexecutions_used} > {self.max_reexecutions})"
            )

    def charge_rank_losses(self, n: int) -> None:
        self.rank_losses_used += n
        if (
            self.max_rank_losses is not None
            and self.rank_losses_used > self.max_rank_losses
        ):
            raise BudgetExhausted(
                f"rank-loss budget exhausted "
                f"({self.rank_losses_used} > {self.max_rank_losses})"
            )

    def check_deadline(self, now: float) -> None:
        if self.deadline is not None and now > self.deadline:
            raise BudgetExhausted(
                f"job deadline exceeded: virtual t={now:.6g}s > "
                f"{self.deadline:.6g}s"
            )


@dataclass
class RecoveryReport:
    """What faults a run saw and what recovering from them cost.

    Attached to :class:`~repro.cluster.process.SpmdResult` whenever a
    fault plan or recovery policy is installed, and accumulated across
    sections on :class:`~repro.runtime.driver.TrioletRuntime`.
    """

    #: injected faults by kind: delay / send / crash / straggler
    faults: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    backoff_time: float = 0.0
    reexecuted_chunks: int = 0
    #: blocks whose partial a survivor of a failed attempt kept, so the
    #: retry did not compute them again (0: everything was re-executed)
    salvaged_chunks: int = 0
    rejected_messages: int = 0
    fragmented_messages: int = 0
    fragments_sent: int = 0
    speculations: int = 0
    straggler_time: float = 0.0
    #: virtual seconds of attempts that did not complete the section, plus
    #: re-execution backoff -- part of that work may be kept, see
    #: ``salvaged_chunks``
    added_time: float = 0.0
    #: data-plane bytes shipped again because a crash invalidated
    #: resident placement (recovery traffic, not steady-state traffic)
    reshipped_bytes: int = 0
    #: section execution attempts (1 = no re-execution was needed)
    attempts: int = 1
    #: permanent rank losses absorbed by elastic shrink
    rank_losses: int = 0
    #: lost shards re-materialized by replaying their lineage chain
    lineage_replays: int = 0
    #: bytes of those replays (the selective part of reshipped_bytes)
    replayed_bytes: int = 0
    #: boundary migrations planned to absorb lost ranks' partitions
    shrink_migrations: int = 0
    shrink_migrated_bytes: int = 0
    #: section outputs written to the simulated durable store
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    #: sections restored from the durable store instead of re-running
    restores: int = 0
    restored_bytes: int = 0
    #: virtual seconds spent on durable-store writes and reads
    checkpoint_time: float = 0.0
    #: terminal classification ("transient" | "permanent" | "budget")
    #: when the job died; ``None`` while it is healthy
    failure: str | None = None

    @classmethod
    def from_run(cls, metrics: RunMetrics) -> "RecoveryReport":
        """Fold one SPMD run's fault counters into a report."""
        return cls(
            faults={k: v for k, v in metrics.fault_counts().items() if v},
            retries=metrics.send_retries,
            backoff_time=metrics.backoff_time,
            rejected_messages=metrics.messages_rejected,
            fragmented_messages=metrics.messages_fragmented,
            fragments_sent=metrics.fragments_sent,
            speculations=metrics.speculations,
            straggler_time=metrics.straggler_time,
        )

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    def merge(self, other: "RecoveryReport") -> None:
        """Accumulate *other* into this report (all counters add up; an
        accumulator should therefore start with ``attempts=0``).

        Field-generic on purpose: an earlier version enumerated counters
        by hand and silently dropped newly added ones, so merged reports
        disagreed with a report over the concatenated runs.  Every
        numeric dataclass field now participates automatically; only the
        fault histogram and the terminal classification need bespoke
        rules (latest non-``None`` classification wins).
        """
        for k, v in other.faults.items():
            self.faults[k] = self.faults.get(k, 0) + v
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.failure is not None:
            self.failure = other.failure

    def describe(self) -> str:
        """Human-readable summary (used by examples and reports)."""
        fault_str = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.faults.items()))
            or "none"
        )
        lines = [
            f"faults injected: {fault_str}",
            f"send retries: {self.retries} "
            f"(backoff {self.backoff_time * 1e3:.3f}ms)",
            f"re-executed chunks: {self.reexecuted_chunks} "
            f"over {self.attempts} attempt(s), "
            f"{self.salvaged_chunks} kept from failed attempts",
            f"data-plane bytes re-shipped for recovery: "
            f"{self.reshipped_bytes:,}",
            f"permanent rank losses absorbed: {self.rank_losses} "
            f"(lineage replays: {self.lineage_replays}, "
            f"{self.replayed_bytes:,} bytes; shrink migrations: "
            f"{self.shrink_migrations}, {self.shrink_migrated_bytes:,} bytes)",
            f"checkpoints written/restored: {self.checkpoints}"
            f"/{self.restores} ({self.checkpoint_bytes:,}"
            f"/{self.restored_bytes:,} bytes, "
            f"{self.checkpoint_time * 1e3:.3f}ms)",
            f"messages rejected/fragmented: {self.rejected_messages}/"
            f"{self.fragmented_messages} ({self.fragments_sent} fragments)",
            f"speculative backups: {self.speculations} "
            f"(straggler time {self.straggler_time * 1e3:.3f}ms)",
            f"virtual time of failed attempts + backoff: "
            f"{self.added_time * 1e3:.3f}ms (kept work included)",
        ]
        if self.failure is not None:
            lines.append(f"job failed: {self.failure}")
        return "\n".join(lines)


#: What ``RecoveryReport.merge`` adds up: all but the histogram and failure.
_SUMMED = tuple(f.name for f in fields(RecoveryReport)
                if f.name not in ("faults", "failure"))
