"""Section checkpointing into a simulated durable store.

Lineage replay (:mod:`repro.data.lineage`) recovers *data-plane shards*;
checkpoints recover *section outputs*: the value a distributed section
reduced or gathered back to the main rank.  A
:class:`CheckpointPolicy` decides which section outputs are worth
persisting; :meth:`CheckpointConfig.write` serializes the output through
the real wire format (:func:`repro.serial.serialize`, so a restore is
bit-identical by construction), stores the blob in a
:class:`CheckpointStore` keyed by ``(job, section sequence)``, and prices
the write for the virtual clock with a per-rank parallel bandwidth model
-- durability is never free.

Driver-level recovery is restart-from-last-checkpoint: re-run the job
with the same store and every already-checkpointed section returns its
stored output (charged at read cost) instead of executing, so the
restarted run pays only for the sections past the last checkpoint.
:func:`run_restartable` packages the restart loop.

The store is *simulated* durable: it survives runtime teardown (it is
plain driver-side state, deliberately outside the simulated machine),
but the byte costs of reaching it are modeled as if it were a remote
filesystem.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.faults import RankFailure
from repro.obs.spans import active as _obs_active
from repro.runtime.recovery import JobFailure
from repro.serial import SerializationError, deserialize, serialize

__all__ = [
    "CheckpointPolicy",
    "CheckpointStore",
    "CheckpointConfig",
    "run_restartable",
]


@dataclass(frozen=True)
class CheckpointPolicy:
    """Which section outputs to persist, and what touching the durable
    store costs on the virtual clock.

    ``every=N`` checkpoints every Nth distributed section (1 = all);
    ``min_bytes`` skips outputs too small to be worth a durable write.
    The cost model is per-operation latency plus bytes over aggregate
    bandwidth: ranks write their output shares in parallel, so the byte
    term shrinks with the writer count (the read side mirrors it).
    """

    every: int = 1
    min_bytes: int = 0
    #: durable-store bandwidth (bytes per virtual second, per writer)
    bandwidth: float = 2e8
    #: per-operation durable-store latency (virtual seconds)
    latency: float = 5e-4

    def should(self, seq: int, nbytes: int) -> bool:
        return self.every > 0 and seq % self.every == 0 and nbytes >= self.min_bytes

    def write_seconds(self, nbytes: int, writers: int = 1) -> float:
        return self.latency + nbytes / (self.bandwidth * max(1, writers))

    def read_seconds(self, nbytes: int, readers: int = 1) -> float:
        return self.latency + nbytes / (self.bandwidth * max(1, readers))


class CheckpointStore:
    """Simulated durable store: ``(job, section seq) -> serialized blob``.

    Deliberately *outside* the simulated machine, so it survives runtime
    teardown (that is what makes it durable) -- a restarted job passes
    the same store object back in.  Values round-trip through the real
    wire format, so a restored output is bit-identical to the computed
    one and a value the wire cannot carry is skipped, not corrupted.
    """

    def __init__(self):
        self._blobs: dict[tuple[str, int], bytes] = {}
        self.puts = 0
        self.bytes_written = 0
        self.fetches = 0
        self.bytes_read = 0
        self.skipped = 0

    def __len__(self) -> int:
        return len(self._blobs)

    @property
    def bytes_stored(self) -> int:
        return sum(len(b) for b in self._blobs.values())

    def maybe_put(self, job: str, seq: int, value: Any,
                  policy: CheckpointPolicy) -> int | None:
        """Persist *value* if *policy* admits it; returns the blob size
        actually written, or ``None`` when skipped (policy said no, or
        the value is not serializable)."""
        try:
            blob = serialize(value)
        except SerializationError:
            self.skipped += 1
            return None
        if not policy.should(seq, len(blob)):
            self.skipped += 1
            return None
        self._blobs[(job, seq)] = blob
        self.puts += 1
        self.bytes_written += len(blob)
        return len(blob)

    def fetch(self, job: str, seq: int) -> tuple[Any, int] | None:
        """``(value, blob bytes)`` for a stored checkpoint, or ``None``.

        Deserializes a fresh value each time -- a restored run must not
        alias a previous run's objects.
        """
        blob = self._blobs.get((job, seq))
        if blob is None:
            return None
        self.fetches += 1
        self.bytes_read += len(blob)
        return deserialize(blob), len(blob)

    def last_seq(self, job: str) -> int | None:
        seqs = [s for (j, s) in self._blobs if j == job]
        return max(seqs) if seqs else None

    def drop_job(self, job: str) -> int:
        victims = [k for k in self._blobs if k[0] == job]
        for k in victims:
            del self._blobs[k]
        return len(victims)

    def describe(self) -> str:
        return (
            f"checkpoint store: {len(self)} blob(s), "
            f"{self.bytes_stored:,} bytes held "
            f"(written {self.bytes_written:,}, read {self.bytes_read:,}, "
            f"skipped {self.skipped})"
        )


@dataclass
class CheckpointConfig:
    """Checkpointing as installed on one runtime: the durable store, the
    admission policy, and the job key namespacing this run's blobs."""

    store: CheckpointStore
    policy: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    job: str = "job"

    def write(self, seq: int, value: Any, writers: int) -> tuple[int, float]:
        """Persist section *seq*'s output if the policy admits it: the
        bytes written and the virtual seconds that takes, *writers* ranks
        writing their shares in parallel (``(0, 0.0)``: skipped)."""
        nbytes = self.store.maybe_put(self.job, seq, value, self.policy)
        if nbytes is None:
            return 0, 0.0
        return nbytes, self._stamp("write", seq, nbytes,
                                   self.policy.write_seconds(nbytes, writers))

    def read(self, seq: int, readers: int) -> tuple[Any, int, float] | None:
        """Section *seq*'s stored output, its bytes and the virtual seconds
        *readers* ranks take to read it back; ``None``: nothing stored."""
        hit = self.store.fetch(self.job, seq)
        if hit is None:
            return None
        value, nbytes = hit
        return value, nbytes, self._stamp(
            "restore", seq, nbytes, self.policy.read_seconds(nbytes, readers))

    def _stamp(self, op: str, seq: int, nbytes: int, seconds: float) -> float:
        obs = _obs_active()
        if obs is not None:
            obs.instant("checkpoint", f"{op} s{seq}", attrs={
                "bytes": nbytes, "seconds": seconds, "job": self.job, "seq": seq})
        return seconds


def run_restartable(
    make_runtime: Callable[[], Any],
    job_fn: Callable[[Any], Any],
    max_restarts: int = 2,
    retry_on: tuple = (RankFailure, JobFailure),
) -> tuple[Any, Any, int]:
    """Driver-level restart-from-last-checkpoint.

    ``make_runtime()`` must return a fresh runtime context manager whose
    runtime carries a :class:`CheckpointConfig` sharing one durable
    store across attempts; ``job_fn(rt)`` runs the job.  On a *retry_on*
    failure the job is re-run from scratch: sections already
    checkpointed restore instead of executing, so only the uncovered
    tail re-runs.  (A consumed :class:`~repro.cluster.faults.FaultPlan`
    shared across attempts does not re-fire, matching a real transient
    environment fault.)

    Returns ``(value, final runtime, restarts used)``.
    """
    restarts = 0
    while True:
        try:
            with make_runtime() as rt:
                return job_fn(rt), rt, restarts
        except retry_on:
            if restarts >= max_restarts:
                raise
            restarts += 1
