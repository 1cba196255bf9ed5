"""MPI-like communicator over the simulated cluster.

The API mirrors mpi4py: lowercase methods (``send``/``recv``/``bcast``/
``scatter``/``gather``/``reduce``) communicate generic Python objects
through :mod:`repro.serial`; uppercase ``Send``/``Recv`` move numpy
buffers with a single block copy and lower per-message cost, matching
mpi4py's buffer-protocol fast path.

Every operation really moves real data (results are exact) and charges the
LogGP cost model (timing is virtual).  Collective algorithms live in
:mod:`repro.cluster.collectives`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.channel import ChannelTable, Envelope
from repro.cluster.faults import FaultPlan, RankFailure, TransientSendError
from repro.cluster.limits import BufferOverflowError, RuntimeLimits, UNLIMITED
from repro.cluster.trace import CommEvent, TraceLog
from repro.cluster.machine import MachineSpec
from repro.cluster.metrics import RankMetrics
from repro.cluster.simclock import VirtualClock
from repro.serial import deserialize, serialize
from repro.serial.arrays import array_payload_bytes, ensure_contiguous

#: Tag space reserved for collectives (user tags must stay below this).
COLL_TAG_BASE = 1 << 20


@dataclass
class Request:
    """Handle for a nonblocking operation (mpi4py-style)."""

    _value: Any = None
    _ready: bool = False
    _recv: Callable[[], Any] | None = None

    def test(self) -> bool:
        """True once the operation has completed."""
        return self._ready or self._recv is None

    def wait(self) -> Any:
        """Block until complete; returns the received object (recv only)."""
        if not self._ready and self._recv is not None:
            self._value = self._recv()
            self._ready = True
        return self._value


@dataclass
class SimContext:
    """State shared by all ranks of one SPMD run."""

    machine: MachineSpec
    nranks: int
    ranks_per_node: int = 1
    limits: RuntimeLimits = UNLIMITED
    real_timeout: float = 60.0
    channels: ChannelTable = field(default_factory=ChannelTable)
    #: optional allocation cost hook: nbytes -> virtual seconds of GC work
    alloc_cost: Callable[[int], float] | None = None
    #: multiplier from sandbox payload bytes to paper-scale bytes, applied
    #: when charging link time, allocator time and buffer limits
    wire_scale: float = 1.0
    #: optional communication event log (run_spmd(..., trace=True))
    trace: TraceLog | None = None
    #: optional deterministic fault schedule (None = zero-cost fast path)
    faults: FaultPlan | None = None
    #: optional recovery policy (duck-typed; see repro.runtime.recovery).
    #: Consulted only when a fault or limit actually fires, so a run with
    #: a policy but no faults has an unchanged virtual timeline.
    recovery: Any = None
    #: the rank bodies hold the GIL throughout: ``SimTransport`` runs one
    #: rank thread at a time (transports whose ranks are processes ignore
    #: it).  Set by the caller from a fact about the run, not by a user.
    run_to_block: bool = False

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def validate(self) -> None:
        capacity = self.machine.nodes * self.ranks_per_node
        if self.nranks > capacity:
            raise ValueError(
                f"{self.nranks} ranks do not fit on {self.machine.nodes} nodes "
                f"at {self.ranks_per_node} ranks/node"
            )


class Comm:
    """One rank's endpoint: point-to-point ops, collectives, cost charging."""

    def __init__(self, ctx: SimContext, rank: int, in_launcher: bool = True):
        if not 0 <= rank < ctx.nranks:
            raise ValueError(f"rank {rank} outside communicator of size {ctx.nranks}")
        self.ctx = ctx
        self.rank = rank
        self.size = ctx.nranks
        #: This rank executes on the heap of the process that launched the
        #: section, so what it mutates there *is* the driver's state.  Set
        #: by the transport where it builds the ``Comm`` (``sim``: every
        #: rank, ``local``: rank 0); a rank that runs elsewhere is a
        #: ``local`` member and must publish such state through
        #: ``rank_extras()``.
        self.in_launcher = in_launcher
        #: when the program on this rank began its own work, if it says
        self.work_started: float | None = None
        self.clock = VirtualClock()
        self.metrics = RankMetrics(rank=rank)
        self._coll_seq = 0
        self._links: dict = {}  # peer rank -> the link to it, inter-node?

    # -- topology ----------------------------------------------------------

    @property
    def node(self) -> int:
        return self.ctx.node_of(self.rank)

    def _link(self, other_rank: int) -> tuple:
        """The link to *other_rank*, and whether it leaves this node."""
        link = self._links.get(other_rank)
        if link is None:
            src, dst = self.node, self.ctx.node_of(other_rank)
            link = self._links[other_rank] = (self.ctx.machine.link(src, dst),
                                              src != dst)
        return link

    # -- local cost charging -------------------------------------------------

    def compute(self, dt: float) -> None:
        """Advance the local clock by *dt* virtual seconds of computation."""
        if self.ctx.faults is not None:
            dt = self._faulted_compute_dt(dt)
        self.clock.advance(dt)
        self.metrics.charge_compute(dt)
        if self.ctx.faults is not None:
            self._check_crash()

    # -- fault hooks (no-ops unless a FaultPlan is installed) ----------------

    def _trace_fault(self, kind: str, peer: int = -1, tag: int = 0, nbytes: int = 0) -> None:
        if self.ctx.trace is not None:
            self.ctx.trace.record(
                CommEvent(kind, self.clock.now, self.rank, peer, tag, nbytes)
            )

    def _check_crash(self) -> None:
        """Raise this rank's scheduled :class:`RankFailure` if it is due."""
        try:
            self.ctx.faults.check_crash(self.rank, self.clock.now)
        except RankFailure:
            self.metrics.faults_crash += 1
            self._trace_fault("rank_crash")
            raise

    def _faulted_compute_dt(self, dt: float) -> float:
        """Apply slow-node inflation, capped by speculative re-execution.

        A recovery policy with a ``task_timeout`` models Hadoop-style
        backup tasks: when a straggled task overruns its normal duration
        by more than the timeout, a backup copy launched at the timeout
        on a healthy core finishes first, so the effective duration is
        ``dt + task_timeout``.
        """
        factor = self.ctx.faults.compute_factor(self.node)
        if factor == 1.0 or dt <= 0.0:
            return dt
        inflated = dt * factor
        rec = self.ctx.recovery
        timeout = getattr(rec, "task_timeout", None) if rec is not None else None
        if timeout is not None and inflated > dt + timeout:
            effective = dt + timeout
            self.metrics.speculations += 1
            self._trace_fault("speculation")
        else:
            effective = inflated
        self.metrics.faults_straggler += 1
        self.metrics.straggler_time += effective - dt
        return effective

    def _send_fault_gate(self, dest: int, tag: int) -> None:
        """Consume injected transient send failures, retrying if allowed.

        Each failed attempt raises internally; a recovery policy pays a
        capped exponential backoff on the virtual clock and retries, a
        missing policy propagates :class:`TransientSendError`.
        """
        faults = self.ctx.faults
        rec = self.ctx.recovery
        max_retries = getattr(rec, "max_retries", 0) if rec is not None else 0
        attempt = 0
        while True:
            n = faults.send_fault(self.rank, dest, tag, self.clock.now)
            if n is None:
                return
            self.metrics.faults_send += 1
            self._trace_fault("send_fault", dest, tag)
            if attempt >= max_retries:
                raise TransientSendError(self.rank, dest, tag, n)
            backoff = rec.backoff(attempt)
            self.clock.advance(backoff)
            self.metrics.send_retries += 1
            self.metrics.backoff_time += backoff
            self._trace_fault("send_retry", dest, tag)
            attempt += 1

    def alloc(self, nbytes: int) -> None:
        """Charge a heap allocation of *nbytes* (GC/allocator cost model)."""
        gc_dt = 0.0
        if self.ctx.alloc_cost is not None:
            gc_dt = self.ctx.alloc_cost(nbytes)
            if gc_dt:
                self.clock.advance(gc_dt)
        self.metrics.charge_alloc(nbytes, gc_dt)

    # -- point to point ------------------------------------------------------

    def _post(self, payload: Any, nbytes: int, dest: int, tag: int, raw: bool) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        if self.ctx.faults is not None:
            self._check_crash()
            self._send_fault_gate(dest, tag)
        cost_bytes = int(nbytes * self.ctx.wire_scale)
        link, inter_node = self._link(dest)
        try:
            self.ctx.limits.check_message(cost_bytes, self.rank, dest, inter_node)
        except BufferOverflowError:
            # Stamp the rejection into metrics and the trace *before*
            # raising or degrading: Fig. 5's Eden failure is diagnosable
            # from the run's observability, not just the exception.
            self.metrics.messages_rejected += 1
            self._trace_fault("message_rejected", dest, tag, nbytes)
            rec = self.ctx.recovery
            if rec is not None and getattr(rec, "fragment", False):
                self._post_fragments(payload, nbytes, dest, tag, raw)
                return
            raise
        self._post_one(payload, nbytes, cost_bytes, dest, tag, raw, link)

    def _post_one(
        self,
        payload: Any,
        nbytes: int,
        cost_bytes: int,
        dest: int,
        tag: int,
        raw: bool,
        link,
        frag_index: int = 0,
        frag_total: int = 1,
    ) -> None:
        busy = link.injection_time(cost_bytes)  # >= 0: ``NetworkModel`` checks
        self.clock.now += busy
        self.metrics.charge_send(nbytes, busy)
        delay = link.availability_delay()
        if self.ctx.faults is not None:
            extra = self.ctx.faults.send_delay(self.rank, dest, tag, self.clock.now)
            if extra > 0.0:
                self.metrics.faults_delay += 1
                self._trace_fault("delay_spike", dest, tag, nbytes)
                delay += extra
        env = Envelope(
            payload=payload,
            nbytes=nbytes,
            cost_bytes=cost_bytes,
            available_at=self.clock.now + delay,
            raw=raw,
            frag_index=frag_index,
            frag_total=frag_total,
        )
        if self.ctx.trace is not None:
            self.ctx.trace.record(
                CommEvent("send", self.clock.now, self.rank, dest, tag, nbytes)
            )
        self.ctx.channels.post(self.rank, dest, tag, env)

    def _post_fragments(
        self, payload: Any, nbytes: int, dest: int, tag: int, raw: bool
    ) -> None:
        """Graceful degradation: split an oversized message into
        limit-sized fragments (the Triolet path; Eden keeps failing).

        The logical payload is serialized once and travels as consecutive
        envelopes on its channel; each fragment pays its own injection
        and receive overhead, which is exactly the degradation cost.
        """
        limit = self.ctx.limits.max_message_bytes
        ws = self.ctx.wire_scale
        frag_payload = int(limit / ws) if ws > 0 else limit
        if frag_payload < 1:
            raise BufferOverflowError(
                int(nbytes * ws), limit, self.rank, dest
            )
        data = serialize(payload) if raw else payload
        total = len(data)
        n = (total + frag_payload - 1) // frag_payload
        self.metrics.messages_fragmented += 1
        self.metrics.fragments_sent += n
        self._trace_fault("fragmented", dest, tag, total)
        for i in range(n):
            piece = bytes(data[i * frag_payload : (i + 1) * frag_payload])
            self._post_one(
                piece,
                len(piece),
                int(len(piece) * ws),
                dest,
                tag,
                raw=False,
                link=self._link(dest)[0],
                frag_index=i,
                frag_total=n,
            )

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a generic object (serialized; bytes counted for real)."""
        data = serialize(obj)
        self._post(data, len(data), dest, tag, raw=False)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of a generic object from an explicit *source*."""
        if not 0 <= source < self.size:
            raise ValueError(f"source rank {source} out of range")
        if self.ctx.faults is not None:
            self._check_crash()
        env = self.ctx.channels.take(
            source, self.rank, tag, self.ctx.real_timeout
        )
        if env.frag_total > 1:
            return self._recv_fragments(env, source, tag)
        waited = max(0.0, env.available_at - self.clock.now)
        self.clock.merge(env.available_at)
        busy = self._link(source)[0].receive_time()
        self.clock.now += busy
        # The freshly materialized message object is the GC-pressure
        # allocation the paper blames ("slow when allocating objects
        # comprising tens of megabytes", §4.3); the sender serializes into
        # transient buffers, so only the receive side is charged.
        self.alloc(env.cost_bytes)
        self.metrics.charge_recv(env.nbytes, busy, waited)
        if self.ctx.trace is not None:
            self.ctx.trace.record(
                CommEvent("recv", self.clock.now, self.rank, source, tag, env.nbytes)
            )
        if self.ctx.faults is not None:
            self._check_crash()
        if env.raw:
            return env.payload
        return deserialize(env.payload)

    def _recv_fragments(self, first: Envelope, source: int, tag: int) -> Any:
        """Reassemble a fragmented logical message (channel order FIFO)."""
        parts = [first]
        while len(parts) < first.frag_total:
            parts.append(
                self.ctx.channels.take(
                    source, self.rank, tag, self.ctx.real_timeout
                )
            )
        link = self._link(source)[0]
        total_nbytes = 0
        for env in parts:
            waited = max(0.0, env.available_at - self.clock.now)
            self.clock.merge(env.available_at)
            busy = link.receive_time()
            self.clock.advance(busy)
            self.alloc(env.cost_bytes)
            self.metrics.charge_recv(env.nbytes, busy, waited)
            total_nbytes += env.nbytes
        if self.ctx.trace is not None:
            self.ctx.trace.record(
                CommEvent(
                    "recv", self.clock.now, self.rank, source, tag, total_nbytes
                )
            )
        if self.ctx.faults is not None:
            self._check_crash()
        return deserialize(b"".join(p.payload for p in parts))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send.

        The queue-based channel never blocks a sender, so the message
        departs immediately; injection time is still charged to the
        sender's clock (large messages occupy the NIC either way --
        what nonblocking buys in the paper's mri-q is freedom from
        collective synchronization, which point-to-point sends already
        have here).  Returns an already-complete :class:`Request`.
        """
        self.send(obj, dest, tag)
        return Request(_value=None, _ready=True)

    def irecv(self, source: int, tag: int = 0) -> "Request":
        """Nonblocking receive: a :class:`Request` whose ``wait`` blocks."""
        return Request(_recv=lambda: self.recv(source, tag))

    def Send(self, arr: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer-protocol send: one block copy, no per-element encoding.

        Non-contiguous views hit the explicit contiguity gate (gpaw's
        rule): compacted and counted, never silently object-serialized.
        """
        if not isinstance(arr, np.ndarray):
            raise TypeError("Send() requires a numpy array; use send() for objects")
        nbytes = array_payload_bytes(arr)
        # The copy models the injection DMA; receiver owns its buffer.
        self._post(ensure_contiguous(arr).copy(), nbytes, dest, tag, raw=True)

    def Recv(self, source: int, tag: int = 0) -> np.ndarray:
        """Buffer-protocol receive; returns the array."""
        out = self.recv(source, tag)  # raw envelopes skip deserialization
        if not isinstance(out, np.ndarray):
            raise TypeError("Recv() matched a non-buffer message; use recv()")
        return out

    # -- collective tags -----------------------------------------------------

    def _next_coll_tag(self) -> int:
        # SPMD programs execute collectives in the same order on every
        # rank, so a per-rank counter yields matching tags everywhere.
        tag = COLL_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        return tag

    # -- collectives (implementations in collectives.py) ----------------------

    def barrier(self) -> None:
        collectives.barrier(self)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return collectives.bcast(self, obj, root)

    def scatter(self, chunks: list | None, root: int = 0) -> Any:
        return collectives.scatter(self, chunks, root)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        return collectives.gather(self, obj, root)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        return collectives.reduce(self, obj, op, root)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        return collectives.allreduce(self, obj, op)

    def allgather(self, obj: Any) -> list:
        return collectives.allgather(self, obj)

    def alltoall(self, chunks: list) -> list:
        return collectives.alltoall(self, chunks)

    def scatterv(self, arr, counts: list[int] | None, root: int = 0):
        return collectives.scatterv(self, arr, counts, root)

    def gatherv(self, local, root: int = 0):
        return collectives.gatherv(self, local, root)

    def reduce_scatter(self, chunks: list, op: Callable[[Any, Any], Any]):
        return collectives.reduce_scatter(self, chunks, op)


# Down here because collectives imports Comm from this module; at import
# time so that no forked rank compiles collectives.py in its first collective.
from repro.cluster import collectives  # noqa: E402
