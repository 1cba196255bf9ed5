"""Pluggable transports: one Triolet runtime, several substrates.

The runtime, collectives, data plane and observability layer talk to the
cluster only through :class:`~repro.cluster.comm.Comm`, and ``Comm`` talks
to the wire only through a channel table (``post``/``take``/``fail``) plus
the SPMD launcher.  This module factors that seam into a :class:`Transport`
protocol with two backends:

``sim``
    The original deterministic in-process simulator: the launching
    thread is rank 0, ranks >= 1 run on its resident crew of threads,
    queue-based channels, virtual LogGP timing.  Stays the default; every
    existing test and figure is bit-identical.

``local``
    Real worker processes.  The launching process *is* rank 0 (the paper's
    main process computes its own slice, §3.4-3.5; so does meld's master)
    and ranks >= 1 run on its resident crew of forked members, which are
    *sent* each run -- hired by a raw
    ``os.fork`` only when a run cannot be sent (no helper threads, nothing
    imported in a member).  A crew goes with the thread that launched it,
    or at the latest with the program: no member outlives it unreaped.
    Messages travel over one pipe per ordered rank pair as a fixed header
    and their serialized bytes (or an array's buffer); payloads above a
    threshold -- numpy buffers and serialized ``bytes``
    alike -- go through the pair's shared window, which the crew keeps
    (one block copy in, one out: gpaw's contiguity-checked buffer
    discipline).  Ranks really execute in parallel, so wall-clock time
    scales with cores, while the *virtual* timeline -- causal, from the
    same cost model -- stays bit-identical to ``sim``.

Isolation is a property of a *rank*, not of a backend: the transport
says, where it builds each rank's ``Comm``, whether that rank runs on the
launching process's heap (``Comm.in_launcher`` -- ``sim``: every rank,
``local``: rank 0).  What a rank that runs elsewhere mutates of the
driver's state (cost meters, plan-cache counters, rank stores) never
reaches the driver, so rank code publishes it through
:func:`rank_extras`.  Every transport runs a rank's body through one
``_run_rank``, whose :class:`RankEnd` carries that dict back; ``run_spmd``
assembles the run from the ends, and the driver merges the dicts at
section boundaries (see ``repro.runtime.section``).

What rank code may assume on ``local``: rank 0's side effects land in the
driver (as on ``sim``) and an exception it raises is re-raised as the
original object; its blocking receives stay
bounded by ``real_timeout``, but a rank-0 body that never returns hangs
the driver as on ``sim`` (the kill deadline covers ranks >= 1 only).  A
rank >= 1 of a run that was sent starts in an empty context: the run
state its code reads comes with the rank function (``RankProgram``).  A
worker that really dies is a rank >= 1; the root's death is the job's.

Fault injection (:class:`~repro.cluster.faults.FaultPlan`) is sim-only
for now: real processes cannot replay a deterministic virtual-time crash
schedule mid-flight.  ``run_spmd`` refuses the combination explicitly.
"""
from __future__ import annotations

import atexit
import contextlib
import contextvars
import dataclasses
import mmap
import operator
import os
import pickle
import queue
import select
import signal
import struct
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.cluster.channel import Envelope, SimAborted, SimDeadlockError
from repro.cluster.comm import Comm, SimContext
from repro.cluster.metrics import RankMetrics
from repro.cluster.trace import TraceLog
from repro.serial.arrays import ensure_contiguous
from repro.serial.closures import _CODE_SEGMENT

__all__ = [
    "Transport",
    "TransportUnavailable",
    "RankEnd",
    "RunOutcome",
    "SimTransport",
    "LocalTransport",
    "resolve_transport",
    "available_transports",
    "rank_extras",
]


class TransportUnavailable(RuntimeError):
    """The requested backend cannot run here (missing dependency,
    unsupported platform, or an unsupported feature combination)."""


#: Per-rank scratch published by rank code (the driver) and carried back
#: to the launching process by every transport.  ``None`` outside a rank.
_rank_extras: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "repro_rank_extras", default=None
)


def rank_extras() -> dict | None:
    """The executing rank's extras dict (merged by the driver at the
    section boundary), or ``None`` when not inside an SPMD rank."""
    return _rank_extras.get()


@dataclass
class RankEnd:
    """How one rank's body ended, on every transport: ``status`` is
    ``"ok"`` (``payload`` is what it returned), ``"aborted"`` (a peer
    failed first; no payload) or ``"error"`` (``payload`` is what it
    raised); then its final virtual clock, metrics and extras.  A
    ``local`` member's end also carries its wall stamps, in seconds from
    the launcher's ``execute`` entry: job frame read, job decoded, body
    start, work start (``Comm.work_started``: its inputs in hand; the body
    start if the program does not say), body end (``()`` elsewhere)."""

    status: str
    payload: Any
    clock: float
    metrics: RankMetrics
    extras: dict
    wall: tuple = ()


@dataclass
class RunOutcome:
    """What a transport hands back to ``run_spmd``: every rank's end, by
    rank, and the run's wall seconds."""

    ends: list[RankEnd]
    wall_seconds: float = 0.0
    #: ``wall_seconds`` by phase on ``local`` (0.0 elsewhere): entry -> run
    #: sent (or members hired), rank 0's body, its end -> last rank reported
    launch_s: float = 0.0
    root_s: float = 0.0
    join_s: float = 0.0


def _run_rank(comm: Comm, rank_fn: Callable[..., Any], args: Sequence[Any]) -> RankEnd:
    """The body of *comm*'s rank on every transport, wherever it runs:
    ``rank_fn`` under the rank's extras dict, its end classified.  An error
    aborts the run (the table's ``fail``) before the rank's peers are told
    it is over (its ``mark_done``), which is the moment the body is."""
    table = comm.ctx.channels
    extras: dict = {}
    token = _rank_extras.set(extras)
    status, payload = "ok", None
    try:
        payload = rank_fn(comm, *args)
    except SimAborted:
        status = "aborted"  # secondary failure; the primary one is reported
    except BaseException as exc:  # noqa: BLE001 -- propagated to the caller
        status, payload = "error", exc
        table.fail(exc)
    finally:
        _rank_extras.reset(token)
        table.mark_done(comm.rank)
    return RankEnd(status, payload, comm.clock.now, comm.metrics, extras)


class _Crew:
    """The ranks >= 1 one launching thread keeps between runs, in its
    transport's ``_resident.crew`` (``of``).  A forked child has no crew
    (only the forking thread lives on in it): its copy of its parent's is
    nobody's (``pid``), as is a retired one.  A crew retires with its
    thread (``__del__``) or, at the latest, as the program exits: every
    live crew is in ``live``, which keeps none of them alive."""

    live: "weakref.WeakSet[_Crew]" = weakref.WeakSet()

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.live.add(self)

    @staticmethod
    def of(resident: threading.local) -> "_Crew | None":
        crew = getattr(resident, "crew", None)
        return crew if crew is not None and crew.pid == os.getpid() else None

    def retire(self) -> dict:
        """Let every member go: their exit codes by rank, if processes."""
        if self.pid != os.getpid():
            return {}  # retired, or a fork's copy of its parent's crew
        self.pid = None
        return self._let_go() or {}

    def __del__(self) -> None:  # the launching thread is over
        self.retire()


@atexit.register
def _retire_every_crew() -> None:
    """Nothing a crew hired outlives the program: members are reaped."""
    for crew in list(_Crew.live):
        crew.retire()


class Transport:
    """One way of running an SPMD rank function against real channels.

    Subclasses define the spawn/join lifecycle (threads or forked
    processes) and the message substrate, and say per
    rank -- ``Comm.in_launcher``, set where they build the ``Comm`` --
    whether it shares the launching process's heap.  Capability flags
    tell the runtime what else it may assume:

    ``wall_clock``
        Wall-clock section times are meaningful (ranks really execute
        concurrently); the driver reports them into obs spans.
    ``supports_faults``
        Deterministic :class:`FaultPlan` injection is honoured.
    """

    name: str = "?"
    wall_clock: bool = False
    supports_faults: bool = False

    def available(self, nranks: int = 1) -> None:
        """Raise :class:`TransportUnavailable` if this backend cannot
        run *nranks* ranks here; otherwise return normally."""

    def execute(
        self, ctx: SimContext, rank_fn: Callable[..., Any], args: Sequence[Any]
    ) -> RunOutcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sim: the deterministic in-process simulator (threads + virtual clocks)


class SimTransport(Transport):
    """The original backend: queue channels, virtual timing, every rank on
    the launcher's heap.  Deterministic and the default everywhere.

    The thread that calls ``execute`` is rank 0 (as on ``local``); ranks
    >= 1 run on its **resident crew**: daemon threads that outlive the
    section and take the next run's ranks -- they share the heap, there
    is nothing to send them -- so a program in steady state starts no
    thread.  Nothing virtual can tell: the whole life of a rank is
    ``_run_rank``, whichever thread calls it.

    Only a crew's idle threads are listed: a run takes what it needs off
    the list, hires the rest, and hands all of them back when its last
    rank is over, so a rank body that launches a run of its own never
    waits behind the run it is part of.  An idle thread holds nothing of
    a finished run.  **Bound:** a run that used k threads leaves at most
    2k idle, the longest idle retiring first: a crew shrinks with its
    program, and a program that loses up to half its ranks and grows back
    (elastic recovery) hires nobody.  No timer, no size setting.

    Ranks run free unless the run says ``run_to_block`` (rank bodies that
    hold the GIL throughout cannot overlap, only fight over it): then
    exactly one is runnable at a time, and it hands over only where it
    blocks in a receive, on the CPU its launcher is on: each rank thread
    is pinned there for its body, then put back on its own mask (where it
    cannot be, it runs as it is).  Wall clock only -- nothing virtual can
    tell the schedulings apart."""

    name = "sim"
    wall_clock = False
    supports_faults = True

    class _Crew(_Crew):
        """One launching thread's idle rank threads, by their inboxes."""

        def __init__(self) -> None:
            super().__init__()
            self.idle: list[queue.SimpleQueue] = []

        def keep(self, n: int = 0) -> None:
            """Retire all but the *n* most recently used idle threads."""
            while len(self.idle) > n:
                self.idle.pop(0).put(None)

        _let_go = keep

    _resident = threading.local()  # .crew; .home while a baton run pins it

    @staticmethod
    def _cpu() -> int | None:
        """The CPU the calling thread is on (field 39 of its ``stat``)."""
        try:
            with open("/proc/thread-self/stat", "rb") as f:
                return int(f.read().rsplit(b")", 1)[1].split()[36])
        except (OSError, ValueError, IndexError):
            return None

    @classmethod
    def _pin(cls, cpu: int | None) -> tuple | None:
        """The calling thread on *cpu* alone: what ``_unpin`` puts back."""
        try:
            mask = os.sched_getaffinity(0)
            os.sched_setaffinity(0, (cpu,))
        except (AttributeError, OSError, TypeError):  # no call, refused, no cpu
            return None
        home = getattr(cls._resident, "home", None)
        cls._resident.home = home or mask  # where a thread it hires starts
        return mask, home

    @classmethod
    def _unpin(cls, pinned: tuple | None) -> None:
        if pinned is not None:
            mask, cls._resident.home = pinned
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, mask)

    @classmethod
    def _serve(cls, inbox: queue.SimpleQueue, home: set | None) -> None:
        """Life of a crew thread.  The run is let go of *before* the
        launcher is told, so nothing outlives ``execute`` here."""
        cls._unpin((home, None) if home else None)  # hired by a pinned rank
        for worker, rank, done in iter(inbox.get, None):
            worker(rank)
            del worker
            done.put(rank)
            del done

    def execute(
        self, ctx: SimContext, rank_fn: Callable[..., Any], args: Sequence[Any]
    ) -> RunOutcome:
        nranks = ctx.nranks
        ends: list[RankEnd] = [None] * nranks
        # Every rank runs in a copy of the caller's context (executor, cost
        # context, ...): in a crew thread's own, empty one, nested parallel
        # sections inside rank code would silently be off.
        caller_context = contextvars.copy_context()
        # One per run: held by whichever rank is executing, let go of in
        # ``ChannelTable.take`` alone.
        baton = ctx.channels.baton = (
            threading.Lock() if ctx.run_to_block and nranks > 1 else None
        )
        # ... on one CPU: each hand-over to another vCPU costs rank CPU.
        cpu = self._cpu() if baton is not None else None

        def worker(rank: int) -> None:
            if baton is not None:
                pinned = self._pin(cpu)
                baton.acquire()
            try:
                ends[rank] = caller_context.copy().run(
                    _run_rank, Comm(ctx, rank), rank_fn, args)
            finally:  # after ``mark_done``: blocked receivers can abort
                if baton is not None:
                    baton.release()
                    self._unpin(pinned)

        t0 = time.perf_counter()
        crew = self._Crew.of(self._resident)
        if crew is None:  # a new thread, a fork, or retired
            crew = self._resident.crew = self._Crew()
        done = queue.SimpleQueue()
        hired = []
        for rank in range(1, nranks):
            if crew.idle:
                inbox = crew.idle.pop()
            else:
                inbox = queue.SimpleQueue()
                threading.Thread(
                    target=self._serve, name=f"sim-rank-{rank}", daemon=True,
                    args=(inbox, getattr(self._resident, "home", None)),
                ).start()
            inbox.put((worker, rank, done))
            hired.append(inbox)
        try:
            worker(0)
            for _ in hired:
                done.get()
        except BaseException:  # interrupted in the wait: nobody will hand
            for inbox in hired:  # the busy threads back, so they retire
                inbox.put(None)  # when their rank is over
            raise
        crew.idle.extend(reversed(hired))  # rank 1's is the next one taken
        crew.keep(2 * len(hired))
        return RunOutcome(ends, wall_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# local: a resident crew of forked ranks over per-pair pipes + shared windows


#: Payloads at or above this size -- raw numpy buffers and serialized
#: ``bytes`` alike -- leave the pipe through the pair's shared window (one
#: block copy in, one out), so frames on a pipe stay small.
SHM_MIN_BYTES = 1 << 15

#: Seconds past ``real_timeout`` a rank has to report before it is killed.
REPORT_SLACK_S = 30.0

#: Every frame on a crew's pipes (message, done frame, job, report): tag
#: (``_DONE``: the sender's run is over), ``Envelope``'s fields after its
#: payload, the payload's window offset (-1: it follows), size and kind,
#: an array's ndim and dtype-string length; then its shape and dtype, then
#: the payload unless it lies in the pair's window.
_HEAD = struct.Struct("<qqqd?iiqqBBB")
_DONE = -1
_BYTES, _ARRAY, _PICKLED = range(3)

#: Every pipe end and window this process holds for a crew -- its members'
#: too, while they are being hired: what a new member closes first, so
#: that it holds its own crew's descriptors and nothing else.
_CREW_FDS: set[int] = set()


#: A window's first bytes: how many payloads its reader has taken (native,
#: so that the reader's update is one aligned 8-byte store).
_TAKEN = struct.Struct("Q")


def _flat(payload: "np.ndarray | bytes") -> tuple:
    """``(dtype, shape, data)``: an ndarray's buffer (compacted if it is
    not contiguous), or serialized ``bytes`` as they are."""
    if isinstance(payload, np.ndarray):
        a = ensure_contiguous(payload)
        return a.dtype.str, a.shape, a.reshape(-1).view(np.uint8)
    return None, None, payload


def _decoded(buf, at: int, size: int, dtype: str | None, shape: tuple | None):
    """A copy, owned by the caller, of the *size* bytes at *at* in *buf*:
    an array when *dtype* says so, else ``bytes``."""
    if dtype is None:
        return bytes(buf[at:at + size])
    dt = np.dtype(dtype)
    return np.frombuffer(buf, dt, size // dt.itemsize, at).reshape(shape).copy()


class _Window:
    """One ordered rank pair's shared window: a memfd (a file with no name)
    that writer and reader both map.  The writer bump-allocates large
    payloads in it, growing the file when one does not fit, and the frame
    says where each lies; the reader copies it out (re-mapping first when
    it lies past its mapping) and counts it taken in the window's first
    bytes.  The writer starts again at ``HEAD`` once all it put is taken,
    and at a run's start, when every rank has taken the last run's
    payloads or will never take them.  Once warm, neither side makes a
    syscall."""

    HEAD = 64  # where payloads start, past the taken count

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.map: mmap.mmap | None = None
        self.top = self.count = 0  # payloads put (writer) or taken (reader)

    def restart(self) -> None:
        """A new run: what the last one put and nobody took is dropped."""
        self.count = _TAKEN.unpack_from(self.map)[0] if self.map is not None else 0

    def _remap(self) -> mmap.mmap:
        if self.map is not None:
            self.map.close()
        self.map = mmap.mmap(self.fd, os.fstat(self.fd).st_size)
        return self.map

    def put(self, payload: "np.ndarray | bytes") -> tuple:
        """Copy *payload* in; its ``(offset, nbytes, dtype, shape)``
        (``dtype`` is ``None`` for serialized ``bytes``)."""
        dtype, shape, data = _flat(payload)
        m = self.map
        if m is None or _TAKEN.unpack_from(m)[0] == self.count:
            self.top = self.HEAD  # nothing put is still to be read
        off = self.top
        end = off + len(data)
        if m is None or end > len(m):
            os.ftruncate(self.fd, max(end, 2 * (len(m) if m else 0), 1 << 20))
            m = self._remap()
        m[off:end] = data
        self.top = -(-end // 64) * 64  # the next payload starts aligned
        self.count += 1
        return off, end - off, dtype, shape

    def take(self, off: int, nbytes: int, dtype: str | None,
             shape: tuple | None) -> "np.ndarray | bytes":
        """A copy, owned by the caller, of what ``put`` left at *off*."""
        m = self.map
        if m is None or off + nbytes > len(m):
            m = self._remap()
        out = _decoded(m, off, nbytes, dtype, shape)
        self.count += 1
        _TAKEN.pack_into(m, 0, self.count)
        return out

    def close(self) -> None:
        if self.map is not None:
            self.map.close()
        os.close(self.fd)


def _frame(tag: int, payload: Any, head: tuple = (0, 0, 0.0, False, 0, 1),
           window: "_Window | None" = None) -> bytes:
    """One frame: *payload* -- ``bytes``, an ndarray as its buffer, else
    pickled -- after the envelope fields *head*; through *window* if given
    (and it is not pickled)."""
    if isinstance(payload, np.ndarray) and payload.dtype.kind not in "OV":
        kind = _ARRAY
    elif isinstance(payload, bytes):
        kind = _BYTES
    else:
        kind, payload = _PICKLED, pickle.dumps(payload, protocol=5)
    if window is not None and kind != _PICKLED:
        (off, size, dtype, shape), data = window.put(payload), b""
    else:
        dtype, shape, data = _flat(payload)
        off, size = -1, len(data)
    meta = b"" if dtype is None else (
        struct.pack(f"<{len(shape)}q", *shape) + dtype.encode())
    return b"".join((_HEAD.pack(tag, *head, off, size, kind, len(shape or ()),
                                len(dtype or "")), meta, data))


_DONE_FRAME = _frame(_DONE, b"")


def _send_frame(fd: int, frame: bytes, on_full: Callable[[], None] | None = None) -> None:
    """Write *frame* to *fd*.  A full non-blocking pipe calls *on_full*
    (which waits for space); a reader that has exited makes the frame
    undeliverable and it is dropped, as the simulator's queue would hold
    it unread."""
    view = memoryview(frame)
    while view:
        try:
            view = view[os.write(fd, view):]
        except BlockingIOError:
            on_full()
        except BrokenPipeError:
            return


class _FrameReader:
    """The frames rank *peer* writes to one pipe, kept as long as the pipe:
    it reads ahead, and parses up to a done frame -- what follows is the
    next run's, parsed when that run asks."""

    def __init__(self, fd: int, peer: int) -> None:
        self.fd = fd
        self.peer = peer
        self._buf = bytearray()

    def read(self) -> bool:
        """One ``os.read``; False at EOF (every writer has exited)."""
        data = os.read(self.fd, 1 << 16)
        self._buf += data
        return bool(data)

    def frames(self) -> list:
        """The complete frames buffered, up to a done frame: each ``(tag,
        head, payload, slot)``, its payload decoded (``None`` when it lies
        in the window, at *slot*: ``(offset, size, dtype, shape)``)."""
        buf, off, out = self._buf, 0, []
        while len(buf) - off >= _HEAD.size:
            tag, *head, at, size, kind, ndim, dlen = _HEAD.unpack_from(buf, off)
            meta = off + _HEAD.size
            body = meta + 8 * ndim + dlen
            end = body + (size if at < 0 else 0)
            if end > len(buf):
                break
            dtype = buf[body - dlen:body].decode() if kind == _ARRAY else None
            slot = (at, size, dtype,
                    struct.unpack_from(f"<{ndim}q", buf, meta) if dtype else None)
            payload = None
            if at < 0:
                payload, slot = _decoded(buf, body, *slot[1:]), None
                if kind == _PICKLED:
                    payload = pickle.loads(payload)
            out.append((tag, head, payload, slot))
            off = end
            if tag == _DONE:
                break
        del buf[:off]
        return out


class _End:
    """One rank's side of its crew, kept as long as the crew: pipe ends and
    windows by peer, a reader per inbound pipe, and one poller."""

    def __init__(self, ends: tuple) -> None:
        inbound, self.outbound, self.windows_in, self.windows_out = ends
        self.readers = {s: _FrameReader(fd, s) for s, fd in inbound.items()}
        self.by_fd = {r.fd: r for r in self.readers.values()}
        self.poll = select.poll()


#: A 1-rank run's side of no crew.
_NOBODY = _End(({}, {}, {}, {}))


class LocalChannelTable:
    """One process-rank's endpoint for one run: its end of the crew's
    per-pair pipes and windows among the run's ranks (one writer each, so
    per-source FIFO needs no lock), (src, tag) matching with MPI's
    non-overtaking guarantee, and the crew's shared abort flag.  Same
    ``post``/``take``/``fail`` surface as the simulator's
    :class:`~repro.cluster.channel.ChannelTable`.

    The pipes outlive the run: a rank's last frame on each is a *done*
    frame, and EOF means its process died.  Pipes are bounded where the
    simulator's queues are not, so every wait -- for write space or for a
    message -- services *all* inbound pipes into memory: two ranks
    flooding each other, or a receiver whose awaited sender is stuck
    posting to a third rank, finish as on ``sim``.
    """

    def __init__(self, rank: int, end: _End, abort, shm_min: int,
                 ctx: SimContext) -> None:
        self.rank = rank
        self.abort = abort
        self._end = end
        self._outbound = {d: fd for d, fd in end.outbound.items() if d < ctx.nranks}
        self._shm_min, self._real_timeout = shm_min, ctx.real_timeout
        # (src, tag) -> what arrived before it was asked for; pipe order
        # is kept, so matching is deterministic as on sim.
        self._pending: dict[tuple[int, int], deque] = {}
        # src -> reader, until that rank is done
        self._inbound = {s: r for s, r in end.readers.items() if s < ctx.nranks}
        for d in self._outbound:
            end.windows_out[d].restart()
        for reader in list(self._inbound.values()):
            end.poll.register(reader.fd, select.POLLIN)
            self._parse(reader)  # what was read ahead of this run

    def _parse(self, reader: _FrameReader) -> None:
        for tag, head, payload, slot in reader.frames():
            if tag == _DONE:
                self._over(reader)
            else:
                self._pending.setdefault((reader.peer, tag), deque()).append(
                    (head, payload, slot))

    def _over(self, reader: _FrameReader) -> None:
        """*reader*'s rank is done (or dead): nothing more will arrive."""
        self._end.poll.unregister(reader.fd)
        del self._inbound[reader.peer]

    def _progress(self, what: str, timeout: float, wfd: int | None = None) -> None:
        """Block until an inbound pipe delivered (into ``_pending``) or
        *wfd* has room; a silent *timeout* is a deadlock."""
        poll = self._end.poll
        if wfd is not None:
            poll.register(wfd, select.POLLOUT)
        try:
            ready = poll.poll(timeout * 1e3)
        finally:
            if wfd is not None:
                poll.unregister(wfd)
        if not ready:
            raise SimDeadlockError(
                f"rank {self.rank} waited {timeout:.0f}s (real) {what}; deadlock?"
            )
        for fd, _ in ready:
            reader = self._end.by_fd.get(fd)
            if reader is None:
                continue  # room to write
            if reader.read():
                self._parse(reader)
            else:
                self._over(reader)

    def post(self, src: int, dst: int, tag: int, env: Envelope) -> None:
        if self.abort[0]:
            raise SimAborted("run aborted: a peer rank failed")
        p, *head = env
        if dst == self.rank:
            self._pending.setdefault((src, tag), deque()).append((head, p, None))
            return
        big = (p.nbytes if isinstance(p, np.ndarray) else len(p)) >= self._shm_min
        self._send(dst, _frame(tag, p, head, self._end.windows_out[dst] if big else None))

    def _send(self, dst: int, frame: bytes) -> None:
        fd = self._outbound[dst]
        wait = f"for pipe space to rank {dst}"
        _send_frame(fd, frame, lambda: self._progress(wait, self._real_timeout, fd))

    def take(self, src: int, dst: int, tag: int, real_timeout: float) -> Envelope:
        key = (src, tag)
        while True:
            q = self._pending.get(key)
            if q:
                head, payload, slot = q.popleft()
                if slot is not None:
                    payload = self._end.windows_in[src].take(*slot)
                return Envelope(payload, *head)
            if self.abort[0]:
                raise SimAborted("run aborted: a peer rank failed")
            if src not in self._inbound:
                raise SimDeadlockError(
                    f"rank {dst} waits for a message from rank {src} tag {tag}, but "
                    f"rank {src} already finished without sending it; deadlock?"
                )
            self._progress(f"for a message from rank {src} tag {tag}", real_timeout)

    def fail(self, exc: BaseException) -> None:
        self.abort[0] = 1

    def mark_done(self, rank: int) -> None:
        """This rank's body is over: a done frame to every peer."""
        for dst in self._outbound:
            with contextlib.suppress(SimDeadlockError):  # stuck: the deadline's
                self._send(dst, _DONE_FRAME)

    def drain(self, deadline: float) -> bool:
        """Read every peer's pipe up to its done frame, dropping what this
        rank never took, so nothing of the run is left for the next one.
        False if a peer still runs at *deadline* (``time.perf_counter``)."""
        try:
            while self._inbound:
                self._progress("for the run's last frames",
                               max(0.0, deadline - time.perf_counter()))
            return True
        except SimDeadlockError:
            return False


def _picklable_error(exc: BaseException) -> BaseException:
    """An exception safe to send through a pipe (some carry live state)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# -- what a member keeps between runs ---------------------------------------

#: While a job pickles for a crew: the crew's names by key, the names every
#: member the job goes to holds, and the names the job uses.
_naming: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "repro_naming", default=None)

#: In a member: what it keeps between runs, by name.
_HELD: dict[int, Any] = {}


def kept(obj: Any, key: Any = None) -> Any:
    """*obj* as a job carries it.  While a job pickles for a crew, a value
    no one can change -- a frozen dataclass, or a tuple of those and
    scalars -- goes by its crew-wide name, and so does any object whose
    *key* the caller gives: the name alone when every member the job goes
    to holds it, else with the object, which those members then keep.
    Otherwise *obj* itself."""
    naming = _naming.get()
    if naming is None:
        return obj
    if key is None:
        items = obj if type(obj) is tuple else (obj,)
        if not (set(map(type, items)) <= _FROZEN or all(map(_frozen, items))):
            return obj
        key = obj
    names, holding, used = naming
    try:
        name = names.setdefault(key, len(names))
    except TypeError:  # a frozen dataclass with an unhashable field
        return obj
    used.add(name)
    return _Name((name,) if name in holding else (name, obj))


#: The types of values no one can change, as ``kept`` meets them.
_FROZEN: set[type] = {type(None)}


def _frozen(v: Any) -> bool:
    frozen = v is None or isinstance(v, (int, float, str)) or getattr(
        getattr(v, "__dataclass_params__", None), "frozen", False)
    if frozen:
        _FROZEN.add(type(v))
    return frozen


class _Name(tuple):
    """Pickles as ``_held(*self)``: a name, and what it names if sent."""

    def __reduce__(self):
        return _held, tuple(self)


def _held(name: int, *obj: Any) -> Any:
    """In a member: what it keeps under *name* -- *obj*, when sent."""
    if obj:
        _HELD[name] = obj[0]
    return _HELD[name]


#: What a job carries of its run's ``SimContext``: all but its channels and
#: trace, which are the member's own.
_SENT_FIELDS = tuple(f.name for f in dataclasses.fields(SimContext)
                     if f.name not in ("channels", "trace"))
_SENT = operator.attrgetter(*_SENT_FIELDS)


def _member(rank: int, ends: tuple, control: int, result: int, abort,
            shm_min: int, job: tuple) -> None:
    """The life of crew member *rank*, in the fork: the run it was hired
    for, then every run its control pipe brings -- each reported on its
    result pipe as soon as its body is over, then drained -- until the
    launcher closes the control pipe.  Decoding a job installs its run
    state, so a run goes on in the context the member has."""
    end, jobs = _End(ends), _FrameReader(control, 0)
    _HELD.clear()  # a member of a member's crew keeps nothing of its parent's
    (ctx, rank_fn, args), consts, read = job, None, ()  # a fork's copies
    del job
    while True:
        ctx.channels = LocalChannelTable(rank, end, abort, shm_min, ctx)
        t_start = time.perf_counter()
        comm = Comm(ctx, rank, in_launcher=False)
        out = _run_rank(comm, rank_fn, args)
        out.wall = (*(read or (t_start, t_start)), t_start,
                    comm.work_started or t_start, time.perf_counter())
        if out.status == "error":
            out.payload = _picklable_error(out.payload)
        events = list(ctx.trace.events) if ctx.trace is not None else None
        holding = getattr(rank_fn, "holding", None)
        held = len(_CODE_SEGMENT), holding and holding(rank)
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            _send_frame(result, _frame(0, (out, events, held)))
        except Exception as exc:  # noqa: BLE001 -- does not pickle: rank's error
            _send_frame(result, _frame(0, (RankEnd(
                "error", _picklable_error(exc), out.clock, out.metrics, {}),
                None, None)))
        # Reported: now the run's last frames.  A member that cannot read
        # them all would take a run's frames into the next: it goes (the
        # launcher finds it dead and hires anew).
        if not ctx.channels.drain(time.perf_counter() + ctx.real_timeout):
            os._exit(1)
        # Let the run go (a program's handles die with it) before waiting.
        ctx.channels = ctx.trace = None
        del rank_fn, args, out, holding, comm
        while True:  # a done frame first: the job is on its way
            frames = jobs.frames()
            if frames and frames[0][0] != _DONE:
                break
            if not frames:
                if not jobs.read():
                    os._exit(0)  # the crew retired
                t_read = time.perf_counter()
        read = t_read, time.perf_counter()
        sent, traced, rank_fn, args = frames[0][2]
        if sent is not consts:  # held by name: the same object while unchanged
            consts = sent
            ctx = SimContext(**dict(zip(_SENT_FIELDS, sent)), channels=None)
        ctx.trace = TraceLog() if traced else None


class LocalTransport(Transport):
    """Real multiprocess execution: the launcher is rank 0 and ranks >= 1
    run on its **resident crew** of forked members (a 1-rank run touches
    no crew and opens no pipe or window).

    A member is hired by ``os.fork`` -- the hire step, as
    ``threading.Thread`` is ``sim``'s -- into the run it was hired for,
    inheriting its program, and stays: a later run is *sent* to it, one
    pickle frame on its control pipe holding the rank function and its
    arguments by reference, as the paper's ranks are sent closures; decoding
    it installs the job's run state, and the member's report carries what
    the run added to its counters.  Rank 0 runs in the launching process in
    a copy of the caller's context and its ``RankEnd`` is used where it is;
    a member's comes back in one frame on its result pipe as soon as its
    body is over.  Ranks talk over
    persistent pipes and shared windows, one of each per ordered pair; a
    run ends with a done frame on each pipe, read by every rank, so
    nothing of it reaches the next run.

    **Freshness.**  A run goes to the crew when it pickles with plain
    ``pickle`` and every member it needs is fresh for it: the code segment
    has not grown since the member last reported, and the member holds
    what the rank function's optional ``holding(rank)`` names (a section's
    rank store at the driver mirror's version).  Otherwise the crew
    retires and the run hires its own.  What a job carries is fresh by
    construction: the run's frozen constants and compiled plans go by
    name (``kept``) only to members the crew knows to hold them -- each
    member's own, not the crew's -- and in full to the rest.

    **Bound and lifetime.**  A crew is the size of the last run it was
    hired for and serves smaller runs from its low ranks; a member keeps
    one plane's rank store, the last it served, and the constants and
    plans it was sent (as many as the program has).  A run in which a rank
    raises or a member dies or outlives the deadline retires the crew
    (stragglers killed, every member reaped), as does a member found dead
    (EOF on its report pipe) before a run is sent.  An idle member exits at
    EOF on its control pipe and holds its own crew's descriptors only.  No
    timer, no setting."""

    name = "local"
    wall_clock = True
    supports_faults = False

    def __init__(self, shm_min_bytes: int = SHM_MIN_BYTES):
        self.shm_min_bytes = shm_min_bytes

    def available(self, nranks: int = 1) -> None:
        if not hasattr(os, "memfd_create"):  # Linux, which has os.fork
            raise TransportUnavailable("LocalTransport needs fork and memfd_create")
        import resource

        # A pipe and a window per ordered rank pair, two pipes per member
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft != resource.RLIM_INFINITY and 3 * nranks * (nranks + 1) + 64 > soft:
            raise TransportUnavailable(
                f"LocalTransport: {nranks} ranks need more descriptors "
                f"than RLIMIT_NOFILE ({soft}) allows"
            )

    class _Crew(_Crew):
        """One launching thread's members: member r is rank r of every run
        the crew serves."""

        def __init__(self, ends, pids, controls, results, abort) -> None:
            super().__init__()
            self.end = _End(ends)  # rank 0's pipe ends and windows, in and out
            self.pids, self.controls = pids, controls
            self.reports = {r: _FrameReader(fd, r) for r, fd in results.items()}
            self.hangups = select.poll()  # between runs, only a death shows
            for fd in results.values():
                self.hangups.register(fd, select.POLLIN)
            self.abort = abort  # shared by the crew; cleared per run
            self.held: dict = {}  # rank -> what it last reported it holds
            self.names: dict = {}  # what members keep, by key: its name
            self.known = {r: set() for r in pids}  # rank -> the names it holds

        def serves(self, nranks: int, rank_fn) -> bool:
            """Members 1..nranks-1 are fresh for *rank_fn*, and no member
            died idle (EOF on its report pipe)."""
            holding = getattr(rank_fn, "holding", None)
            for r in range(1, nranks):
                held, need = self.held.get(r), holding and holding(r)
                if (not held or held[0] != len(_CODE_SEGMENT)
                        or need not in (None, held[1])):
                    return False
            return not self.hangups.poll(0)

        def send(self, ctx: SimContext, rank_fn, args) -> bool:
            """Send the run to members 1..nranks-1, naming what all of them
            hold; False if it does not pickle."""
            members = range(1, ctx.nranks)
            used: set = set()
            token = _naming.set((self.names, set.intersection(
                *[self.known[r] for r in members]), used))
            try:
                frame = _frame(0, (kept(_SENT(ctx)), ctx.trace is not None,
                                   rank_fn, args))
            except (pickle.PicklingError, TypeError, AttributeError):
                return False
            finally:
                _naming.reset(token)
            self.abort[0] = 0
            for r in members:
                _send_frame(self.controls[r], frame)
                self.known[r] |= used
            return True

        def _let_go(self) -> dict:
            for fd in self.controls.values():
                os.close(fd)  # an idle member exits at EOF
            # waitpid, so RUSAGE_CHILDREN accounts for every member
            codes = {r: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for r, pid in self.pids.items()}
            end = self.end
            pipes = {*end.by_fd, *end.outbound.values(),
                     *(r.fd for r in self.reports.values())}
            for fd in pipes:
                os.close(fd)
            windows = [*end.windows_in.values(), *end.windows_out.values()]
            for w in windows:
                w.close()
            _CREW_FDS.difference_update(pipes, self.controls.values(),
                                        (w.fd for w in windows))
            self.abort.close()
            return codes

    _resident = threading.local()

    def _hire(self, nranks: int, job: tuple) -> "LocalTransport._Crew":
        """Fork members 1..nranks-1 into *job*; each stays on after it."""
        self.available(nranks)
        sys.stdout.flush()  # or every new member would flush its own copy
        sys.stderr.flush()
        ranks = range(nranks)
        pairs = [(s, d) for s in ranks for d in ranks if s != d]
        pipes = {pair: os.pipe() for pair in pairs}
        windows = {pair: _Window(os.memfd_create("repro-window")) for pair in pairs}
        control = {r: os.pipe() for r in ranks[1:]}
        result = {r: os.pipe() for r in ranks[1:]}
        every = {fd for p in (*pipes.values(), *control.values(),
                              *result.values()) for fd in p}
        every.update(w.fd for w in windows.values())
        _CREW_FDS.update(every)
        for _, w in pipes.values():
            os.set_blocking(w, False)
        abort = mmap.mmap(-1, 1)  # anonymous + shared: one flag for the crew

        def ends(rank: int) -> tuple:
            peers = [p for p in ranks if p != rank]
            return ({s: pipes[s, rank][0] for s in peers},
                    {d: pipes[rank, d][1] for d in peers},
                    {s: windows[s, rank] for s in peers},
                    {d: windows[rank, d] for d in peers})

        def fds(ends: tuple) -> set:  # pipe ends, and windows' descriptors
            return {getattr(e, "fd", e) for es in ends for e in es.values()}

        pids = {}
        for rank in ranks[1:]:
            pid = os.fork()
            if pid:
                pids[rank] = pid
                continue
            try:  # the child never returns into the caller's stack
                mine = ends(rank)
                own = fds(mine) | {control[rank][0], result[rank][1]}
                for fd in _CREW_FDS - own:
                    os.close(fd)
                _CREW_FDS.intersection_update(own)
                _member(rank, mine, control[rank][0], result[rank][1], abort,
                        self.shm_min_bytes, job)
            finally:
                os._exit(1)  # reached only if the member itself raised
        crew = self._Crew(ends(0), pids, {r: w for r, (_, w) in control.items()},
                          {r: rd for r, (rd, _) in result.items()}, abort)
        theirs = every - fds(ends(0)) - {*crew.controls.values(),
                                          *(rd for rd, _ in result.values())}
        for fd in theirs:
            os.close(fd)
        _CREW_FDS.difference_update(theirs)
        return crew

    def execute(
        self, ctx: SimContext, rank_fn: Callable[..., Any], args: Sequence[Any]
    ) -> RunOutcome:
        t0 = time.perf_counter()
        members = range(1, ctx.nranks)
        crew = self._Crew.of(self._resident)
        if crew is not None:  # its members wake while the job is built
            for r in members:
                if r in crew.controls:
                    _send_frame(crew.controls[r], _DONE_FRAME)
        outcomes: dict[int, RankEnd] = {}
        events: dict[int, list | None] = {}
        waiting: dict[int, _FrameReader] = {}
        drained = True
        try:
            end, abort = _NOBODY, bytearray(1)
            if members:
                if not (crew is not None and crew.serves(ctx.nranks, rank_fn)
                        and crew.send(ctx, rank_fn, args)):
                    if crew is not None:
                        crew.retire()
                    crew = self._resident.crew = self._hire(
                        ctx.nranks, (ctx, rank_fn, args))
                end, abort = crew.end, crew.abort
            t_forked = time.perf_counter()
            table = LocalChannelTable(0, end, abort, self.shm_min_bytes, ctx)
            # Used in place: rank 0's end never crosses a pipe (its trace
            # events are already in ``ctx.trace``).
            ctx.channels = table  # the run's own: its members have theirs
            outcomes[0] = contextvars.copy_context().run(
                _run_rank, Comm(ctx, 0), rank_fn, args)
            t_root = time.perf_counter()
            # A rank may report until the later of ``real_timeout`` and the
            # root's end, plus slack.
            limit = max(ctx.real_timeout, t_root - t0) + REPORT_SLACK_S
            drained = table.drain(t0 + limit)
            waiting = {crew.reports[r].fd: crew.reports[r] for r in members}
            for fd in waiting:
                end.poll.register(fd, select.POLLIN)
            while waiting:
                ready = end.poll.poll(max(0.0, t0 + limit - time.perf_counter()) * 1e3)
                if not ready:
                    raise SimDeadlockError(
                        f"local transport: {len(waiting)} rank process(es) "
                        f"did not report within {limit:.0f}s"
                    )
                for fd, _ in ready:
                    reader = waiting[fd]
                    alive, r = reader.read(), reader.peer
                    frames = reader.frames()
                    if frames:
                        outcomes[r], events[r], crew.held[r] = frames[0][2]
                        outcomes[r].wall = tuple([t - t0 for t in outcomes[r].wall])
                    if frames or not alive:  # reported, or died silent
                        end.poll.unregister(fd)
                        del waiting[fd]
        finally:
            if members and crew is not None and (
                len(outcomes) < ctx.nranks or not drained
                or any(o.status == "error" for o in outcomes.values())
            ):
                for reader in waiting.values():  # stragglers
                    os.kill(crew.pids[reader.peer], signal.SIGKILL)
                codes = crew.retire()
                for r in members:
                    err = RuntimeError(
                        f"rank {r} died unreported (exit code {codes.get(r)})")
                    outcomes.setdefault(
                        r, RankEnd("error", err, 0.0, RankMetrics(rank=r), {}))
            t_joined = time.perf_counter()
        if ctx.trace is not None:
            for r in members:
                ctx.trace.events.extend(events.get(r) or ())
        return RunOutcome(
            [outcomes[r] for r in range(ctx.nranks)],
            wall_seconds=time.perf_counter() - t0,
            launch_s=t_forked - t0,
            root_s=t_root - t_forked,
            join_s=t_joined - t_root,
        )


# ---------------------------------------------------------------------------
# registry / factory


_REGISTRY: dict[str, Callable[[], Transport]] = {
    "sim": SimTransport,
    "local": LocalTransport,
}


def resolve_transport(spec: "str | Transport | None") -> Transport:
    """Resolve a transport instance from a name, an instance, or None
    (None means the default ``sim``)."""
    if spec is None:
        return SimTransport()
    if isinstance(spec, Transport):
        return spec
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown transport {spec!r} (registered: {sorted(_REGISTRY)})"
        ) from None
    return factory()


def available_transports(nranks: int = 2) -> list[str]:
    """Names of the registered backends that can run here, in registry
    order.  The conformance matrix parametrizes over this."""
    names = []
    for name in _REGISTRY:
        try:
            resolve_transport(name).available(nranks)
        except TransportUnavailable:
            continue
        names.append(name)
    return names
