"""Point-to-point channels between simulated ranks.

A channel is keyed by ``(src, dst, tag)`` and carries :class:`Envelope`
objects: the serialized payload plus its virtual availability timestamp.
One queue per key gives MPI's non-overtaking guarantee per (source, tag)
and keeps message matching deterministic -- wildcard receives are
deliberately unsupported.
"""
from __future__ import annotations

import queue
import threading
from typing import Any, NamedTuple


class Envelope(NamedTuple):
    """One in-flight message: its payload, then the fields ``local``
    carries in its frame header, in that order."""

    payload: Any  # bytes for serialized sends, ndarray for buffer sends
    nbytes: int  # actual payload bytes (sandbox-sized problem)
    cost_bytes: int  # bytes charged to the cost model (paper-scaled)
    available_at: float  # virtual time the last byte reaches the receiver
    raw: bool  # True if the payload is an unserialized buffer
    # Fragmentation (graceful degradation under a message-byte cap): an
    # oversized logical message travels as frag_total > 1 consecutive
    # envelopes on its channel; the receiver reassembles them in order.
    frag_index: int = 0
    frag_total: int = 1


#: Wake token ``mark_done`` queues behind a finished rank's last message.
_DONE = object()


class ChannelTable:
    """All channels of one SPMD run, plus the run's abort flag.

    Failure semantics are deterministic: a surviving rank is never killed
    asynchronously.  After a peer fails (``fail`` sets the abort flag),
    every other rank keeps executing its own -- fully deterministic --
    instruction stream, and only aborts when it blocks on a message that
    provably can never arrive: the sender's thread has terminated
    (``mark_done``) and the channel is empty.  Whether a rank applied its
    shipping ops, advanced its virtual clock past its own scheduled
    fault, or posted its partials therefore depends only on the program
    and the fault plan, never on wall-clock thread scheduling.
    """

    def __init__(self) -> None:
        self._channels: dict[tuple[int, int, int], queue.SimpleQueue] = {}
        self._lock = threading.Lock()
        self.abort = threading.Event()
        self.abort_reason: BaseException | None = None
        self._done: set[int] = set()
        #: Set by ``SimTransport`` for a ``run_to_block`` run: the lock a
        #: rank thread holds whenever it executes rank code.  ``take`` is
        #: the one place a running rank lets go of it.
        self.baton: threading.Lock | None = None

    def channel(self, src: int, dst: int, tag: int) -> queue.SimpleQueue:
        key = (src, dst, tag)
        ch = self._channels.get(key)
        if ch is None:
            with self._lock:
                ch = self._channels.setdefault(key, queue.SimpleQueue())
        return ch

    def post(self, src: int, dst: int, tag: int, env: Envelope) -> None:
        # Posting never aborts: a send into a queue is always safe, and
        # cancelling senders here would make their progress (and any
        # scheduled fault they have yet to reach) depend on how quickly
        # another thread's failure was observed.
        self.channel(src, dst, tag).put(env)

    def mark_done(self, rank: int) -> None:
        """Record that *rank*'s thread has terminated (normally or not).

        Must be called after the rank's last possible ``post``: receivers
        treat done + empty channel as "this message can never arrive".
        A wake token behind the rank's last message on each of its
        channels sends an already-blocked receiver straight to that check.
        """
        with self._lock:
            self._done.add(rank)
            for (src, _dst, _tag), ch in self._channels.items():
                if src == rank:
                    ch.put(_DONE)

    def take(
        self, src: int, dst: int, tag: int, real_timeout: float
    ) -> Envelope:
        """Blocking receive with a real-time deadline.

        Always drains an available message before considering failure:
        a sender's posts all happen before it is marked done, so the
        check order (message, then done-and-empty) is race-free.
        """
        ch = self.channel(src, dst, tag)
        while True:
            # Read before the queue: once done is observed every post by
            # src is visible, so empty means "never arriving".
            with self._lock:
                done = src in self._done
            try:
                env = ch.get_nowait() if done else self._wait(ch, real_timeout)
            except queue.Empty:
                if not done:
                    raise SimDeadlockError(
                        f"rank {dst} waited {real_timeout:.0f}s (real) for a "
                        f"message from rank {src} tag {tag}; deadlock?"
                    ) from None
                if self.abort.is_set():
                    raise_abort(self)
                raise SimDeadlockError(
                    f"rank {dst} waits for a message from rank {src} "
                    f"tag {tag}, but rank {src} already finished "
                    f"without sending it; deadlock?"
                ) from None
            if env is not _DONE:
                return env

    def _wait(self, ch: queue.SimpleQueue, real_timeout: float):
        """Block on *ch*.  Under a baton, what is already queued is taken
        without letting go; otherwise the rank hands the baton over for
        exactly as long as it is blocked and holds it again when it
        returns *or raises* -- a rank that times out was never in any
        other rank's way."""
        baton = self.baton
        if baton is None:
            return ch.get(timeout=real_timeout)
        try:
            return ch.get_nowait()
        except queue.Empty:
            pass
        baton.release()
        try:
            return ch.get(timeout=real_timeout)
        finally:
            baton.acquire()

    def fail(self, exc: BaseException) -> None:
        """Record a rank failure; the failing rank's ``mark_done`` (always
        next) is what wakes the receivers blocked on it."""
        if not self.abort.is_set():
            self.abort_reason = exc
            self.abort.set()


class SimDeadlockError(RuntimeError):
    """A simulated rank blocked on a receive that can never complete."""


class SimAborted(RuntimeError):
    """Another rank of this run failed; this rank was cancelled."""


def raise_abort(table: ChannelTable) -> None:
    reason = table.abort_reason
    raise SimAborted(f"run aborted: {reason!r}") from reason
