"""Failure injection: the simulated cluster under misbehaving programs."""
import statistics
import time

import numpy as np
import pytest

from repro.cluster import (
    BufferOverflowError,
    MachineSpec,
    RankFailureGroup,
    RankFailureInfo,
    RuntimeLimits,
    SimDeadlockError,
    run_spmd,
)

MACHINE = MachineSpec(nodes=4, cores_per_node=2)


class TestRankFailures:
    def test_exception_type_preserved(self):
        class AppError(RuntimeError):
            pass

        def main(comm):
            if comm.rank == 2:
                raise AppError("rank 2 exploded")
            comm.barrier()

        with pytest.raises(AppError, match="rank 2 exploded"):
            run_spmd(MACHINE, main, nranks=4)

    def test_failure_mid_collective_unblocks_everyone(self):
        """Ranks blocked in a reduce must not hang when a peer dies."""

        def main(comm):
            if comm.rank == 1:
                raise ValueError("died before contributing")
            return comm.allreduce(comm.rank, op=lambda a, b: a + b)

        with pytest.raises(ValueError):
            run_spmd(MACHINE, main, nranks=4, real_timeout=10.0)

    def test_lowest_failing_rank_wins(self):
        def main(comm):
            raise RuntimeError(f"boom {comm.rank}")

        with pytest.raises(RuntimeError, match="boom 0"):
            run_spmd(MACHINE, main, nranks=4)

    def test_failure_after_success_of_others(self):
        """A late failure still fails the run (no partial results leak)."""

        def main(comm):
            token = comm.bcast("ok" if comm.rank == 0 else None)
            if comm.rank == comm.size - 1:
                raise RuntimeError("late failure")
            return token

        with pytest.raises(RuntimeError, match="late failure"):
            run_spmd(MACHINE, main, nranks=4)

    def test_exception_annotated_with_failure_group(self):
        """The raised exception carries every failing rank + virtual time."""

        def main(comm):
            comm.compute(1e-3 * (comm.rank + 1))
            if comm.rank in (1, 3):
                raise RuntimeError(f"boom {comm.rank}")
            comm.barrier()

        with pytest.raises(RuntimeError, match="boom 1") as exc_info:
            run_spmd(MACHINE, main, nranks=4, real_timeout=10.0)
        exc = exc_info.value
        infos = exc.rank_failures
        assert [i.rank for i in infos] == [1, 3]
        assert all(isinstance(i, RankFailureInfo) for i in infos)
        assert all(i.vtime > 0.0 for i in infos)
        assert isinstance(exc.__cause__, RankFailureGroup)
        assert len(exc.__cause__.failures) == 2
        # the add_note() annotation names the failing ranks
        assert any("run_spmd" in n for n in getattr(exc, "__notes__", []))

    def test_failed_ranks_traced(self):
        def main(comm):
            if comm.rank == 2:
                raise RuntimeError("traced failure")
            comm.barrier()

        with pytest.raises(RuntimeError):
            run_spmd(MACHINE, main, nranks=4, real_timeout=10.0, trace=True)


class TestDeadlocks:
    def test_recv_with_no_sender_times_out(self):
        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=42)  # nobody sends tag 42

        with pytest.raises(SimDeadlockError):
            run_spmd(MACHINE, main, nranks=2, real_timeout=0.3)

    def test_cyclic_wait_times_out(self):
        def main(comm):
            # Everyone receives before sending: a classic deadlock.
            peer = (comm.rank + 1) % comm.size
            comm.recv(source=peer, tag=7)
            comm.send("x", peer, tag=7)

        with pytest.raises(SimDeadlockError):
            run_spmd(MACHINE, main, nranks=2, real_timeout=0.3)


    def test_blocked_receiver_wakes_when_its_sender_is_done(self, run_to_block=False):
        """A receiver already blocked when its source returns without
        sending learns so at once, not at the end of a poll quantum."""
        stamps = {}

        def main(comm):
            if comm.rank == 0:
                if run_to_block:
                    # rank 1 runs only once this rank blocks: wait for its
                    # word, by which time it is about to block on tag 42
                    comm.recv(source=1, tag=41)
                time.sleep(0.005)  # let rank 1 block first
                stamps["done"] = time.perf_counter()
                return
            if run_to_block:
                comm.send("about to block", 0, tag=41)
            try:
                comm.recv(source=0, tag=42)
            finally:
                stamps["woke"] = time.perf_counter()

        lags = []
        for _ in range(20):
            with pytest.raises(SimDeadlockError, match="already finished"):
                run_spmd(MACHINE, main, nranks=2, real_timeout=10.0,
                         run_to_block=run_to_block)
            lags.append(stamps["woke"] - stamps["done"])
        assert statistics.median(lags) < 0.020

    def test_blocked_receiver_wakes_under_run_to_block(self):
        """The same under the baton: the woken receiver has to get the
        baton back from a rank that is already gone."""
        self.test_blocked_receiver_wakes_when_its_sender_is_done(run_to_block=True)

    def test_a_timed_out_receiver_holds_nobody_up(self):
        """Run-to-block: the rank that waits for a message nobody sends
        is not holding the baton while it waits, so the others run to
        completion and only then does it give up."""
        finished = []

        def main(comm):
            if comm.rank == 2:
                for dst in (0, 1):
                    comm.send("waiting from here on", dst, tag=1)
                comm.recv(source=0, tag=42)  # nobody sends tag 42
            comm.recv(source=2, tag=1)
            peer = 1 - comm.rank
            comm.send(comm.rank, peer, tag=7)
            got = comm.recv(source=peer, tag=7)
            time.sleep(0.3)  # work that outlasts rank 2's deadline
            finished.append((comm.rank, got))

        t0 = time.perf_counter()
        with pytest.raises(SimDeadlockError, match="rank 2 waited"):
            run_spmd(MACHINE, main, nranks=3, real_timeout=0.2,
                     run_to_block=True)
        assert sorted(finished) == [(0, 1), (1, 0)]
        assert time.perf_counter() - t0 < 5.0


class TestBufferOverflowPropagation:
    def test_overflow_aborts_blocked_peers(self):
        limits = RuntimeLimits(max_message_bytes=100)

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1000), dest=1)  # 8000 B > 100 B limit
            else:
                comm.Recv(source=0)  # would block forever without abort

        with pytest.raises(BufferOverflowError):
            run_spmd(MACHINE, main, nranks=2, limits=limits, real_timeout=10.0)

    def test_overflow_reports_endpoints(self):
        limits = RuntimeLimits(max_message_bytes=100)

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1000), dest=1)
            else:
                comm.Recv(source=0)

        with pytest.raises(BufferOverflowError) as exc_info:
            run_spmd(MACHINE, main, nranks=2, limits=limits, real_timeout=10.0)
        assert exc_info.value.src == 0
        assert exc_info.value.dst == 1
        assert exc_info.value.nbytes > exc_info.value.limit

    def test_intra_node_exempt_when_configured(self):
        limits = RuntimeLimits(max_message_bytes=100, inter_node_only=True)

        def main(comm):
            # ranks 0 and 1 share a node (2 ranks per node)
            if comm.rank == 0:
                comm.Send(np.zeros(1000), dest=1)
                return None
            return comm.Recv(source=0).sum()

        res = run_spmd(
            MACHINE, main, nranks=2, ranks_per_node=2, limits=limits
        )
        assert res.results[1] == 0.0


class TestRecovery:
    def test_new_run_after_failure_is_clean(self):
        """A failed run must not poison subsequent runs."""

        def bad(comm):
            raise RuntimeError("bad")

        def good(comm):
            return comm.allreduce(1, op=lambda a, b: a + b)

        with pytest.raises(RuntimeError):
            run_spmd(MACHINE, bad, nranks=4)
        res = run_spmd(MACHINE, good, nranks=4)
        assert res.results == [4, 4, 4, 4]

    def test_runtime_survives_failed_section(self):
        import repro.triolet as tri
        from repro.runtime import triolet_runtime

        def boom(x):
            raise ValueError("element function failed")

        xs = np.arange(100.0)
        with triolet_runtime(MACHINE) as rt:
            with pytest.raises(ValueError, match="element function failed"):
                tri.sum(tri.map(boom, tri.par(xs)))
            # The runtime is still usable for the next section.
            assert tri.sum(tri.par(xs)) == pytest.approx(4950.0)
