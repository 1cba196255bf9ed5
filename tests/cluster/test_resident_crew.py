"""The resident crew of ``sim``: who runs a rank, and what is left behind.

The thread that launches a run is its rank 0; ranks >= 1 run on threads
that outlive the run and serve the launching thread's next one.  Wall
clock only: values, virtual clocks and what a failed run's exception
carries are what a thread per rank per run produced (the recorded shapes
below were taken from that launcher), a rank body may launch runs of its
own from any rank, an idle crew thread holds nothing of the run it
served, and a crew is bounded by its last run and gone with its owner.
"""
import gc
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import FaultPlan, MachineSpec, RankCrash, RankLoss, run_spmd
from repro.cluster.transport import SimTransport, rank_extras

MACHINE = MachineSpec(nodes=4, cores_per_node=2)
BOTH = pytest.mark.parametrize(
    "run_to_block", [False, True], ids=["free-running", "run_to_block"])


def _add(a, b):
    return a + b


def _ident(comm):
    comm.barrier()
    return threading.get_ident()


class TestWhoRunsARank:
    @pytest.fixture(autouse=True)
    def _nobody_resident(self, sim_crew):
        """A crew thread that launched runs of its own in an earlier test
        owns a crew too; retiring this thread's retires those with it."""
        run_spmd(MACHINE, _ident, 1)
        assert sim_crew.settles(0)

    @BOTH
    def test_rank_zero_is_the_launcher_and_the_crew_serves_the_next_run(
        self, run_to_block, thread_starts
    ):
        first = run_spmd(MACHINE, _ident, 3, run_to_block=run_to_block).results
        del thread_starts[:]
        again = run_spmd(MACHINE, _ident, 3, run_to_block=run_to_block).results
        assert first[0] == again[0] == threading.get_ident()
        assert len(set(first)) == 3 and again == first  # rank r keeps its thread
        assert thread_starts == []

    def test_one_rank_needs_nobody(self, thread_starts):
        run = run_spmd(MACHINE, _ident, 1)
        assert run.results == [threading.get_ident()]
        assert thread_starts == []

    def test_a_run_leaves_at_most_twice_the_threads_it_used(
        self, thread_starts, sim_crew
    ):
        run_spmd(MACHINE, _ident, 4)
        run_spmd(MACHINE, _ident, 2)
        assert sim_crew.settles(2)
        del thread_starts[:]
        run_spmd(MACHINE, _ident, 3)  # lost a rank, grew back: nobody hired
        assert thread_starts == []
        run_spmd(MACHINE, _ident, 1)
        assert sim_crew.settles(0)

    def test_a_crew_goes_with_the_thread_that_owns_it(self, sim_crew):
        seen = []
        owner = threading.Thread(
            target=lambda: seen.extend(run_spmd(MACHINE, _ident, 3).results))
        owner.start()
        owner.join(10.0)
        assert not owner.is_alive() and seen[0] == owner.ident
        assert sim_crew.settles(0)

    def test_launchers_side_by_side_have_crews_of_their_own(self, sim_crew):
        """Four launching threads on two cores, a 50 us switch interval:
        every run sums its own ranks' values, whoever else is running."""
        totals = {}

        def launcher(k):
            def rank_fn(comm):
                return comm.allreduce(k * 10 + comm.rank, op=_add)

            totals[k] = {
                tuple(run_spmd(MACHINE, rank_fn, 3, run_to_block=i % 2 == 1,
                               real_timeout=20.0).results)
                for i in range(40)
            }

        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            threads = [threading.Thread(target=launcher, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert totals == {k: {(30 * k + 3,) * 3} for k in range(4)}
        assert sim_crew.settles(4)  # this thread's

    def test_an_interrupted_wait_orphans_nobody(self, sim_crew):
        """Ctrl-C while the launcher waits for its crew: the busy thread
        cannot be handed back, so it retires when its rank is over."""
        assert threading.current_thread() is threading.main_thread()
        run_spmd(MACHINE, _ident, 2)
        release = threading.Event()

        def rank_fn(comm):
            if comm.rank == 0:
                return comm.send("go", 1)
            comm.recv(0)
            time.sleep(0.2)  # the launcher is waiting for this rank by now
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            release.wait(10.0)

        try:
            with pytest.raises(KeyboardInterrupt):
                run_spmd(MACHINE, rank_fn, 2)
        finally:
            release.set()
        # every live crew thread is one this thread can hand a rank to
        assert sim_crew.settles(len(SimTransport._resident.crew.idle))
        assert run_spmd(MACHINE, _ident, 2).results[0] == threading.get_ident()


# -- what a failed run's exception carries ----------------------------------


class Halt(BaseException):
    """Not an ``Exception``: what ``except Exception`` lets through."""


def _program(failing=None, exc_type=ValueError):
    def rank_fn(comm):
        rank_extras()["rank"] = comm.rank
        comm.compute(1e-3 * (comm.rank + 1))
        if comm.rank == 0:
            for dst in range(1, comm.size):
                comm.send(np.arange(64.0), dst, tag=3)
        else:
            comm.recv(0, tag=3)
        rank_extras()["got"] = comm.clock.now
        if comm.rank == failing:
            raise exc_type(f"rank {failing}")
        return comm.allreduce(comm.rank, op=_add)

    return rank_fn


_GOT = [float.fromhex(h) for h in (
    "0x1.0778083e2bce8p-10", "0x1.0667f90d9d777p-9", "0x1.897a67a52ac75p-9")]

#: name -> (rank_fn, fault, the raised type's name, the failing rank and its
#: virtual time, every rank's final clock, the ranks that got past ``got``):
#: recorded from the launcher that started a thread per rank per run
RECORDED = {
    "rank-1-raises": (
        _program(1), None, "ValueError", (1, "0x1.0667f90d9d777p-9"),
        ("0x1.0778083e2bce8p-10", "0x1.0667f90d9d777p-9",
         "0x1.89bd94b1b9873p-9"), (0, 1, 2)),
    "rank-0-halts": (
        _program(0, Halt), None, "Halt", (0, "0x1.0778083e2bce8p-10"),
        ("0x1.0778083e2bce8p-10", "0x1.06ab261a2c375p-9",
         "0x1.89bd94b1b9873p-9"), (0, 1, 2)),
    "rank-crash": (
        _program(), RankCrash(rank=2, at=0.0), "RankFailure",
        (2, "0x1.89374bc6a7efap-9"),
        ("0x1.0d7bfab3761fdp-9", "0x1.06ab261a2c375p-9",
         "0x1.89374bc6a7efap-9"), (0, 1)),
    "rank-loss": (
        _program(), RankLoss(rank=1, at=1.5e-3), "RankFailure",
        (1, "0x1.0624dd2f1a9fcp-9"),
        ("0x1.0778083e2bce8p-10", "0x1.0624dd2f1a9fcp-9",
         "0x1.89bd94b1b9873p-9"), (0, 2)),
}


class TestAFailedRunLeavesTheCrewAsItWas:
    @BOTH
    @pytest.mark.parametrize("case", RECORDED)
    def test_the_exception_is_the_recorded_one_and_the_same_crew_goes_on(
        self, case, run_to_block, thread_starts
    ):
        rank_fn, fault, raised, (rank, vtime), clocks, got = RECORDED[case]
        before = run_spmd(MACHINE, _ident, 3).results
        del thread_starts[:]
        faults = FaultPlan(faults=(fault,)) if fault is not None else None
        with pytest.raises(BaseException) as info:
            run_spmd(MACHINE, rank_fn, 3, faults=faults, real_timeout=10.0,
                     run_to_block=run_to_block)
        exc = info.value
        assert type(exc).__name__ == raised
        assert [(i.rank, i.vtime.hex(), i.error) for i in exc.rank_failures] == [
            (rank, vtime, exc)]
        assert [c.hex() for c in exc.final_clocks] == list(clocks)
        assert exc.rank_extras == [
            {"rank": r, "got": _GOT[r]} if r in got else {"rank": r}
            for r in range(3)
        ]
        assert run_spmd(MACHINE, _ident, 3).results == before
        assert thread_starts == []


# -- a rank body that launches runs of its own ------------------------------


class TestARankBodyLaunchesItsOwnRun:
    @settings(max_examples=25)
    @given(
        nranks=st.integers(2, 4),
        values=st.lists(st.integers(-99, 99), min_size=4, max_size=4),
        path=st.lists(st.integers(0, 3), min_size=1, max_size=2),
        run_to_block=st.booleans(),
    )
    def test_nested_runs_return_what_the_flat_program_returns(
        self, nranks, values, path, run_to_block
    ):
        """``path`` names the rank that launches the next level: rank 0 is
        the launcher's own thread (its crew is busy with this run), any
        other a crew thread (it has a crew of its own)."""

        def program(path):
            def rank_fn(comm):
                comm.compute(1e-4 * (comm.rank + 1))
                total = comm.allreduce(values[comm.rank], op=_add)
                if path and comm.rank == path[0] % comm.size:
                    return total, launch(path[1:])
                return total

            return rank_fn

        def launch(path):
            return run_spmd(MACHINE, program(path), nranks, real_timeout=20.0,
                            run_to_block=run_to_block)

        flat = launch([])
        assert flat.results == [sum(values[:nranks])] * nranks
        run = launch(path)
        for launching in [*path, None]:  # level by level, innermost last
            assert run.final_clocks == flat.final_clocks
            assert run.metrics.bytes_sent == flat.metrics.bytes_sent
            totals = list(run.results)
            if launching is not None:
                totals[launching % nranks], run = totals[launching % nranks]
            assert totals == flat.results

    def test_a_nested_run_never_queues_behind_the_run_it_is_part_of(self):
        """Every rank of the outer run is still in its body while the inner
        runs go: a crew shared with them would never come free."""

        def inner(comm):
            return comm.allreduce(1, op=_add)

        def outer(comm):
            got = run_spmd(MACHINE, inner, 3, real_timeout=5.0).results
            comm.barrier()  # nobody is over before everybody's inner run is
            return got

        assert run_spmd(MACHINE, outer, 3, real_timeout=5.0).results == [
            [3, 3, 3]] * 3


# -- nothing outlives the run on a resident thread --------------------------


class Witness:
    """Something a weak reference can watch."""


class Boom(Exception):
    pass


@pytest.fixture
def refcounting_alone():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _watched_run(failing, run_to_block):
    """One 3-rank run; weak references to its ``rank_fn`` closure and, per
    rank, to a local of the rank's frame (alive while a traceback through
    it is), to its result and, where it failed, to its exception."""
    watched = {}

    def rank_fn(comm):
        local, result = Witness(), Witness()
        watched[comm.rank] = [weakref.ref(local), weakref.ref(result)]
        if comm.rank == failing:
            exc = Boom(f"rank {failing}")
            watched[comm.rank].append(weakref.ref(exc))
            raise exc
        comm.barrier()  # the survivors of a failed run abort in here
        return result

    closure_ref = weakref.ref(rank_fn)
    try:
        res = run_spmd(MACHINE, rank_fn, 3, real_timeout=10.0,
                       run_to_block=run_to_block)
        assert failing is None and all(
            ref() is res.results[r] for r, (_, ref) in watched.items())
    except Boom as exc:
        # Done with it, as a caller that recovers is: let the traceback go
        # and untie what ``run_spmd`` tied to it (``rank_failures[i].error``
        # and the group it was raised from point back at it).
        assert exc is watched[failing][2]()
        exc.__traceback__ = exc.__cause__ = None
        vars(exc).clear()
    return [closure_ref, *(ref for r in sorted(watched) for ref in watched[r])]


@pytest.mark.usefixtures("refcounting_alone")
class TestNothingOutlivesTheRun:
    @BOTH
    @pytest.mark.parametrize("failing", [None, 0, 1, 2])
    def test_the_run_is_dead_the_moment_its_caller_lets_go(
        self, failing, run_to_block
    ):
        for _ in range(2):  # a hired crew, then one that has served before
            refs = _watched_run(failing, run_to_block)
            assert len(refs) == (7 if failing is None else 8)
            assert [ref() for ref in refs] == [None] * len(refs)
