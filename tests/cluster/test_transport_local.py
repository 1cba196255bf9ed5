"""LocalTransport specifics: the launcher is rank 0 and its resident crew
of forked members runs the others, per-rank isolation, shared-memory
shipping, rank-local state merging, and feature gating.

These tests are POSIX-only in practice (fork start method) and skip as a
module where LocalTransport is unavailable.
"""
import contextvars
import math
import os
import resource
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import MachineSpec, TransportUnavailable, run_spmd
from repro.cluster import transport as transport_mod
from repro.cluster.channel import SimDeadlockError
from repro.cluster.faults import FaultPlan, RankCrash
from repro.cluster.transport import (
    SHM_MIN_BYTES,
    LocalTransport,
    _shm_read,
    _shm_write,
    available_transports,
    rank_extras,
)
from repro.core import meter
from repro.serial import copy_stats, register_function
import repro.triolet as tri

pytestmark = pytest.mark.transport

if "local" not in available_transports(nranks=2):
    pytest.skip("LocalTransport unavailable (no fork)", allow_module_level=True)


def machine(nodes: int = 2) -> MachineSpec:
    return MachineSpec(nodes=nodes, cores_per_node=1, transport="local")


@pytest.fixture(autouse=True)
def _no_crew_outlives_a_test():
    """Every test starts with no resident crew on this thread, so the
    children and descriptors a test counts are its own."""
    yield
    LocalTransport._resident.__dict__.pop("crew", None)


def _on_its_own_thread(fn, *args, **kw):
    """``fn(*args, **kw)`` from a launching thread that is over -- and its
    crew retired with it -- when this returns; *fn*'s value or error."""
    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(fn, *args, **kw)
    return future.result()


def _add(a, b):
    return a + b


def _pid_and_sum(comm):
    """A rank function that can be sent: plain pickle takes it by name."""
    return os.getpid(), comm.allreduce(comm.rank, op=_add)


class TestProcessIsolation:
    def test_ranks_cannot_observe_each_others_meter(self):
        """Isolation is per rank: rank 0 *is* the driver, so its write to a
        driver-heap meter is the driver's; rank 1 -- in its own forked
        address space -- sees neither that write nor leaks its own."""
        shared = meter.CostMeter()

        def rank_fn(comm):
            if comm.rank == 0:
                shared.visits += 7
            comm.barrier()  # rank 0's write precedes rank 1's read
            seen = shared.visits
            if comm.rank == 1:
                shared.visits += 100
            return seen

        res = run_spmd(machine(), rank_fn, nranks=2)
        assert res.results[0] == 7  # own write visible to itself
        assert res.results[1] == 0  # peer's write invisible
        assert shared.visits == 7  # rank 0's lands in the driver, rank 1's dies

    def test_installed_meter_is_rank_private(self):
        """A meter installed inside one rank collects only that rank's
        tallies (the satellite's meter-state isolation contract)."""

        def rank_fn(comm):
            with meter.metered() as m:
                meter.tally_visits(10 * (comm.rank + 1))
                comm.barrier()
            return m.visits

        res = run_spmd(machine(), rank_fn, nranks=2)
        assert res.results == [10, 20]

    def test_rank_extras_travel_back(self):
        def rank_fn(comm):
            ext = rank_extras()
            assert ext is not None
            ext["mark"] = comm.rank * 2 + 1
            return None

        res = run_spmd(machine(), rank_fn, nranks=2)
        assert [e["mark"] for e in res.extras] == [1, 3]


class TestTheLauncherIsRankZero:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_an_n_rank_section_forks_n_minus_one_times(self, n, monkeypatch):
        """A run that cannot be sent (its rank function is a local
        closure) is hired for: n - 1 forks, every time."""
        forks, pipes, dirs = [], [], []
        fork, pipe, mkdtemp = os.fork, os.pipe, tempfile.mkdtemp

        def spy_fork():
            pid = fork()
            if pid:  # children append to their own copy of the list
                forks.append(pid)
            return pid

        def spy_pipe():
            pipes.append(pipe())
            return pipes[-1]

        def spy_mkdtemp(*a, **kw):
            dirs.append(mkdtemp(*a, **kw))
            return dirs[-1]

        monkeypatch.setattr(os, "fork", spy_fork)
        monkeypatch.setattr(os, "pipe", spy_pipe)
        monkeypatch.setattr(tempfile, "mkdtemp", spy_mkdtemp)

        def rank_fn(comm):
            return (os.getpid(), comm.allreduce(comm.rank, op=lambda a, b: a + b))

        for _ in range(2):
            del forks[:], pipes[:], dirs[:]
            res = run_spmd(machine(n), rank_fn, nranks=n)
            assert [r[1] for r in res.results] == [n * (n - 1) // 2] * n
            assert len(forks) == n - 1
            assert [r[0] for r in res.results] == [os.getpid(), *forks]
            # a pipe per ordered pair, a control and a result pipe per
            # member; a lone rank has nobody to talk to and nothing to ship
            assert len(pipes) == (n - 1) * (n + 2)
            assert len(dirs) == (1 if n > 1 else 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_run_that_can_be_sent_goes_to_the_crew(self, n, monkeypatch):
        """Hired once, the members take every later run they are fresh
        for -- a smaller one from the low ranks -- with no fork and no
        pipe; only the run's segment directory is new."""
        first = run_spmd(machine(n), _pid_and_sum, nranks=n)
        forks, pipes, dirs = [], [], []
        fork, pipe, mkdtemp = os.fork, os.pipe, tempfile.mkdtemp
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(1) or pipe())
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda *a, **kw: dirs.append(1) or mkdtemp(*a, **kw))
        assert run_spmd(machine(n), _pid_and_sum, nranks=n).results == first.results
        smaller = run_spmd(machine(n), _pid_and_sum, nranks=n - 1).results
        assert [pid for pid, _ in smaller] == [pid for pid, _ in first.results][:n - 1]
        assert forks == [] and pipes == [] and len(dirs) == (2 if n > 2 else 1)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_rank_zero_error_is_the_object_it_raised(self):
        class Boom(Exception):  # a local class: a pickled copy is impossible
            pass

        boom = Boom("root on fire")
        big = np.arange(SHM_MIN_BYTES // 8 + 64, dtype=np.float64)

        def rank_fn(comm):
            if comm.rank == 1:
                comm.Send(big, 0, tag=9)  # a segment rank 0 never reads
                return comm.recv(0, tag=5)  # blocked until rank 0 is gone
            raise boom

        before = _host_state()
        with pytest.raises(Boom) as ei:
            run_spmd(machine(), rank_fn, nranks=2, real_timeout=20.0)
        assert ei.value is boom
        assert [i.rank for i in ei.value.rank_failures][0] == 0
        assert _host_state() == before

    @pytest.mark.parametrize("raises", [False, True])
    def test_the_body_leaves_no_context_behind(self, raises):
        """Rank 0 runs in a copy of the caller's context: whatever the
        body binds (the engine's meter sink and rank store among them) is
        unbound again when ``execute`` returns or raises."""
        from repro.data.handle import _CURRENT_STORE
        from repro.runtime.section import _meter_sink

        probe = contextvars.ContextVar("probe", default="unset")
        inside = []

        def rank_fn(comm):
            inside.append(rank_extras())
            probe.set("set in rank")
            _meter_sink.set(meter.CostMeter())
            _CURRENT_STORE.set(object())
            if raises and comm.rank == 0:
                raise ValueError("after binding")
            return comm.rank

        if raises:
            with pytest.raises(ValueError, match="after binding"):
                run_spmd(machine(), rank_fn, nranks=2, real_timeout=20.0)
        else:
            run_spmd(machine(), rank_fn, nranks=2)
        assert inside == [{}]  # rank 0 ran here, with a live extras dict
        assert rank_extras() is None
        assert probe.get() == "unset"
        assert _meter_sink.get() is None and _CURRENT_STORE.get() is None


class TestSharedMemory:
    def test_shm_segment_round_trip(self):
        arr = np.arange(1024.0).reshape(32, 32)
        ref = _shm_write(arr)
        out = _shm_read(ref)
        assert out.tobytes() == arr.tobytes()
        assert out.dtype == arr.dtype and out.shape == arr.shape

    def test_shm_write_compacts_noncontiguous(self):
        arr = np.arange(64.0).reshape(8, 8).T
        assert not arr.flags.c_contiguous
        before = copy_stats()["noncontiguous_compacted"]
        ref = _shm_write(arr)
        assert copy_stats()["noncontiguous_compacted"] == before + 1
        assert _shm_read(ref).tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_serialized_bytes_ride_a_segment_too(self):
        data = bytes(range(256)) * 300
        ref = _shm_write(data)
        assert ref.dtype is None and os.path.exists(ref.name)
        assert _shm_read(ref) == data
        assert not os.path.exists(ref.name)  # the reader released it

    def test_forced_shm_path_matches_queue_path(self):
        """With the threshold forced to 1 byte every buffer send rides a
        shared-memory segment; payloads must be unchanged."""
        arr = np.linspace(0.0, 1.0, 257)

        def rank_fn(comm):
            if comm.rank == 0:
                comm.Send(arr, 1)
                return None
            return comm.Recv(0).tobytes()

        res = run_spmd(
            machine(), rank_fn, nranks=2,
            transport=LocalTransport(shm_min_bytes=1),
        )
        assert res.results[1] == arr.tobytes()


class TestFeatureGates:
    def test_fault_plans_are_sim_only(self):
        plan = FaultPlan([RankCrash(rank=1, at=0.0)])

        def rank_fn(comm):
            return comm.rank

        with pytest.raises(TransportUnavailable, match="sim-only"):
            run_spmd(machine(), rank_fn, nranks=2, faults=plan)

    def test_unpicklable_error_is_wrapped(self):
        """An exception that cannot cross the process boundary arrives as
        a RuntimeError carrying its type name and message."""

        class Boom(Exception):  # local class: unpicklable in the parent
            pass

        def rank_fn(comm):
            if comm.rank == 1:
                raise Boom("socket on fire")
            return comm.rank

        with pytest.raises(RuntimeError, match="Boom: socket on fire"):
            run_spmd(machine(), rank_fn, nranks=2, real_timeout=20.0)


    def test_unpicklable_result_is_that_ranks_error(self):
        def rank_fn(comm):
            return (lambda: 0) if comm.rank == 1 else comm.rank

        with pytest.raises(Exception, match="pickle|lambda"):
            run_spmd(machine(), rank_fn, nranks=2, real_timeout=20.0)

    def test_rank_that_dies_silently_is_reported_at_once(self):
        """A rank process that vanishes (here ``os._exit``) neither hangs
        its peers -- EOF on its pipes wakes them -- nor the launcher."""

        def rank_fn(comm):
            if comm.rank == 1:
                os._exit(3)
            return comm.recv(1, tag=0)

        t0 = time.perf_counter()
        with pytest.raises(SimDeadlockError, match="already finished") as ei:
            run_spmd(machine(), rank_fn, nranks=2, real_timeout=20.0)
        assert time.perf_counter() - t0 < 5.0
        failed = {i.rank: i.error for i in ei.value.rank_failures}
        assert "exit code 3" in str(failed[1])

    def test_rank_counts_beyond_the_descriptor_budget_are_refused(self):
        """A crew of n holds 2 n (n + 1) pipe ends, give or take: what
        ``RLIMIT_NOFILE`` cannot hold is refused, whatever ``select``
        could have watched."""
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft == resource.RLIM_INFINITY or soft < 1024:
            pytest.skip(f"RLIMIT_NOFILE is {soft}")
        LocalTransport().available(16)
        LocalTransport().available(math.isqrt(soft // 2) - 8)
        with pytest.raises(TransportUnavailable, match="descriptors"):
            LocalTransport().available(math.isqrt(soft // 2) + 1)


def _repro_modules():
    return sorted(m for m in sys.modules if m.startswith("repro"))


@register_function
def _double_publishing_modules(v):
    rank_extras()["mods"] = _repro_modules()
    return 2.0 * v


class TestNothingIsImportedInARank:
    """A forked rank that imports a module compiles and executes it on the
    critical path of every section; the parent must have loaded it all."""

    def test_plain_spmd_body_with_collectives(self):
        def rank_fn(comm):
            got = comm.gather(comm.rank, root=0)
            got = comm.bcast(got, root=0)
            comm.reduce(sum(got), lambda a, b: a + b, root=0)
            rank_extras()["mods"] = _repro_modules()

        before = _repro_modules()
        res = run_spmd(machine(), rank_fn, nranks=2)
        assert [e["mods"] for e in res.extras] == [before, before]

    def test_runtime_par_section(self):
        from repro.runtime import triolet_runtime
        from repro.serial import closure

        seen = []
        with triolet_runtime(machine()) as rt:
            h = rt.distribute(np.arange(512.0))
            merge = rt._merge_rank_extras

            def spy(extras):
                seen.extend(extras or ())
                merge(extras)

            rt._merge_rank_extras = spy
            before = _repro_modules()
            tri.sum(tri.map(closure(_double_publishing_modules), tri.par(h)))
        assert [e["mods"] for e in seen] == [before, before]


def _host_state():
    """What a section must leave as it found it: shared-segment entries,
    the test process's children, its open descriptors."""
    me = str(os.getpid())
    kids = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rpartition(")")[2].split()[1] == me:
                    kids.add(pid)
        except OSError:
            pass  # raced with an exit
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    return shm, kids, len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestNothingLeaks:
    BIG = np.arange(SHM_MIN_BYTES // 8 + 64, dtype=np.float64)

    def test_clean_section(self):
        """Once its crew has retired (here: its launching thread is over)
        a section leaves nothing behind."""
        def rank_fn(comm):
            if comm.rank == 0:
                comm.Send(self.BIG, 1, tag=1)
                return None
            return float(comm.Recv(0, tag=1).sum())

        before = _host_state()
        _on_its_own_thread(run_spmd, machine(), rank_fn, nranks=2)
        assert _host_state() == before

    def test_rank_raises_with_an_unread_segment_in_flight(self):
        def rank_fn(comm):
            if comm.rank == 0:
                comm.Send(self.BIG, 1, tag=9)  # never received
                comm.send(self.BIG, 1, tag=9)
                raise ValueError("rank 0 exploded")
            return comm.recv(0, tag=5)  # blocked until rank 0 is gone

        before = _host_state()
        with pytest.raises(ValueError, match="exploded"):
            run_spmd(machine(), rank_fn, nranks=2, real_timeout=20.0)
        assert _host_state() == before

    def test_deadline_expiry_kills_and_reaps(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "REPORT_SLACK_S", 0.2)

        def rank_fn(comm):
            if comm.rank == 1:
                comm.Send(self.BIG, 0, tag=1)  # never received
                time.sleep(60.0)
            return comm.rank

        before = _host_state()
        t0 = time.perf_counter()
        with pytest.raises(SimDeadlockError, match="1 rank process"):
            run_spmd(machine(), rank_fn, nranks=2, real_timeout=0.3)
        assert time.perf_counter() - t0 < 10.0
        assert _host_state() == before

    def test_a_forked_rank_starts_with_no_sim_crew(self):
        """Only the forking thread lives on in a fork: the launcher's
        resident ``sim`` threads are not there to take a rank, and a
        nested ``sim`` run that handed them one would wait for ever."""
        def inner(comm):
            return comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)

        def rank_fn(comm):
            if comm.rank == 1:
                return run_spmd(machine(), inner, nranks=2, transport="sim",
                                real_timeout=5.0).results
            return os.getpid()

        sim = MachineSpec(nodes=2, cores_per_node=1)
        assert run_spmd(sim, inner, nranks=2).results == [3, 3]  # a crew of one
        before = _host_state()
        t0 = time.perf_counter()
        res = run_spmd(machine(), rank_fn, nranks=2, real_timeout=5.0)
        assert time.perf_counter() - t0 < 2.5
        assert res.results == [os.getpid(), [3, 3]]
        LocalTransport._resident.crew = None  # the crew retires
        assert _host_state() == before

    def test_two_hundred_sections_leave_the_process_flat(self):
        """Two hundred runs sent to one crew: the same members, the same
        descriptors, no segment left."""
        first = run_spmd(machine(), _pid_and_sum, nranks=2).results
        before = _host_state()
        for _ in range(200):
            assert run_spmd(machine(), _pid_and_sum, nranks=2).results == first
        assert _host_state() == before


@register_function
def _double(v):
    return 2.0 * v


class TestDriverStateMerging:
    def test_second_section_ships_zero_input_bytes(self):
        """The parent-side mirror of worker-store ops must keep resident
        placement accurate across forks: the second compatible section
        over the same handle ships no input rows."""
        from repro.runtime import triolet_runtime
        from repro.serial import closure

        data = np.arange(512.0)
        with triolet_runtime(machine()) as rt:
            h = rt.distribute(data)
            s1 = tri.sum(tri.map(closure(_double), tri.par(h)))
            first = rt.last_section.data_plane
            s2 = tri.sum(tri.map(closure(_double), tri.par(h)))
            second = rt.last_section.data_plane
        assert s1 == s2 == 2.0 * data.sum()
        assert first["input_bytes"] > 0
        assert second["input_bytes"] == 0
        assert second["resident_hits"] > 0

    def test_meter_and_makespan_match_sim(self):
        """Section meters merged from rank extras equal the sim's direct
        merge, and the virtual makespan is transport-invariant."""
        from repro.runtime import triolet_runtime
        from repro.serial import closure

        data = np.arange(4096.0)

        def run(transport):
            m = MachineSpec(nodes=2, cores_per_node=1, transport=transport)
            with triolet_runtime(m) as rt:
                h = rt.distribute(data)
                v = tri.sum(tri.map(closure(_double), tri.par(h)))
            return (v, rt.meter_total, rt.elapsed, rt.last_section.wall_seconds,
                    copy_stats())

        from repro.bench import reset_run_state

        reset_run_state()
        v_sim, m_sim, t_sim, w_sim, c_sim = run("sim")
        reset_run_state()
        v_loc, m_loc, t_loc, w_loc, c_loc = run("local")
        assert v_loc == v_sim
        assert m_loc == m_sim
        assert t_loc == t_sim
        # copy counters tallied in forked ranks travel back as deltas
        assert c_loc == c_sim and c_sim["arrays"] > 0
        assert w_sim == 0.0  # sim sections never report wall time
        assert w_loc > 0.0  # real transports always do
