"""LocalTransport specifics: the launcher is rank 0 and its resident crew
of forked members runs the others, per-rank isolation, shared-window
shipping, rank-local state merging, and feature gating.

These tests are POSIX-only in practice (fork start method) and skip as a
module where LocalTransport is unavailable.
"""
import contextvars
import math
import os
import resource
import signal
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from repro.cluster import MachineSpec, TransportUnavailable, run_spmd
from repro.cluster import transport as transport_mod
from repro.cluster.channel import SimDeadlockError
from repro.cluster.faults import FaultPlan, RankCrash
from repro.cluster.transport import (
    SHM_MIN_BYTES,
    LocalTransport,
    _Window,
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
    """``fn(*args, **kw)``, in a copy of the caller's context (its run
    state), from a launching thread that is over -- and its crew retired
    with it -- when this returns; *fn*'s value or error."""
    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(contextvars.copy_context().run, fn, *args, **kw)
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
        closure) is hired for: n - 1 forks, every time, and no directory."""
        forks, pipes, windows, dirs = [], [], [], []
        fork, pipe, memfd, mkdtemp = (os.fork, os.pipe, os.memfd_create,
                                      tempfile.mkdtemp)

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
        monkeypatch.setattr(os, "memfd_create",
                            lambda *a: windows.append(1) or memfd(*a))
        monkeypatch.setattr(tempfile, "mkdtemp", spy_mkdtemp)

        def rank_fn(comm):
            return (os.getpid(), comm.allreduce(comm.rank, op=lambda a, b: a + b))

        for _ in range(2):
            del forks[:], pipes[:], windows[:], dirs[:]
            res = run_spmd(machine(n), rank_fn, nranks=n)
            assert [r[1] for r in res.results] == [n * (n - 1) // 2] * n
            assert len(forks) == n - 1
            assert [r[0] for r in res.results] == [os.getpid(), *forks]
            # a pipe and a window per ordered pair, a control and a result
            # pipe per member; a lone rank has nobody to talk to
            assert len(pipes) == (n - 1) * (n + 2)
            assert len(windows) == n * (n - 1)
            assert dirs == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_run_that_can_be_sent_goes_to_the_crew(self, n, monkeypatch):
        """Hired once, the members take every later run they are fresh
        for -- a smaller one from the low ranks -- with no fork, no pipe,
        no window and no directory."""
        first = run_spmd(machine(n), _pid_and_sum, nranks=n)
        made = []
        for mod, name in ((os, "fork"), (os, "pipe"), (os, "memfd_create"),
                          (tempfile, "mkdtemp")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, real=real, name=name, **kw:
                                made.append(name) or real(*a, **kw))
        assert run_spmd(machine(n), _pid_and_sum, nranks=n).results == first.results
        smaller = run_spmd(machine(n), _pid_and_sum, nranks=n - 1).results
        assert [pid for pid, _ in smaller] == [pid for pid, _ in first.results][:n - 1]
        assert made == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_rank_zero_error_is_the_object_it_raised(self):
        class Boom(Exception):  # a local class: a pickled copy is impossible
            pass

        boom = Boom("root on fire")
        big = np.arange(SHM_MIN_BYTES // 8 + 64, dtype=np.float64)

        def rank_fn(comm):
            if comm.rank == 1:
                comm.Send(big, 0, tag=9)  # a window payload rank 0 never reads
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


@pytest.fixture
def window():
    """A pair's two ends of one window: the writer's, and the reader's on
    its own descriptor and mapping, as another process holds it."""
    fd = os.memfd_create("test-window")
    writer, reader = _Window(fd), _Window(os.dup(fd))
    yield writer, reader
    writer.close()
    reader.close()


def _send_two_take(comm, taken):
    """Rank 0 sends rank 1 two window-sized payloads; rank 1 takes the
    first *taken* of them (the run drops the rest)."""
    a = np.arange(SHM_MIN_BYTES // 8, dtype=np.float64)
    if comm.rank == 0:
        comm.Send(a, 1, tag=1)
        comm.Send(a + 1.0, 1, tag=2)
        return None
    return [comm.Recv(0, tag=t).tobytes() for t in (1, 2)[:taken]]


class TestSharedMemory:
    def test_an_ndarray_round_trips_through_a_window(self, window):
        writer, reader = window
        arr = np.arange(1024.0).reshape(32, 32)
        slot = writer.put(arr)
        assert slot == (_Window.HEAD, arr.nbytes, arr.dtype.str, arr.shape)
        out = reader.take(*slot)
        assert out.tobytes() == arr.tobytes()
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.flags.owndata and out.flags.writeable  # the reader's own

    def test_a_strided_view_is_compacted_into_a_window(self, window):
        writer, reader = window
        arr = np.arange(64.0).reshape(8, 8).T
        assert not arr.flags.c_contiguous
        before = copy_stats()["noncontiguous_compacted"]
        slot = writer.put(arr)
        assert copy_stats()["noncontiguous_compacted"] == before + 1
        assert reader.take(*slot).tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_serialized_bytes_ride_a_window_too(self, window):
        writer, reader = window
        data = bytes(range(256)) * 300
        first = writer.put(b"x" * 100)
        slot = writer.put(data)  # the first is not taken yet: after it, aligned
        assert slot == (first[0] + 128, len(data), None, None)
        assert reader.take(*slot) == data
        assert reader.take(*first) == b"x" * 100

    def test_space_is_reused_once_the_reader_has_taken_all(self, window):
        """A ping-pong of one payload at a time keeps landing at the front;
        one left unread keeps the next behind it."""
        writer, reader = window
        a = np.arange(8192.0)
        for k in range(3):
            slot = writer.put(a + k)
            assert slot[0] == _Window.HEAD
            assert reader.take(*slot).tobytes() == (a + k).tobytes()
        unread = writer.put(a)
        assert writer.put(a)[0] == unread[0] + a.nbytes
        assert os.fstat(writer.fd).st_size == 1 << 20

    def test_a_payload_larger_than_the_window_grows_it(self, window):
        """The writer grows the file; a reader mapped before the growth
        re-maps and reads the bytes past its old mapping."""
        writer, reader = window
        small = np.arange(16.0)
        assert reader.take(*writer.put(small)).tobytes() == small.tobytes()
        size = os.fstat(writer.fd).st_size
        assert len(reader.map) == size
        big = np.random.default_rng(0).random(size // 8 + 1000)
        slot = writer.put(big)
        assert os.fstat(writer.fd).st_size >= slot[0] + big.nbytes > size
        assert reader.take(*slot).tobytes() == big.tobytes()
        assert len(reader.map) == os.fstat(writer.fd).st_size

    def test_a_second_run_starts_again_at_the_front(self, monkeypatch):
        """Both runs go through the same window (the second is sent to the
        crew).  The first run leaves a payload unread, and the second still
        puts its first payload at the window's start."""
        put, seen = _Window.put, []

        def spy(self, payload):
            slot = put(self, payload)
            seen.append((id(self), slot[0]))
            return slot

        monkeypatch.setattr(_Window, "put", spy)  # rank 0's, in this process
        runs = [run_spmd(machine(), _send_two_take, nranks=2, args=(taken,))
                for taken in (1, 2)]
        a = np.arange(SHM_MIN_BYTES // 8, dtype=np.float64)
        assert runs[0].results[1] == [a.tobytes()]
        assert runs[1].results[1] == [a.tobytes(), (a + 1.0).tobytes()]
        assert len({w for w, _ in seen}) == 1
        offsets = [off for _, off in seen]
        assert offsets[0] == offsets[2] == _Window.HEAD

    def test_forced_shm_path_matches_queue_path(self):
        """With the threshold forced to 1 byte every buffer send rides a
        shared window; payloads must be unchanged."""
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
        """A crew of n holds 3 n (n + 1) pipe ends and windows, give or
        take: what ``RLIMIT_NOFILE`` cannot hold is refused, whatever
        ``select`` could have watched."""
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if soft == resource.RLIM_INFINITY or soft < 1024:
            pytest.skip(f"RLIMIT_NOFILE is {soft}")
        LocalTransport().available(16)
        LocalTransport().available(math.isqrt(soft // 3) - 8)
        with pytest.raises(TransportUnavailable, match="descriptors"):
            LocalTransport().available(math.isqrt(soft // 3) + 1)


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


def _windows_both_ways(comm, die):
    """Every rank sends every other a window-sized payload, then takes
    what it was sent; with *die*, rank 1 is SIGKILLed in between."""
    mine = np.arange(SHM_MIN_BYTES // 8 + 64, dtype=np.float64) * (comm.rank + 1)
    peers = [p for p in range(comm.size) if p != comm.rank]
    for p in peers:
        comm.Send(mine, p, tag=4)
    if die and comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return [comm.Recv(p, tag=4).tobytes() for p in peers]


def _host_state():
    """What a section must leave as it found it: entries under /dev/shm,
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
        """The payloads rank 1 never reads stay in its window, which goes
        with the crew the failed run retires."""
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

    def test_a_member_killed_mid_run_with_windows_in_flight(self):
        """Rank 1 of a run sent to the crew is SIGKILLed with window-sized
        payloads in flight both ways: the run fails naming it, the crew
        retires -- no child, no descriptor, nothing under /dev/shm -- and
        the next run hires anew and computes the same bits."""
        before = _host_state()
        warm = run_spmd(machine(3), _windows_both_ways, nranks=3, args=(False,))
        with pytest.raises(RuntimeError, match="rank 1 died unreported"):
            run_spmd(machine(3), _windows_both_ways, nranks=3, args=(True,),
                     real_timeout=20.0)
        assert _host_state() == before
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            again = run_spmd(machine(3), _windows_both_ways, nranks=3,
                             args=(False,))
        assert fork.call_count == 2
        assert again.results == warm.results
        assert again.results == run_spmd(
            MachineSpec(nodes=3, cores_per_node=1), _windows_both_ways,
            nranks=3, args=(False,)).results

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
        descriptors, nothing left under /dev/shm."""
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
