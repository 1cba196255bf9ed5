"""Run-to-block scheduling of ``sim`` rank threads.

The contract: in a ``run_to_block`` run at most one rank is inside rank
code at any instant, and a rank gives way only where it blocks in a
receive; the section engine asks for it exactly for sections whose loop
is bound (no bulk plan: one Python call per element, GIL held), and for
nothing else.  Values and the virtual timeline cannot tell the two
schedulings apart -- ``test_transport_conformance.py`` holds that half.
"""
import contextlib
import errno
import os
import threading

import numpy as np
import pytest

import repro.triolet as tri
from repro.apps import jacobi
from repro.cluster import MachineSpec, run_spmd, transport
from repro.cluster.transport import SimTransport
from repro.core.engine import register_bulk, use_vectorization
from repro.runtime import triolet_runtime
from repro.serial import closure, register_function

MACHINE = MachineSpec(nodes=4, cores_per_node=1)
STEPS = 3


def _python_work(n=30_000):
    """A millisecond of pure Python: ~25 of the probe's switch intervals."""
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


class TestOneRankAtATime:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_ranks_never_overlap_in_rank_code(self, overlap_probe, nranks):
        """More rank threads than cores, a 50 us switch interval and
        milliseconds of Python between the communication calls: ranks
        that could overlap would."""

        def rank_fn(comm):
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            total = 0
            for step in range(STEPS):
                with overlap_probe:
                    _python_work()
                comm.send(comm.rank + step, right, tag=step)
                total += comm.recv(left, tag=step)
                with overlap_probe:
                    _python_work()
                total += comm.allreduce(1, op=lambda a, b: a + b)
            return total

        res = run_spmd(MACHINE, rank_fn, nranks=nranks, run_to_block=True)
        assert overlap_probe.max == 1
        assert overlap_probe.entries == 2 * STEPS * nranks
        assert res.results == [
            sum((r - 1) % nranks + step + nranks for step in range(STEPS))
            for r in range(nranks)
        ]

    def test_the_probe_sees_free_running_ranks_overlap(self, overlap_probe):
        rendezvous = threading.Barrier(3)

        def rank_fn(comm):
            with overlap_probe:
                rendezvous.wait(timeout=30.0)  # nobody leaves until all are in
            return comm.allreduce(1, op=lambda a, b: a + b)

        res = run_spmd(MACHINE, rank_fn, nranks=3)
        assert res.results == [3, 3, 3]
        assert overlap_probe.max >= 2

    def test_a_queued_message_is_taken_without_giving_way(self):
        """The interleaving itself is fixed: rank 1 takes both messages
        that were waiting for it, replies and finishes in one go, and
        rank 0 -- although its reply is there -- resumes only then."""
        for _ in range(20):
            log = []

            def rank_fn(comm):
                if comm.rank == 0:
                    log.append("0 start")
                    comm.send("a", 1, tag=1)
                    comm.send("b", 1, tag=2)
                    log.append("0 sent")
                    comm.recv(1, tag=3)  # blocks: rank 1 has not run yet
                    log.append("0 end")
                else:
                    comm.recv(0, tag=1)
                    log.append("1 got a")
                    comm.recv(0, tag=2)
                    log.append("1 got b")
                    comm.send("c", 0, tag=3)
                    log.append("1 sent")

            run_spmd(MACHINE, rank_fn, nranks=2, run_to_block=True)
            assert log == ["0 start", "0 sent", "1 got a", "1 got b",
                           "1 sent", "0 end"]

    def test_the_lock_is_per_run_and_only_where_ranks_could_overlap(self):
        def baton_of(comm):
            return comm.ctx.channels.baton

        def held(comm):
            return baton_of(comm).locked()

        two = run_spmd(MACHINE, baton_of, nranks=2, run_to_block=True).results
        again = run_spmd(MACHINE, baton_of, nranks=2, run_to_block=True).results
        assert two[0] is two[1] and two[0] is not again[0]
        assert not two[0].locked()  # every rank let go on its way out
        assert run_spmd(MACHINE, held, nranks=2, run_to_block=True).results == [
            True, True]
        # one rank has nobody to give way to; free-running ranks have no baton
        assert run_spmd(MACHINE, baton_of, nranks=1, run_to_block=True).results == [
            None]
        assert run_spmd(MACHINE, baton_of, nranks=2).results == [None, None]

    def test_a_failing_rank_lets_go_and_the_blocked_survivors_abort(self):
        def rank_fn(comm):
            if comm.rank == 0:
                for src in (1, 2):
                    comm.recv(src, tag=1)  # both survivors are blocked by now
                raise ValueError("rank 0 exploded")
            comm.send("blocking next", 0, tag=1)
            comm.recv(0, tag=2)  # never sent

        with pytest.raises(ValueError, match="exploded"):
            run_spmd(MACHINE, rank_fn, nranks=3, real_timeout=20.0,
                     run_to_block=True)


# -- where: a baton run lives on its launcher's CPU ----------------------------

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")

_current_cpu = SimTransport._cpu


def _mask():
    return os.sched_getaffinity(0)


def _crew_masks() -> list:
    """The masks of this process's live ``sim`` rank threads (one that
    ends while it is being read has none)."""
    masks = []
    for t in threading.enumerate():
        if t.name.startswith("sim-rank-"):
            with contextlib.suppress(ProcessLookupError):
                masks.append(os.sched_getaffinity(t.native_id))
    return masks


def _ring(comm):
    """Where the body ran, and a value and clocks that depend on the
    messages: hand-overs at every receive."""
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    where = (_mask(), _current_cpu())
    comm.send(comm.rank, right, tag=1)
    got = comm.recv(left, tag=1)
    return where, got + comm.allreduce(comm.rank, op=lambda a, b: a + b)


@pytest.fixture
def cpu_reads(monkeypatch):
    """The CPU each ``SimTransport._cpu`` call read, in order."""
    seen = []

    def spy():
        seen.append(_current_cpu())
        return seen[-1]

    monkeypatch.setattr(SimTransport, "_cpu", staticmethod(spy))
    return seen


@needs_affinity
class TestABatonRunLivesOnOneCPU:
    """The ranks of a ``run_to_block`` run hand one baton around; each
    body runs pinned to the CPU the launcher was on as the run started,
    and every thread is put back on its own mask afterwards."""

    @pytest.fixture(autouse=True)
    def _everyone_back_home(self):
        home = _mask()
        yield
        assert _mask() == home
        assert all(m == home for m in _crew_masks()), _crew_masks()

    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_every_body_is_pinned_to_the_launchers_cpu(self, cpu_reads, nranks):
        res = run_spmd(MACHINE, _ring, nranks=nranks, run_to_block=True)
        (cpu,) = cpu_reads  # read once, by the launcher
        assert [where for where, _ in res.results] == [({cpu}, cpu)] * nranks

    def test_free_and_one_rank_runs_keep_the_launchers_mask(self, cpu_reads):
        home = _mask()
        free = run_spmd(MACHINE, _ring, nranks=3)
        one = run_spmd(MACHINE, _ring, nranks=1, run_to_block=True)
        assert [where[0] for where, _ in free.results + one.results] == [home] * 4
        assert cpu_reads == []

    @pytest.mark.parametrize("raising", [0, 1])
    def test_a_raising_rank_leaves_no_thread_pinned(self, raising):
        def rank_fn(comm):
            if comm.rank == raising:
                raise ValueError("exploded")
            comm.recv(raising, tag=1)  # never sent: aborts

        with pytest.raises(ValueError, match="exploded"):
            run_spmd(MACHINE, rank_fn, nranks=3, real_timeout=20.0,
                     run_to_block=True)

    def test_a_free_run_inside_a_baton_body(self):
        """The nested launcher stays pinned for its body; its crew -- idle
        or hired right then -- runs on the mask the launcher has outside
        the baton run."""
        home = _mask()

        def outer(comm):
            pinned = _mask()
            inner = run_spmd(MACHINE, lambda c: _mask(), nranks=4).results
            return pinned, inner, _mask()

        res = run_spmd(MACHINE, outer, nranks=2, run_to_block=True)
        for pinned, inner, after in res.results:
            assert len(pinned) == 1 and after == pinned
            assert inner == [pinned, home, home, home]

    def test_a_launcher_restricted_to_one_cpu_pins_there(self, sim_crew):
        """On a CPU other than 0, from a thread of its own (whose crew is
        born restricted and goes with it)."""
        target = max(_mask())
        if target == 0:
            pytest.skip("needs a second CPU")
        out, crew = {}, set()

        def ring(comm):
            crew.add(threading.get_native_id())
            return _ring(comm)

        def launcher():
            os.sched_setaffinity(0, {target})
            res = run_spmd(MACHINE, ring, nranks=3, run_to_block=True)
            out["where"] = [where for where, _ in res.results]
            out["after"] = _mask()

        t = threading.Thread(target=launcher)
        t.start()
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert out == {"where": [({target}, target)] * 3, "after": {target}}
        assert len(crew) == 3
        assert sim_crew.settles(gone=crew)  # its restricted crew is gone


@needs_affinity
class TestUnpinnedFallback:
    """Where a thread cannot be pinned the run goes on as it is, with the
    values and clocks of a pinned one."""

    @pytest.mark.parametrize("cannot", ["missing", "refused", "unread"])
    def test_the_run_completes_unpinned(self, monkeypatch, cannot):
        home = _mask()
        expected = run_spmd(MACHINE, _ring, nranks=3, run_to_block=True)

        def refuse(pid, mask):
            raise OSError(errno.EPERM, "refused")

        def unreadable(*args, **kw):
            raise FileNotFoundError(errno.ENOENT, "no /proc here")

        if cannot == "missing":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        elif cannot == "refused":
            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        else:
            monkeypatch.setattr(transport, "open", unreadable, raising=False)
        res = run_spmd(MACHINE, _ring, nranks=3, run_to_block=True)
        assert [v for _, v in res.results] == [v for _, v in expected.results]
        assert res.final_clocks == expected.final_clocks
        assert [where[0] for where, _ in res.results] == [home] * 3


# -- who decides: the section engine, from the fact behind loop="bound" -----

_probe = None  # the running test's OverlapProbe


@register_function
def _square(x):
    with _probe:
        _python_work(2_000)
    return x * x


@register_function
def _square_no_bulk(x):
    with _probe:
        _python_work(2_000)
    return x * x


register_bulk(_square, lambda xs: xs * xs)

XS = np.arange(64.0)
TWO_RANKS = MachineSpec(nodes=2, cores_per_node=1)


@pytest.fixture
def launches(monkeypatch, section_launches, overlap_probe):
    """``section_launches``, with the probe of ``_square`` installed."""
    monkeypatch.setitem(globals(), "_probe", overlap_probe)
    return section_launches


def _sum_of_squares(fn):
    with triolet_runtime(TWO_RANKS) as rt:
        out = tri.sum(tri.map(closure(fn), tri.par(XS)))
    assert out == float(np.sum(XS * XS))
    (record,) = rt.sections
    assert record.nodes == 2
    return record


class TestTheSectionEngineDecides:
    def test_vectorization_off_runs_to_block(self, launches, overlap_probe):
        with use_vectorization(False):
            record = _sum_of_squares(_square)
        assert record.plan is None
        assert launches == [True]
        assert overlap_probe.entries == len(XS)
        assert overlap_probe.max == 1

    def test_an_unsupported_plan_runs_to_block(self, launches, overlap_probe):
        record = _sum_of_squares(_square_no_bulk)
        assert record.plan is None
        assert launches == [True]
        assert overlap_probe.entries == len(XS)
        assert overlap_probe.max == 1

    def test_the_same_pipeline_with_a_bulk_form_runs_free(self, launches):
        record = _sum_of_squares(_square)
        assert record.plan is not None
        assert launches == [False]

    def test_a_stencil_sweep_runs_free(self, launches):
        problem = jacobi.make_problem(n=64, iterations=3)
        with use_vectorization(False):  # not what a stencil goes by
            run = jacobi.run_triolet(problem, TWO_RANKS)
        assert run.ok
        assert launches == [False]  # one section, three supersteps
