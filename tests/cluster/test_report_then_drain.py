"""A ``local`` member reports its run as soon as its body is over, and
only then reads the run's last frames: the next run's first frame may
reach it in the same read as this run's done frame, and a member that
sat out a run has not seen what that run sent.  Both are races a crew
must win every time; these tests run them many times over."""
import os
import time
from unittest import mock

import numpy as np
import pytest

import repro.triolet as tri
from repro.bench import reset_run_state
from repro.cluster import MachineSpec, run_spmd
from repro.cluster.transport import SHM_MIN_BYTES, LocalTransport, available_transports
from repro.runtime import triolet_runtime
from repro.serial import register_function
from tests.cluster.test_transport_local import _host_state, _on_its_own_thread

pytestmark = pytest.mark.transport

if "local" not in available_transports(nranks=3):
    pytest.skip("LocalTransport unavailable (no fork)", allow_module_level=True)


@pytest.fixture(autouse=True)
def _no_crew_outlives_a_test():
    yield
    LocalTransport._resident.__dict__.pop("crew", None)


def _machine(nodes):
    return MachineSpec(nodes=nodes, cores_per_node=1, transport="local")


def _both_send_first(comm, k):
    """Each rank sends before it receives; every seventh run also sends a
    window-sized buffer, which rides the pair's shared window."""
    peer = 1 - comm.rank
    comm.send(k + comm.rank, peer, tag=3)
    if k % 7 == 0:
        comm.Send(np.full(SHM_MIN_BYTES // 8, float(k + comm.rank)), peer, tag=4)
    got = comm.recv(peer, tag=3)
    if k % 7 == 0:
        assert comm.Recv(peer, tag=4)[0] == got
    return got


def test_five_hundred_runs_in_which_both_ranks_send_first():
    """Back to back on one crew: whatever a rank reads ahead of its next
    run is that run's, never the last one's."""
    def runs():
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            got = [run_spmd(_machine(2), _both_send_first, nranks=2,
                            args=(k,)).results for k in range(500)]
        return got, fork.call_count

    got, forks = _on_its_own_thread(runs)
    assert forks == 1
    assert got == [[k + 1, k] for k in range(500)]


def _root_last(comm, k):
    """Rank 0 sends first and finishes last: its member reports, and reads
    this run's last frames -- and, often, the next run's first ones --
    while rank 0 is still running."""
    if comm.rank == 0:
        comm.send(k, 1, tag=6)
        reply = comm.recv(1, tag=6)
        time.sleep(0.0005)
        return reply
    got = comm.recv(0, tag=6)
    comm.send(got + 1, 0, tag=6)
    return got


def test_five_hundred_runs_whose_root_sends_first_and_ends_last():
    def runs():
        return [run_spmd(_machine(2), _root_last, nranks=2, args=(k,),
                         real_timeout=10.0).results for k in range(500)]

    assert _on_its_own_thread(runs) == [[k + 1, k] for k in range(500)]


def _ring(comm, k):
    """Every rank sends to the next and receives from the last, twice."""
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    out = []
    for step in range(2):
        comm.send((k, step, comm.rank), right, tag=5)
        out.append(comm.recv(left, tag=5))
    return out


def test_a_member_that_sat_out_a_run_reads_nothing_of_it():
    """3, 2, 3 ranks on one crew, repeated: member 2 sits out every second
    run and its pipes carry nothing of it into the next."""
    def runs():
        got = []
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            for k, n in enumerate((3, 2, 3) * 20):
                got.append((n, k, run_spmd(_machine(3), _ring, nranks=n,
                                           args=(k,)).results))
        return got, fork.call_count

    got, forks = _on_its_own_thread(runs)
    assert forks == 2
    for n, k, results in got:
        assert results == [[(k, step, (r - 1) % n) for step in range(2)]
                           for r in range(n)]


@register_function
def _doubled(v):
    return 2.0 * v


def _plain(x):
    return tri.sum(tri.par(tri.iterate(x)))


def _mapped(x):
    return tri.sum(tri.map(_doubled, tri.par(tri.iterate(x))))


def test_a_member_that_sat_out_a_run_is_sent_what_it_missed():
    """A plan first sent in a 2-rank section reaches member 1 only: the
    next 3-rank section carries it to member 2, which cannot have it
    named (what a member holds is its own, not its crew's)."""
    x = np.arange(96.0)

    def runs():
        before = _host_state()
        sums = []
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            for n, program in ((3, _plain), (2, _mapped), (3, _mapped)):
                with triolet_runtime(_machine(n)):
                    sums.append(program(x))
        return sums, fork.call_count, before

    reset_run_state()
    sums, forks, before = _on_its_own_thread(runs)
    assert sums == [x.sum(), 2.0 * x.sum(), 2.0 * x.sum()]
    assert forks == 2  # the first section hires; the others are sent
    assert _host_state() == before
