"""The run state is one value in one context variable: the engine's
vectorization flag and chunk, the cost context and the plan cache.

It follows the context, not the process: two launching threads with
different states each see only their own in every rank, a ``local``
member runs under exactly its launcher's, a thread started without a
copy of a context sees the defaults, and no environment variable sets
any of it."""
import os
import subprocess
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

import repro
import repro.triolet as tri
from repro.cluster import MachineSpec, run_spmd
from repro.cluster.transport import LocalTransport
from repro.core.engine import chunk_size, use_vectorization, vectorization_enabled
from repro.core.fusion import PlannerState, current_state, use_state
from repro.core.runstate import RunState, install, run_state, running
from repro.runtime import CostContext, current_costs, triolet_runtime, use_costs
from repro.serial import register_function
from tests.cluster.test_transport_local import _on_its_own_thread  # skips without fork

pytestmark = pytest.mark.transport

FAST = CostContext(unit_time=1e-9)
SLOW = CostContext(unit_time=3e-8)


@pytest.fixture(autouse=True)
def _no_crew_outlives_a_test():
    yield
    LocalTransport._resident.__dict__.pop("crew", None)


def _seen(comm):
    return comm.rank, run_state()


class TestTwoLaunchers:
    def test_each_thread_s_ranks_see_only_its_own_state(self):
        """Two threads run ``sim`` sections side by side, one with the
        engine off and one cost context, one with it on and another: every
        rank of every run sees its launcher's state and no other."""
        machine = MachineSpec(nodes=3, cores_per_node=1)
        start = threading.Barrier(2)
        seen: dict = {}

        def launcher(name, vec, chunk, costs):
            with running(vectorized=vec, chunk=chunk, costs=costs,
                         planner=PlannerState()):
                mine = run_state()
                start.wait(10.0)
                seen[name] = mine, [run_spmd(machine, _seen, 3).results
                                    for _ in range(20)]

        threads = [threading.Thread(target=launcher, args=args) for args in
                   (("off", False, 8, FAST), ("on", True, 16, SLOW))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        (off, off_runs), (on, on_runs) = seen["off"], seen["on"]
        assert (off.vectorized, off.chunk, off.costs) == (False, 8, FAST)
        assert (on.vectorized, on.chunk, on.costs) == (True, 16, SLOW)
        assert off.planner is not on.planner
        for mine, runs in ((off, off_runs), (on, on_runs)):
            for results in runs:
                assert [rank for rank, _ in results] == [0, 1, 2]
                assert all(state is mine for _, state in results)

    def test_a_thread_started_without_a_copy_sees_the_defaults(self):
        seen = []
        with running(vectorized=False, chunk=5, costs=SLOW):
            t = threading.Thread(target=lambda: seen.append(run_state()))
            t.start()
            t.join(10.0)
        (state,) = seen
        assert state == RunState()
        assert state.planner is run_state().planner  # one default cache


@register_function
def _member_state(x):
    """Where the rank computing *x* runs, and the run state it sees (the
    cost context as its fields: a rank's value travels serialized)."""
    return _where_and_state()


def _where_and_state():
    run = run_state()
    return (os.getpid(), run.vectorized, run.chunk, astuple(run.costs),
            list(run.planner.cache), list(run.planner.negative))


def test_a_local_member_runs_under_its_launcher_s_state():
    """The first section hires the member (a fork, which inherits the
    launching context); the next two are sent to it and install the
    state they carry.  Each time the member's state equals the
    launcher's, field by field."""
    machine = MachineSpec(nodes=2, cores_per_node=1, transport="local")

    def sections():
        out = []
        for changes, costs in (({}, CostContext()),
                               ({"vectorized": False, "chunk": 8}, SLOW),
                               ({"chunk": 3}, FAST)):
            with running(**changes), triolet_runtime(machine, costs=costs):
                rows = tri.collect_list(
                    tri.map(_member_state, tri.par(np.arange(2.0))))
                out.append((rows, _where_and_state()))
        return out

    got = _on_its_own_thread(sections)
    members = {rows[1][0] for rows, _ in got}
    assert len(members) == 1 and os.getpid() not in members  # sent, not forked
    for rows, launcher in got:
        assert rows[0] == launcher  # rank 0 is the launcher
        assert rows[1][1:] == launcher[1:]
    assert [launcher[1:4] for _, launcher in got] == [
        (True, 1024, astuple(CostContext())), (False, 8, astuple(SLOW)),
        (True, 3, astuple(FAST))]


class TestManagers:
    @pytest.mark.parametrize("manager", [
        lambda: running(vectorized=False, chunk=7, costs=SLOW),
        lambda: use_vectorization(False),
        lambda: use_costs(SLOW),
        lambda: use_state(PlannerState()),
    ])
    def test_an_exception_restores_the_state(self, manager):
        before = run_state()
        with pytest.raises(KeyError):
            with manager():
                assert run_state() is not before
                raise KeyError("inside")
        assert run_state() is before

    def test_the_readers_read_the_one_value(self):
        state = PlannerState()
        with running(vectorized=False, chunk=9, costs=SLOW, planner=state):
            assert (vectorization_enabled(), chunk_size(), current_costs(),
                    current_state()) == (False, 9, SLOW, state)
            assert current_state() is state

    def test_install_takes_a_whole_value_and_its_token_undoes_it(self):
        before = run_state()
        token = install(RunState(vectorized=False, chunk=2))
        try:
            assert (vectorization_enabled(), chunk_size()) == (False, 2)
        finally:
            token.var.reset(token)
        assert run_state() is before

    def test_a_chunk_below_one_is_refused(self):
        with pytest.raises(ValueError):
            with running(chunk=0):
                pass


def test_no_environment_variable_sets_the_run_state():
    env = dict(os.environ, REPRO_VECTORIZE="0", REPRO_CHUNK="7",
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.core.engine import chunk_size, vectorization_enabled;"
         "print(vectorization_enabled(), chunk_size())"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["True", "1024"]
