"""The ``local`` crew's contract: members hired by fork stay on, later
runs are sent to them, and nothing a run can observe tells the two apart
-- not from ``sim``, not from a freshly forked rank.

A run goes to the crew only when its program pickles and every member is
fresh for it; anything else hires anew.  These tests count ``os.fork``
to tell which happened, and compare every number with ``sim``.
"""
import itertools
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest

import repro.triolet as tri
from repro.bench import reset_run_state
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster import MachineSpec, run_spmd
from repro.cluster.transport import LocalTransport, available_transports
from repro.core.engine import use_vectorization
from repro.core.fusion import planner_stats
from repro.runtime import observing_sections, triolet_runtime
from repro.serial import closure, copy_stats, register_function
from tests.cluster.test_transport_local import (
    _host_state,
    _on_its_own_thread,
    _pid_and_sum,
)

pytestmark = pytest.mark.transport

if "local" not in available_transports(nranks=3):
    pytest.skip("LocalTransport unavailable (no fork)", allow_module_level=True)


@pytest.fixture(autouse=True)
def _no_crew_outlives_a_test():
    yield
    LocalTransport._resident.__dict__.pop("crew", None)


def _machine(transport, nodes=2):
    return MachineSpec(nodes=nodes, cores_per_node=1, transport=transport)


@register_function
def _halved(v):
    return 0.5 * v


def _observed(fn):
    """``fn()`` and what the program says of it: the section records'
    bytes and messages, planner and copy counters."""
    records = []
    with observing_sections(lambda p: records.append(p["record"])):
        out = fn()
    wire = [(r.bytes_shipped, r.messages, r.makespan) for r in records]
    return out, wire, planner_stats(), copy_stats()


def _app(app, transport):
    spec = APPS[app]
    problem = spec.make_problem(**spec.sandbox_params)
    reset_run_state()
    run, wire, plans, copies = _observed(lambda: spec.runners["triolet"](
        problem, _machine(transport), costs_for(app, "triolet", problem)))
    assert run.ok
    value = run.value if isinstance(run.value, dict) else {"": run.value}
    value = {k: np.asarray(v).tobytes() for k, v in value.items()}
    return (value, run.elapsed, run.detail["meter"],
            run.detail["data_plane"], wire, plans, copies)


@pytest.mark.parametrize("vectorized", [True, False])
def test_four_apps_on_one_crew_equal_sim(vectorized):
    """mriq, sgemm, tpacf, mriq: one hire, then every section is sent --
    and values, virtual makespans, meters, plane and wire counts, planner
    and copy counters all equal the same programs on ``sim``."""
    apps = ["mriq", "sgemm", "tpacf", "mriq"]

    def on(transport):
        with use_vectorization(vectorized):
            return [_app(app, transport) for app in apps]

    want = on("sim")
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = _on_its_own_thread(on, "local")
    assert fork.call_count == 1
    for app, g, w in zip(apps, got, want):
        assert g == w, app


def _sum_sections(transport, between):
    """Two ``par`` sums over one handle with *between* run in between, the
    forks each section took, and the values."""
    with triolet_runtime(_machine(transport)) as rt:
        h = rt.distribute(np.arange(256.0))
        first = tri.sum(tri.map(_halved, tri.par(h)))
        between(rt, h)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            second = tri.sum(tri.map(_halved, tri.par(h)))
            third = tri.sum(tri.map(_halved, tri.par(h)))
            forks = fork.call_count
        return (first, second, third, rt.elapsed, rt.meter_total,
                rt.plane.stats_dict()), forks


def _sweep(rt, h):
    rt.stencil(h, radius=1, kernel=_jacobi_rod, iterations=2)


def _jacobi_rod(x):
    return 0.5 * (x[:-2] + x[2:])


def test_a_driver_only_write_makes_the_crew_stale():
    """The stencil's commit mirrors the rows the ranks wrote into the
    driver's rank stores, which no member did: the next section hires
    (inheriting the mirror) and the one after it is sent."""
    reset_run_state()
    want, _ = _sum_sections("sim", _sweep)
    reset_run_state()
    got, forks = _on_its_own_thread(_sum_sections, "local", _sweep)
    assert got == want
    assert forks == 1


_FRESH_IDS = itertools.count()


def test_a_function_registered_between_runs_makes_the_crew_stale():
    """A member hired before a function was registered has no code for
    its id: the run that ships a closure over it hires."""
    def run(transport):
        out = []
        for k in range(2):
            with triolet_runtime(_machine(transport)) as rt:
                fresh = closure(register_function(
                    lambda v, k=k: v + k,
                    code_id=f"tests.fresh.{next(_FRESH_IDS):06d}"))
                with mock.patch.object(os, "fork", wraps=os.fork) as fork:
                    out.append(tri.sum(tri.map(fresh, tri.par(np.arange(64.0)))))
                out.append((rt.elapsed, fork.call_count))
        return out

    got = _on_its_own_thread(run, "local")
    want = run("sim")
    assert [g for g in got if not isinstance(g, tuple)] == [
        w for w in want if not isinstance(w, tuple)]
    assert [g[0] for g in got if isinstance(g, tuple)] == [
        w[0] for w in want if isinstance(w, tuple)]
    assert [g[1] for g in got if isinstance(g, tuple)] == [1, 1]


def test_a_program_that_cannot_be_sent_runs_by_fork():
    """A lambda rank function, a lambda stencil kernel: hired for, every
    time, and bit-identical to ``sim``."""
    def body(comm):
        return comm.allreduce(float(comm.rank) ** 2, op=lambda a, b: a + b)

    def sweep(transport):
        with triolet_runtime(_machine(transport, 3)) as rt:
            h = rt.distribute(np.linspace(0.0, 1.0, 97))
            rt.stencil(h, radius=1, kernel=lambda x: 0.25 * x[:-2] + 0.75 * x[2:],
                       iterations=5)
            return h.array.tobytes(), rt.elapsed

    def on(transport):
        runs = [run_spmd(_machine(transport, 3), body, nranks=3) for _ in range(2)]
        return ([(r.results, r.final_clocks) for r in runs],
                [sweep(transport) for _ in range(2)])

    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = _on_its_own_thread(on, "local")
    assert fork.call_count == 4 * 2
    assert got == on("sim")


def test_an_idle_member_killed_between_runs_is_replaced():
    """Found dead before a run is sent to it, a member is reaped and the
    crew retires; the run hires anew and nothing differs."""
    def run():
        first = run_spmd(_machine("local", 3), _pid_and_sum, nranks=3).results
        os.kill(first[1][0], signal.SIGKILL)
        _dead(first[1][0])
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            again = run_spmd(_machine("local", 3), _pid_and_sum, nranks=3).results
        zombie = os.path.exists(f"/proc/{first[1][0]}")
        return first, again, fork.call_count, zombie

    first, again, forks, zombie = _on_its_own_thread(run)
    assert forks == 2 and not zombie
    assert [s for _, s in again] == [s for _, s in first] == [3, 3, 3]
    assert {p for p, _ in again[1:]}.isdisjoint(p for p, _ in first[1:])


def _dead(pid: int, seconds: float = 10.0) -> None:
    """Wait until *pid* is a zombie: a signal is not delivered at once."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as f:
            if f.read().rpartition(")")[2].split()[0] == "Z":
                return
        time.sleep(0.005)
    raise AssertionError(f"{pid} outlived SIGKILL")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_the_crew_goes_with_its_thread():
    """After the launching thread is over: no child, no segment, and the
    descriptor count where it was."""
    before = _host_state()

    def runs():
        for n in (3, 2, 3):
            run_spmd(_machine("local", 3), _pid_and_sum, nranks=n)
        assert _host_state() != before  # the crew is there while it lives

    _on_its_own_thread(runs)
    assert _host_state() == before


def test_twenty_four_ranks_allreduce_as_on_sim():
    """Past ``select``'s 1024 descriptors: ``selectors`` waits on them."""
    try:
        LocalTransport().available(24)
    except Exception as exc:  # noqa: BLE001 -- a small RLIMIT_NOFILE here
        pytest.skip(str(exc))

    def body(comm):
        return comm.allreduce(comm.rank + 1, op=_add)

    got = _on_its_own_thread(run_spmd, _machine("local", 24), body, nranks=24)
    want = run_spmd(_machine("sim", 24), body, nranks=24)
    assert got.results == want.results == [300] * 24
    assert got.final_clocks == want.final_clocks


def _add(a, b):
    return a + b
