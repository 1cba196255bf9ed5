"""Isolation is a property of a rank, not of a transport: the engine wraps
and merges by ``Comm.in_launcher`` alone.

The stub below runs both ranks as ``sim`` threads -- so everything is
observable from the test process -- but rank 1 *says* it runs elsewhere.
A rank outside the launcher is a ``local`` member with counters of its
own, which it zeroes and reports as values; the stub's rank 1 shares the
driver's heap instead, so the counter totals it reports are not a
member's.  What this checks is the merge wiring: rank 0 publishes
nothing and tallies live, rank 1 publishes every counter family through
``rank_extras()``, and each family is merged exactly once."""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import MachineSpec
from repro.cluster.transport import SimTransport
from repro.runtime import driver, triolet_runtime
from repro.runtime.section import ISOLATED, _meter_sink
from repro.testing.kernels import k_square

pytestmark = pytest.mark.transport

FIELD = (np.arange(4096.0) * 3.0) % 11.0


class RankOneIsRemote(SimTransport):
    name = "stub"

    def execute(self, ctx, rank_fn, args):
        def declared(comm, *a):
            comm.in_launcher = comm.rank != 1
            return rank_fn(comm, *a)

        return super().execute(ctx, declared, args)


def _run(transport, spy=None):
    m = MachineSpec(nodes=2, cores_per_node=1)
    with triolet_runtime(m, transport=transport) as rt:
        if spy is not None:
            spy(rt)
        value = tri.sum(tri.map(k_square, tri.par(rt.distribute(FIELD.copy()))))
    return value, rt


def _logged(log, fn):
    """*fn*, noting each argument it is called with in *log*."""

    def wrapper(arg):
        log.append(arg)
        return fn(arg)

    return wrapper


def test_each_counter_family_is_merged_exactly_once(monkeypatch):
    merged = {"planner": [], "serial": [], "extras": [], "sinks": []}
    monkeypatch.setattr(driver.planner, "merge_stats",
                        _logged(merged["planner"], driver.planner.merge_stats))
    monkeypatch.setattr(driver, "merge_copy_stats",
                        _logged(merged["serial"], driver.merge_copy_stats))

    def spy(rt):
        merge_meter = rt.node._merge_meter

        def spy_meter(m):
            merged["sinks"].append(_meter_sink.get())
            merge_meter(m)

        rt.node._merge_meter = spy_meter
        rt._merge_rank_extras = _logged(merged["extras"], rt._merge_rank_extras)

    want, sim = _run(SimTransport())
    got, stub = _run(RankOneIsRemote(), spy)
    assert got == want
    assert stub.elapsed == sim.elapsed

    # one section ran: rank 0 published nothing, rank 1 everything
    (extras,) = merged["extras"]
    assert ISOLATED not in extras[0] and ISOLATED in extras[1]
    state = extras[1][ISOLATED]
    # planner and copy counters: one merge each, of rank 1's deltas
    assert merged["planner"] == [state["planner"]]
    assert merged["serial"] == [state["serial"]]
    assert state["serial"]["arrays"] > 0
    # the meter: rank 0's regions went straight to the runtime's total,
    # rank 1's into its own meter, merged once -- the totals say so
    sinks = merged["sinks"]
    assert sinks.count(None) == sinks.count(state["meter"]) > 0
    assert state["meter"].visits == FIELD.size // 2
    assert stub.meter_total == sim.meter_total


def test_only_the_remote_ranks_ops_are_mirrored(monkeypatch):
    from repro.data.plane import RankStore

    applied = []
    apply = RankStore.apply
    monkeypatch.setattr(
        RankStore, "apply",
        lambda self, ops: (applied.append(_meter_sink.get()), apply(self, ops))[1])

    _, rt = _run(RankOneIsRemote())
    assert rt.last_section.data_plane["input_bytes"] > 0
    # once by rank 1 itself (under its meter sink), once by the driver
    assert [sink is not None for sink in applied] == [True, False]
    applied.clear()
    _run(SimTransport())
    assert applied == [None]  # on its launcher's heap: applied once, live
