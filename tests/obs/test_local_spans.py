"""Whole traces on ``local``: rank 0 records into the driver's recorder as
it runs, ranks >= 1 publish the spans they registered and the driver adopts
them -- so a run on forked ranks shows what the same run shows on ``sim``.
Nothing of this exists when no recorder is installed."""
import numpy as np
import pytest

import repro.triolet as tri
from repro.apps import jacobi, tpacf
from repro.bench import reset_run_state
from repro.bench.calibrate import costs_for
from repro.cluster import MachineSpec
from repro.cluster.transport import available_transports
from repro.obs.spans import Recorder, Span, capture
from repro.runtime import triolet_runtime
from repro.runtime.section import ISOLATED
from repro.testing.kernels import k_square

pytestmark = [pytest.mark.obs, pytest.mark.transport]

if "local" not in available_transports(nranks=2):
    pytest.skip("LocalTransport unavailable (no fork)", allow_module_level=True)


def _tpacf(machine):
    p = tpacf.make_problem(m=32, nr=8, nbins=128, seed=3)
    return tpacf.run_triolet(p, machine, costs_for("tpacf", "triolet", p))


def _jacobi(machine):
    return jacobi.run_triolet(jacobi.make_problem(n=256, iterations=3, seed=3), machine)


def _rank_spans(app, transport):
    reset_run_state()
    with capture() as rec:
        run = app(MachineSpec(nodes=2, cores_per_node=1, transport=transport))
    by_sid = {s.sid: s for s in rec.spans}
    assert len(by_sid) == len(rec.spans)  # adopted spans got fresh sids
    rows = sorted(
        (s.kind, s.name, s.rank, s.t0, s.t1, by_sid[s.parent].kind,
         by_sid[s.parent].t0)
        for s in rec.spans if s.kind in ("kernel", "collective")
    )
    return rows, len(rec.spans), run.elapsed


@pytest.mark.parametrize("app", [_tpacf, _jacobi])
def test_rank_spans_on_local_equal_sim(app):
    sim, nsim, t_sim = _rank_spans(app, "sim")
    local, nlocal, t_local = _rank_spans(app, "local")
    assert t_local == t_sim
    assert {r[2] for r in sim} == {0, 1}  # both rank lanes are there
    assert local == sim  # count, lane, virtual t0/t1, and what they hang off
    assert nlocal == nsim


def test_absorbed_spans_are_renumbered_and_reparented():
    rec = Recorder()
    with rec.span("section", "par") as section:
        pass
    with rec.span("kernel", "mine", rank=0):
        pass  # takes the sid the forked rank also handed out
    rows = [
        {"sid": 1, "parent": section.sid, "kind": "collective", "name": "reduce",
         "rank": 1, "t0": 1.0, "t1": 3.0, "attrs": {"size": 2}},
        {"sid": 2, "parent": 1, "kind": "collective", "name": "bcast",
         "rank": 1, "t0": 2.0, "t1": 3.0, "attrs": {}},
    ]
    rec.absorb_spans(rows)
    outer, inner = rec.spans[-2:]
    assert [s.sid for s in rec.spans] == [0, 1, 2, 3]
    assert outer.parent == section.sid and inner.parent == outer.sid
    assert outer.as_dict() == {**rows[0], "sid": 2}
    assert inner.duration == 1.0
    with rec.span("kernel", "next") as later:
        pass
    assert later.sid == 4


def test_nothing_is_published_without_a_recorder():
    seen = []
    before = Span.allocated
    with triolet_runtime(MachineSpec(nodes=2, cores_per_node=1,
                                     transport="local")) as rt:
        merge = rt._merge_rank_extras

        def spy(extras):
            seen.extend(extras)
            merge(extras)

        rt._merge_rank_extras = spy
        tri.sum(tri.map(k_square, tri.par(np.arange(64.0))))
    assert Span.allocated == before
    assert "spans" not in seen[1][ISOLATED]
