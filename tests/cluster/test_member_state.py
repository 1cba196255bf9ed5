"""A ``local`` member's run state is its job's: decoding a job assigns the
job's vectorization flag and chunk, cost context, plan cache and recorder
flag, and a member reports what each section adds to its counters.  So
nothing of one section reaches the next on the same crew, whichever way
the state moves -- off then on, on then off, one cost context then
another -- and every section's counters equal the ``sim`` run's."""
import os
from unittest import mock

import numpy as np
import pytest

import repro.triolet as tri
from repro import obs
from repro.bench import reset_run_state
from repro.cluster import MachineSpec
from repro.cluster.transport import LocalTransport, available_transports
from repro.core.engine import execute as engine
from repro.core.engine import use_vectorization
from repro.core.fusion import planner_stats
from repro.runtime import CostContext, current_costs, observing_sections, triolet_runtime
from repro.serial import copy_stats, register_function
from tests.cluster.test_transport_local import _on_its_own_thread

pytestmark = pytest.mark.transport

if "local" not in available_transports(nranks=2):
    pytest.skip("LocalTransport unavailable (no fork)", allow_module_level=True)

SLOW = CostContext(unit_time=3e-8)


@pytest.fixture(autouse=True)
def _no_crew_outlives_a_test():
    yield
    LocalTransport._resident.__dict__.pop("crew", None)


@register_function
def _state(x):
    """The run state the rank that computes *x* sees, as a number."""
    return (x * 0.0 + engine.vectorization_enabled()
            + 2.0 * (obs.active() is not None)
            + 4.0 * (current_costs() == SLOW) + engine.chunk_size() / 8.0)


@register_function
def _square(x):
    return x * x


#: (vectorized, recorder on, cost context), in the order one crew runs them
STEPS = [(False, False, None), (True, False, None), (True, True, None),
         (True, False, None), (True, False, CostContext()), (True, False, SLOW)]


def _sections(transport):
    """Every step's two sections -- one reads the state, one is a metered
    kernel -- on one runtime each: what the program says of each."""
    machine = MachineSpec(nodes=2, cores_per_node=1, transport=transport)
    x = np.arange(16.0)
    out = []
    for vec, traced, costs in STEPS:
        reset_run_state()
        records = []
        with (obs.capture() if traced else _nothing()) as rec, \
                use_vectorization(vec), \
                observing_sections(lambda p: records.append(p["record"])), \
                triolet_runtime(machine, **({"costs": costs} if costs else {})) as rt:
            seen = tri.sum(tri.map(_state, tri.par(x)))
            total = tri.sum(tri.map(_square, tri.par(x)))
        spans = None if rec is None else sorted(
            (s.kind, s.name, s.rank) for s in rec.spans if s.rank > 0)
        out.append((seen, total, rt.elapsed, rt.meter_total.visits,
                    planner_stats(), copy_stats(), spans,
                    [(r.bytes_shipped, r.messages, r.makespan) for r in records]))
    return out


class _nothing:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _expected_seen(vec, traced, costs, n=16):
    return n * (vec + 2.0 * traced + 4.0 * (costs == SLOW)
                + engine.chunk_size() / 8.0)


def test_each_section_on_one_crew_sees_its_own_jobs_state():
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = _on_its_own_thread(_sections, "local")
    assert fork.call_count == 1  # one crew served every step
    want = _sections("sim")
    for (vec, traced, costs), g, w in zip(STEPS, got, want):
        assert g[0] == _expected_seen(vec, traced, costs), (vec, traced, costs)
        assert g == w, (vec, traced, costs)

