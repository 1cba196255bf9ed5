"""Chaos suite: every app survives an injected fault storm unchanged.

Each app runs once fault-free and once under a seeded
:meth:`FaultPlan.chaos` schedule (one rank crash + transient send
failures + a straggling node).  The recovered run must produce the
numerically identical result, cost a bounded amount of extra virtual
time, and be bit-deterministic for a given seed.

Marked ``chaos`` (``pytest -m chaos`` selects the storms); every seed of
``SEEDS`` runs in tier 1.
"""
import pytest

from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster.faults import FaultPlan
from repro.cluster.machine import PAPER_MACHINE

MACHINE = PAPER_MACHINE.scaled(nodes=4, cores_per_node=4)
NRANKS = 4  # distributed sections use one rank per node

#: small-but-real instances so the storm hits multi-section runs fast
CHAOS_PARAMS = {
    "mriq": dict(npix=512, nk=64, seed=7),
    "sgemm": dict(n=48, seed=7),
    "tpacf": dict(m=32, nr=8, seed=7),
    "cutcp": dict(na=120, grid=(16, 16, 16), cutoff=4.0, seed=7),
}

#: recovery may retry, re-partition and fragment, but never blow up the
#: virtual makespan by more than this factor
MAX_INFLATION = 3.0

SEEDS = (11, 23, 47)


def run_app(app: str, faults: FaultPlan | None):
    spec = APPS[app]
    p = spec.make_problem(**CHAOS_PARAMS[app])
    costs = costs_for(app, "triolet", p)
    return spec.runners["triolet"](p, MACHINE, costs, faults=faults)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", sorted(APPS))
class TestChaos:
    def test_result_survives_fault_storm(self, app, seed):
        spec = APPS[app]
        clean = run_app(app, None)
        storm = run_app(app, FaultPlan.chaos(nranks=NRANKS, seed=seed))
        assert spec.same_value(storm.value, clean.value), (
            f"{app} result changed under chaos seed {seed}"
        )
        report = storm.detail["recovery"]
        assert report.faults.get("crash", 0) >= 1
        assert report.faults.get("send", 0) >= 1
        assert storm.elapsed > clean.elapsed
        assert storm.elapsed <= MAX_INFLATION * clean.elapsed, (
            f"{app} makespan inflated {storm.elapsed / clean.elapsed:.2f}x"
        )

    def test_storm_is_deterministic(self, app, seed):
        a = run_app(app, FaultPlan.chaos(nranks=NRANKS, seed=seed))
        b = run_app(app, FaultPlan.chaos(nranks=NRANKS, seed=seed))
        assert APPS[app].same_value(a.value, b.value)
        assert a.elapsed == b.elapsed
        assert a.detail["recovery"].faults == b.detail["recovery"].faults
