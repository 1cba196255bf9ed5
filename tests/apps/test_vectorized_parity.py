"""App-level engine parity: vectorization must be unobservable.

For each of the four paper apps and spMV, the Triolet runner with the
bulk engine on must match the scalar path bit-for-bit: same values, same
virtual makespan, same bytes shipped, same cost-meter totals.  And when a
rank crashes mid-section, the re-executed tasks must *hit* the
fusion-plan cache rather than recompile, and still produce the fault-free
value.
"""
import numpy as np
import pytest

from repro.apps import spmv
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS, AppSpec
from repro.cluster import FaultPlan, RankCrash
from repro.cluster.machine import PAPER_MACHINE
from repro.core.engine import use_vectorization
from repro.core.fusion import planner_stats
from repro.runtime.costs import CostContext

MACHINE = PAPER_MACHINE.scaled(nodes=2, cores_per_node=4)


def _bit_identical(a, b) -> bool:
    if isinstance(a, dict):
        return set(a) == set(b) and all(_bit_identical(a[k], b[k]) for k in a)
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


#: spMV sits outside the harness registry (it has no calibration).  Its
#: values are dyadic, so float addition is exact and every path -- scalar,
#: vectorized, re-executed -- must equal the reference bit for bit.
SPECS = {
    **APPS,
    "spmv": AppSpec(
        name="spmv",
        make_problem=spmv.make_problem,
        solve_ref=lambda p: {"y": spmv.solve_ref(p),
                             "ys": spmv.solve_ref_sparse(p)},
        runners={"triolet": spmv.run_triolet},
        same_value=_bit_identical,
        sandbox_params=dict(nrows=512, ncols=512, row_nnz=12, seed=1),
    ),
}


def make_problem(app: str):
    spec = SPECS[app]
    return spec.make_problem(**spec.sandbox_params)


def _run(app: str, problem, vectorize: bool, faults=None):
    costs = (costs_for(app, "triolet", problem) if app in APPS
             else CostContext())
    with use_vectorization(vectorize):
        return SPECS[app].runners["triolet"](problem, MACHINE, costs,
                                             faults=faults)


@pytest.mark.parametrize("app", list(SPECS))
class TestVectorizedParity:
    def test_bit_identical_and_same_costs(self, app):
        p = make_problem(app)
        vec = _run(app, p, vectorize=True)
        scalar = _run(app, p, vectorize=False)
        assert _bit_identical(vec.value, scalar.value)
        assert vec.elapsed == scalar.elapsed
        assert vec.bytes_shipped == scalar.bytes_shipped
        assert vec.detail["meter"] == scalar.detail["meter"]

    def test_every_path_matches_reference(self, app):
        """Vectorized, scalar, and re-executed after a crash: each equals
        the sequential reference (for spMV, bit for bit)."""
        p = make_problem(app)
        crash = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
        ref = SPECS[app].solve_ref(p)
        for run in (_run(app, p, vectorize=True),
                    _run(app, p, vectorize=False),
                    _run(app, p, vectorize=True, faults=crash)):
            assert SPECS[app].same_value(run.value, ref)

    def test_engine_is_exercised(self, app):
        p = make_problem(app)
        _run(app, p, vectorize=True)
        stats = planner_stats()
        assert stats.compiled >= 1 and stats.unsupported == 0
        assert stats.hits > stats.misses  # slices/tasks reuse the plan

    def test_crash_reexecution_hits_plan_cache(self, app):
        p = make_problem(app)
        clean = _run(app, p, vectorize=True)
        compiled_before = planner_stats().compiled

        def crash_plan():  # plans are stateful: one fresh plan per run
            return FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))

        faulted = _run(app, p, vectorize=True, faults=crash_plan())
        stats = planner_stats()
        assert stats.compiled == compiled_before, "re-execution recompiled"
        # Re-execution repartitions across the survivors, which regroups
        # the floating-point combines -- so compare against the *scalar*
        # path under the identical fault (bitwise), and against the
        # fault-free value numerically.
        faulted_scalar = _run(app, p, vectorize=False, faults=crash_plan())
        assert _bit_identical(faulted.value, faulted_scalar.value)
        assert faulted.elapsed == faulted_scalar.elapsed
        assert SPECS[app].same_value(faulted.value, clean.value)
        assert faulted.elapsed > clean.elapsed  # lost time was charged
