"""The six workloads: what a round is, how it is run, how it is checked.

A *round* is a fixed ordered list of operations.  Running one returns a
:class:`RoundResult` whose ``wall`` is the sum of the ops' timed calls;
state resets and value checks happen outside the timers.  Everything the
program is told comes from ``make_problem(seed=...)``.
"""
from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from repro.apps import jacobi, spmv
from repro.bench import reset_run_state
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster.faults import FaultPlan, RankLoss
from repro.cluster.machine import PAPER_MACHINE
from repro.core.engine import use_vectorization
from repro.core.fusion import planner_stats
from repro.runtime import CostContext, FailureBudget, RecoveryPolicy
from repro.serial import copy_stats
from repro.service import JobServer, cutcp_job, mriq_job, sgemm_job, tpacf_job

from harness import Trace, digest

# -- apps -------------------------------------------------------------------


@dataclass(frozen=True)
class AppDef:
    """What the harness needs to generate, run and check one app."""

    make: Callable[..., Any]
    ref: Callable[[Any], Any]
    run: Callable[..., Any]  # run_triolet(problem, machine, costs, **kw)
    costs: Callable[[Any], CostContext]
    same: Callable[[Any, Any], bool]
    job: Callable[[Any], Callable] | None = None  # service job factory


def _paper_app(name: str, job) -> AppDef:
    spec = APPS[name]
    return AppDef(
        make=spec.make_problem,
        ref=spec.solve_ref,
        run=spec.runners["triolet"],
        costs=lambda p: costs_for(name, "triolet", p),
        same=spec.same_value,
        job=job,
    )


def _same_arrays(got, ref) -> bool:
    if isinstance(ref, dict):
        return got is not None and all(
            np.array_equal(got[k], ref[k]) for k in ref
        )
    return got is not None and np.allclose(got, ref, rtol=1e-8, atol=1e-8)


APPDEFS: dict[str, AppDef] = {
    "mriq": _paper_app("mriq", mriq_job),
    "sgemm": _paper_app("sgemm", sgemm_job),
    "tpacf": _paper_app("tpacf", tpacf_job),
    "cutcp": _paper_app("cutcp", cutcp_job),
    "spmv": AppDef(
        make=spmv.make_problem,
        ref=lambda p: {"y": spmv.solve_ref(p), "ys": spmv.solve_ref_sparse(p)},
        run=spmv.run_triolet,
        costs=lambda p: CostContext(),
        same=_same_arrays,
    ),
    "jacobi": AppDef(
        make=jacobi.make_problem,
        ref=jacobi.solve_ref,
        run=jacobi.run_triolet,
        costs=lambda p: CostContext(),
        same=_same_arrays,
    ),
}

# -- sizes ------------------------------------------------------------------
#
# The issue's dense sizes are the BENCH_PARAMS of repro/bench/wallclock.py
# (a 0.31 s round on sim).  The driver's budget is 136 runs in 3420 s, so a
# run -- three set-ups, five warm-up rounds and at least 100 timed rounds --
# has to fit in about 15 s; the sizes below are those shrunk until a round
# takes 60-140 ms on the 2-core reference box.  R stays 100.

DENSE = {
    "mriq": dict(npix=6144, nk=64),
    "sgemm": dict(n=96),
    "tpacf": dict(m=64, nr=32, nbins=2048),
    "cutcp": dict(na=4000, grid=(40, 40, 40), cutoff=2.0),
}
SMALL = {
    "mriq": dict(npix=512, nk=32),
    "sgemm": dict(n=32),
    "tpacf": dict(m=32, nr=8, nbins=128),
    "cutcp": dict(na=240, grid=(16, 16, 16), cutoff=2.0),
    "spmv": dict(nrows=128, ncols=512, row_nnz=8),
    "jacobi": dict(n=64, iterations=8),
}
MID = {
    "mriq": dict(npix=8192, nk=64),
    "sgemm": dict(n=96),
    "tpacf": dict(m=64, nr=32, nbins=1024),
    "cutcp": dict(na=4000, grid=(32, 32, 32), cutoff=2.0),
}
#: jacobi's virtual cost depends on its size alone, so the seed also picks
#: the size (within 1 %): virtual_s then moves with the seed on every
#: workload, which is how a reader tells a measured number from a constant.
STENCIL = {"jacobi": lambda seed: dict(n=16384 + seed % 128, iterations=4)}

PAPER_APPS = ("mriq", "sgemm", "tpacf", "cutcp")
TENANTS = (("alpha", 1.0), ("beta", 2.0))

#: faulted_sim loses the *last* rank at the start of a section.  Which
#: section: the app's largest, so tpacf (three sections) dies mid-job with
#: shards resident and recovers by lineage replay, the others in their only
#: section.  See README "Why the fault plan is not seeded".
LOSS_SECTION = {"mriq": 0, "sgemm": 0, "tpacf": 2, "cutcp": 0}


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    apps: tuple[str, ...]
    sizes: dict
    transport: str = "sim"
    ranks: int = 2
    vectorized: bool = True
    service: bool = False
    faulted: bool = False
    twin_transport: str | None = None  # values/virtual must equal this one


SPECS: dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            "dense_sim",
            "bulk core.engine kernels dominate; transport and recovery "
            "do almost nothing",
            PAPER_APPS, DENSE,
        ),
        WorkloadSpec(
            "dense_local",
            "the dense_sim round on forked shared-memory ranks: only "
            "cluster.transport differs",
            PAPER_APPS, DENSE, transport="local", twin_transport="sim",
        ),
        WorkloadSpec(
            "scalar_sim",
            "vectorization off: per-element fused closures, what a user "
            "lambda without a bulk form gets",
            PAPER_APPS + ("spmv",), SMALL, vectorized=False,
        ),
        WorkloadSpec(
            "stencil_local",
            "many tiny sections: per-section spawn/join and halo "
            "bookkeeping dominate, the kernel is under 5 %",
            ("jacobi",), STENCIL, transport="local",
        ),
        WorkloadSpec(
            "service_repeat",
            "warm resident JobServer: plan-cache hits and resident shards "
            "instead of compiles and placement",
            PAPER_APPS, DENSE, service=True,
        ),
        WorkloadSpec(
            "faulted_sim",
            "one permanent rank loss per op on 3 ranks: attempt loop, "
            "elastic shrink and lineage replay do the work",
            PAPER_APPS, MID, ranks=3, faulted=True,
        ),
    )
}


def machine_for(ranks: int, transport: str):
    return PAPER_MACHINE.scaled(nodes=ranks, cores_per_node=1).with_transport(
        transport
    )


# -- results ----------------------------------------------------------------

#: per-op counts read from what the program returns, under the per-layer
#: metric names they feed: metric name -> key or attribute at the source.
PLANNER_COUNTS = {f"core.fusion.{k}": k
                  for k in ("misses", "hits", "compiled", "unsupported")}
SERIAL_COUNTS = {f"serial.{k}": k
                 for k in ("arrays", "zero_copy_bytes", "compacted_bytes")}
PLANE_COUNTS = {f"data.{k}": k
                for k in ("input_bytes", "placements", "resident_hits",
                          "cache_hits", "cache_misses", "halo_bytes",
                          "dedup_hits")}
RECOVERY_COUNTS = {
    **{f"runtime.{k}": k
       for k in ("reexecuted_chunks", "rank_losses", "lineage_replays",
                 "replayed_bytes", "reshipped_bytes", "checkpoints",
                 "restores")},
    "runtime.recovery_added_v": "added_time",
}
COUNT_KEYS = ("core.engine.visits", *PLANNER_COUNTS, *SERIAL_COUNTS,
              *PLANE_COUNTS, *RECOVERY_COUNTS)


def _counts(planner: dict, serial: dict, plane: dict, recovery, visits) -> dict:
    out = {"core.engine.visits": visits}
    out.update((name, planner[k]) for name, k in PLANNER_COUNTS.items())
    out.update((name, serial[k]) for name, k in SERIAL_COUNTS.items())
    out.update((name, plane.get(k, 0)) for name, k in PLANE_COUNTS.items())
    out.update((name, getattr(recovery, k) if recovery is not None else 0)
               for name, k in RECOVERY_COUNTS.items())
    return out


@dataclass
class OpResult:
    app: str
    wall: float
    virtual: float = 0.0
    value: Any = None  # dropped once checked; ``fingerprint`` stays
    counts: dict = field(default_factory=dict)
    error: str | None = None  # why this op counts as failed
    fingerprint: bytes | None = None
    step_wall: float = 0.0  # service jobs: wall of the ``step()`` that ran it
    latency_v: float = 0.0  # service jobs: virtual submit-to-finish latency


@dataclass
class RoundResult:
    ops: list[OpResult]
    extra_wall: float = 0.0  # timed calls that belong to no single op

    @property
    def wall(self) -> float:
        return self.extra_wall + sum(o.wall for o in self.ops)

    @property
    def virtual(self) -> float:
        return sum(o.virtual for o in self.ops)

    def counts(self) -> dict:
        return {k: sum(o.counts.get(k, 0) for o in self.ops)
                for k in COUNT_KEYS}


def _describe(exc: BaseException) -> str:
    traceback.print_exc()
    return f"raised {type(exc).__name__}: {exc}"


# -- a running workload -----------------------------------------------------


class Workload:
    """One workload's generated inputs, references and live state.

    ``run_round`` executes the round once; ``check`` turns an op's outcome
    into a failure reason or ``None``.  ``wrap`` (a context-manager
    factory) goes around every timed call -- the traced pass uses it to
    put ``repro.obs.capture()`` and a section observer there.
    """

    def __init__(self, spec: WorkloadSpec, seed: int):
        self.spec = spec
        self.machine = machine_for(spec.ranks, spec.transport)
        self.problems = {}
        for app in spec.apps:
            size = spec.sizes[app]
            self.problems[app] = APPDEFS[app].make(
                seed=seed, **(size(seed) if callable(size) else size))
        self.refs = {
            app: APPDEFS[app].ref(p) for app, p in self.problems.items()
        }
        self.costs = {
            app: APPDEFS[app].costs(p) for app, p in self.problems.items()
        }
        self.first_value: dict[str, bytes] = {}  # app -> fingerprint
        self.first_virtual: dict[str, float] = {}
        self.rounds_run = 0
        self.server: JobServer | None = None
        if spec.service:
            self.server = JobServer(self.machine)
            for tenant, weight in TENANTS:
                self.server.add_tenant(tenant, weight=weight)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    # -- running -----------------------------------------------------------

    def run_round(self, trace: Trace, wrap=nullcontext) -> RoundResult:
        with trace.span("round"):
            if self.server is not None:
                result = self._service_round(trace, wrap)
            else:
                result = RoundResult(
                    [self.script_op(app, trace, wrap)
                     for app in self.spec.apps]
                )
            with trace.span("verify"):
                for op in result.ops:
                    if op.error is None:
                        op.error = self.check(op)
                    op.value = None
        self.rounds_run += 1
        return result

    def _fault_kwargs(self, app: str) -> dict:
        if not self.spec.faulted:
            return {}
        loss = RankLoss(rank=self.spec.ranks - 1, at=0.0,
                        section=LOSS_SECTION[app])
        return dict(
            faults=FaultPlan(faults=(loss,)),
            recovery=RecoveryPolicy(),
            budget=FailureBudget(max_rank_losses=2),
        )

    def run_app(self, app: str, machine=None, vectorized=None, **kw):
        """One call of the app's runner (timed by the caller)."""
        vec = self.spec.vectorized if vectorized is None else vectorized
        with use_vectorization(vec):
            return APPDEFS[app].run(
                self.problems[app],
                machine if machine is not None else self.machine,
                self.costs[app], **kw,
            )

    def script_op(self, app: str, trace: Trace, wrap) -> OpResult:
        """The app as a one-shot user script pays it: cold plan cache,
        fresh runtime, inputs placed from scratch."""
        with trace.span("op", app=app):
            with trace.span("reset"):
                reset_run_state()
                kw = self._fault_kwargs(app)
            with trace.span("call"), wrap():
                t0 = time.perf_counter()
                try:
                    run = self.run_app(app, **kw)
                except Exception as exc:  # an op that raises is a failed op
                    return OpResult(app, time.perf_counter() - t0,
                                    error=_describe(exc))
                wall = time.perf_counter() - t0
            if not run.ok:
                return OpResult(app, wall, error=f"not ok: {run.failed}")
            return OpResult(
                app, wall, run.elapsed, run.value,
                _counts(asdict(planner_stats()), copy_stats(),
                        run.detail["data_plane"],
                        run.detail.get("recovery"),
                        run.detail["meter"].visits),
            )

    def _service_round(self, trace: Trace, wrap) -> RoundResult:
        """Submit one job per app, run the queue, collect the results."""
        srv = self.server
        apps = self.spec.apps
        with wrap():
            with trace.span("submit"):
                t0 = time.perf_counter()
                handles = {
                    app: srv.submit(
                        APPDEFS[app].job(self.problems[app]),
                        tenant=TENANTS[i % len(TENANTS)][0],
                        name=f"{app}-r{self.rounds_run}",
                        costs=self.costs[app],
                    )
                    for i, app in enumerate(apps)
                }
                extra = time.perf_counter() - t0
            walls: dict[str, float] = {}
            serial: dict[str, dict] = {}
            for _ in apps:
                before = dict(srv.serial_stats)
                with trace.span("op"), trace.span("call"):
                    t0 = time.perf_counter()
                    srv.step()
                    dt = time.perf_counter() - t0
                ran = next(a for a, h in handles.items()
                           if h.done() and a not in walls)
                walls[ran] = dt
                serial[ran] = {k: v - before[k]
                               for k, v in srv.serial_stats.items()}
            ops = []
            for app in apps:
                h = handles[app]
                t0 = time.perf_counter()
                try:
                    value = h.result()
                except Exception as exc:
                    ops.append(OpResult(
                        app, walls[app] + time.perf_counter() - t0,
                        error=_describe(exc)))
                    continue
                wall = walls[app] + time.perf_counter() - t0
                m = h.metrics
                ops.append(OpResult(
                    app, wall, m["virtual_seconds"], value,
                    _counts(m["planner"], serial[app], m["plane"],
                            m["recovery"], m["visits"]),
                    step_wall=walls[app], latency_v=h.latency,
                ))
        return RoundResult(ops, extra_wall=extra)

    # -- checking ----------------------------------------------------------

    def check(self, op: OpResult) -> str | None:
        """Why *op* counts as failed, or ``None``.

        The first value of each app is compared with the sequential
        reference by the app's own ``same_value``; every later one must
        be bit-identical to the first, with the same virtual makespan.
        A resident server's first round is its cold wave (it compiles and
        ships); from the second on, a job must compile nothing, ship no
        input byte, and repeat its warm virtual makespan.
        """
        app, c = op.app, op.counts
        op.fingerprint = digest(op.value)
        if app not in self.first_value:
            if not APPDEFS[app].same(op.value, self.refs[app]):
                return "value differs from solve_ref"
            self.first_value[app] = op.fingerprint
        elif self.first_value[app] != op.fingerprint:
            return "value not bit-identical to the first round"
        if self.server is None or self.rounds_run > 0:
            first = self.first_virtual.setdefault(app, op.virtual)
            if first != op.virtual:
                return f"virtual makespan {op.virtual!r} != {first!r} before"
            if self.server is not None:
                if c["core.fusion.compiled"] or c["core.fusion.misses"]:
                    return "a warm job recompiled a plan"
                if c["data.input_bytes"]:
                    return (f"a warm job shipped {c['data.input_bytes']} "
                            "input bytes")
        if self.spec.faulted:
            if c["runtime.rank_losses"] != 1:
                return f"rank_losses == {c['runtime.rank_losses']}, want 1"
        else:
            moved = [k for k in RECOVERY_COUNTS if c[k]]
            if moved:
                return f"recovery counters moved without a fault: {moved}"
        return None

    def check_twin(self, result: RoundResult) -> list[str]:
        """dense_local's contract: values bit-identical to, and virtual
        makespans equal to, the same round on the twin transport."""
        twin = machine_for(self.spec.ranks, self.spec.twin_transport)
        problems = []
        for op in result.ops:
            reset_run_state()
            run = self.run_app(op.app, machine=twin)
            if digest(run.value) != op.fingerprint:
                problems.append(f"{op.app}: value differs from "
                                f"{self.spec.twin_transport}")
            if run.elapsed != op.virtual:
                problems.append(f"{op.app}: virtual {op.virtual!r} != "
                                f"{run.elapsed!r} on "
                                f"{self.spec.twin_transport}")
        return problems
