"""Per-layer probes: each layer measured from outside, through its public
functions, with inputs taken from the workload being traced.

A probe is the median of ``PROBE_CALLS`` timed calls (``ROUND_CALLS`` for
the three probes that cost a whole round per call); every call is a span
in the trace.  Layer names are the module names under ``src/repro``.
"""
from __future__ import annotations

import time

import numpy as np

import repro.triolet as tri
from repro.bench import reset_run_state
from repro.cluster import run_spmd
from repro.core.fusion import PlannerState, plan_for, use_state
from repro.partition import (
    block2d_bounds,
    block_bounds,
    section_halos,
    weighted_bounds,
)
from repro.runtime import triolet_runtime
from repro.serial import deserialize, serialize
from repro.service import JobServer

from harness import Trace, median, quantile
from workloads import (
    APPDEFS,
    PAPER_APPS,
    SMALL,
    TENANTS,
    Workload,
    machine_for,
)

PROBE_CALLS = 30
ROUND_CALLS = 10
TRANSPORTS = ("sim", "local")
_MIB = 1 << 20


def _timed(trace: Trace, name: str, fn, calls: int = PROBE_CALLS,
           before=None) -> list[float]:
    """Wall seconds of *calls* calls of ``fn``; ``before`` runs untimed."""
    walls = []
    for _ in range(calls):
        if before is not None:
            before()
        with trace.span(name):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
    return walls


def input_arrays(wl: Workload) -> list[np.ndarray]:
    """Every ndarray field of the round's generated problems."""
    return [
        v for p in wl.problems.values() for v in vars(p).values()
        if isinstance(v, np.ndarray) and v.size
    ]


# -- core.fusion ------------------------------------------------------------


def fusion(trace: Trace, iterators: list) -> dict:
    """``plan_for`` on the iterators the round's sections consumed: cold
    (empty cache) and again (hit), seconds per call."""
    with use_state(PlannerState()) as state:
        def plan_all():
            for it in iterators:
                plan_for(it)

        cold = _timed(trace, "probe.plan_cold", plan_all, before=state.reset)
        hit = _timed(trace, "probe.plan_hit", plan_all)
    n = max(1, len(iterators))
    return {
        "core.fusion.plan_cold_s": median(cold) / n,
        "core.fusion.plan_hit_s": median(hit) / n,
    }


# -- core.engine / core.iterators -------------------------------------------


def _one_rank_round(trace: Trace, name: str, wl: Workload, apps,
                    vectorized: bool) -> tuple[float, int]:
    """*apps* of *wl* at one rank (no shipping, no fault plan): summed
    median wall and summed visits."""
    one = machine_for(1, "sim")
    wall, visits = 0.0, 0
    for app in apps:
        runs = []
        walls = _timed(
            trace, name,
            lambda: runs.append(
                wl.run_app(app, machine=one, vectorized=vectorized)),
            calls=ROUND_CALLS, before=reset_run_state,
        )
        wall += median(walls)
        visits += runs[-1].detail["meter"].visits
    return wall, visits


def engine(trace: Trace, wl: Workload) -> dict:
    """The kernels alone, in the workload's own execution mode."""
    wall, visits = _one_rank_round(trace, "probe.kernel", wl, wl.spec.apps,
                                   wl.spec.vectorized)
    return {
        "core.engine.kernel_s": wall,
        "core.engine.visits_per_s": visits / wall,
    }


def iterators(trace: Trace, small: Workload, apps) -> dict:
    """Scalar encodings against bulk plans on the same (small) inputs."""
    scalar, visits = _one_rank_round(trace, "probe.scalar", small, apps,
                                     False)
    vector, _ = _one_rank_round(trace, "probe.vector", small, apps, True)
    return {
        "core.iterators.scalar_visit_ns": scalar / visits * 1e9,
        "core.iterators.scalar_over_vector": scalar / vector,
    }


# -- serial / partition -----------------------------------------------------


def serial(trace: Trace, arrays: list[np.ndarray]) -> dict:
    """Serialize / deserialize the slices a 2-rank section ships."""
    halves = [a[: max(1, len(a) // 2)] for a in arrays]
    nbytes = sum(h.nbytes for h in halves)
    blobs: list[bytes] = []

    def ser():
        blobs[:] = [serialize(h) for h in halves]

    def de():
        for b in blobs:
            deserialize(b)

    ser_s = median(_timed(trace, "probe.serialize", ser))
    de_s = median(_timed(trace, "probe.deserialize", de))
    return {
        "serial.serialize_mb_s": nbytes / _MIB / ser_s,
        "serial.deserialize_mb_s": nbytes / _MIB / de_s,
    }


def partition(trace: Trace, arrays: list[np.ndarray], ranks: int) -> dict:
    """Block math at the round's domain sizes."""
    sizes = [len(a) for a in arrays]
    weights = [1.0 + r for r in range(ranks)]

    def bounds():
        for n in sizes:
            b = block_bounds(n, ranks)
            weighted_bounds(n, weights)
            block2d_bounds(n, n, ranks, 1)
            section_halos(b, 1, n)

    return {"partition.bounds_s": median(_timed(trace, "probe.bounds",
                                                 bounds))}


# -- cluster ----------------------------------------------------------------


def _noop(comm):
    return comm.rank


def _pingpong(comm, payload, trips):
    t0 = time.perf_counter()
    for _ in range(trips):
        if comm.rank == 0:
            comm.send(payload, 1)
            comm.recv(1)
        elif comm.rank == 1:
            comm.send(comm.recv(0), 0)
    return time.perf_counter() - t0


def _add(a, b):
    return a + b


def _collectives(comm, trips):
    walls = []
    for _ in range(trips):
        t0 = time.perf_counter()
        x = comm.bcast(comm.rank + 1.0, root=0)
        comm.gather(x, root=0)
        comm.reduce(x, _add, root=0)
        walls.append(time.perf_counter() - t0)
    return walls


def cluster(trace: Trace, ranks: int) -> dict:
    """Spawn/join, point-to-point bandwidth and a collective round on
    both transports (the rank bodies time themselves on rank 0)."""
    out = {}
    payload = np.zeros(_MIB // 8, dtype=np.float64)
    for tr in TRANSPORTS:
        machine = machine_for(ranks, tr)
        out[f"cluster.spawn_s.{tr}"] = median(_timed(
            trace, f"probe.spawn.{tr}",
            lambda: run_spmd(machine, _noop, ranks)))
        with trace.span(f"probe.pingpong.{tr}"):
            res = run_spmd(machine, _pingpong, ranks,
                           args=(payload, PROBE_CALLS))
        out[f"cluster.pingpong_mb_s.{tr}"] = (
            2 * PROBE_CALLS * payload.nbytes / _MIB / res.root_result)
        with trace.span(f"probe.collective.{tr}"):
            res = run_spmd(machine, _collectives, ranks, args=(PROBE_CALLS,))
        out[f"cluster.collective_s.{tr}"] = median(res.root_result)
    return out


# -- data / runtime ---------------------------------------------------------


def data(trace: Trace, wl: Workload, arrays: list[np.ndarray]) -> dict:
    """``rt.distribute`` of the round's inputs, then again (the dedupe
    path a second job or a rebuilt array takes)."""
    walls = []
    for _ in range(PROBE_CALLS):
        reset_run_state()
        with triolet_runtime(machine_for(wl.spec.ranks, "sim")) as rt:
            with trace.span("probe.distribute"):
                t0 = time.perf_counter()
                for _pass in range(2):
                    for a in arrays:
                        rt.distribute(a)
                walls.append(time.perf_counter() - t0)
    return {"data.distribute_s": median(walls)}


def runtime(trace: Trace, ranks: int, seed: int) -> dict:
    """The floor under any section (one element per rank, nothing to
    compute) and the per-iteration cost of a tiny stencil."""
    out = {}
    tiny = np.arange(ranks, dtype=np.float64)
    for tr in TRANSPORTS:
        walls = []
        for _ in range(PROBE_CALLS):
            reset_run_state()
            with triolet_runtime(machine_for(ranks, tr)):
                with trace.span(f"probe.section_floor.{tr}"):
                    t0 = time.perf_counter()
                    tri.sum(tri.par(tri.iterate(tiny)))
                    walls.append(time.perf_counter() - t0)
        out[f"runtime.section_floor_s.{tr}"] = median(walls)
    rod = APPDEFS["jacobi"].make(seed=seed, **SMALL["jacobi"])
    machine = machine_for(ranks, "sim")
    walls = _timed(trace, "probe.stencil",
                   lambda: APPDEFS["jacobi"].run(rod, machine),
                   before=reset_run_state)
    out["runtime.stencil_iter_s"] = median(walls) / rod.iterations
    return out


# -- service ----------------------------------------------------------------


def service_metrics(steps: list[float], submits: list[float],
                    latencies: list[float], warm_jobs: list[dict]) -> dict:
    """*warm_jobs*: the counts of one warm round's jobs."""
    def total(key):
        return sum(job[key] for job in warm_jobs)

    return {
        "service.job_s_p50": median(steps),
        "service.job_s_p90": quantile(steps, 0.9),
        "service.submit_s": median(submits),
        "service.latency_v_p50": median(latencies),
        "service.plan_hits": total("core.fusion.hits"),
        "service.plan_recompiles": total("core.fusion.compiled"),
        "service.zero_ship_jobs": sum(
            job["data.input_bytes"] == 0 for job in warm_jobs),
        "service.dedup_hits": total("data.dedup_hits"),
    }


def service(trace: Trace, small: Workload, ranks: int) -> dict:
    """A resident server over the small problems of the paper's apps --
    the service layer's number on workloads that do not run a server."""
    machine = machine_for(ranks, "sim")
    steps, submits, latencies = [], [], []
    rounds = -(-PROBE_CALLS // len(PAPER_APPS))
    with JobServer(machine) as srv:
        for tenant, weight in TENANTS:
            srv.add_tenant(tenant, weight=weight)
        for r in range(rounds + 1):  # round 0 is the cold wave
            handles = []
            for i, app in enumerate(PAPER_APPS):
                t0 = time.perf_counter()
                handles.append(srv.submit(
                    APPDEFS[app].job(small.problems[app]),
                    tenant=TENANTS[i % len(TENANTS)][0],
                    costs=small.costs[app]))
                if r:
                    submits.append(time.perf_counter() - t0)
            for _ in handles:
                with trace.span("probe.service_step"):
                    t0 = time.perf_counter()
                    srv.step()
                    if r:
                        steps.append(time.perf_counter() - t0)
            if r:
                latencies += [h.latency for h in handles]
    warm_jobs = [
        {
            "core.fusion.hits": h.metrics["planner"]["hits"],
            "core.fusion.compiled": h.metrics["planner"]["compiled"],
            "data.input_bytes": h.metrics["plane"]["input_bytes"],
            "data.dedup_hits": h.metrics["plane"]["dedup_hits"],
        }
        for h in handles
    ]
    return service_metrics(steps, submits, latencies, warm_jobs)
