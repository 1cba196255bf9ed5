"""The evaluation harness: regenerate every figure of §4.

The harness runs each app under each framework at node counts 1..8 (16
cores per node, the paper's x-axis), verifies the numerical result
against the sequential reference, and reports speedup over sequential C
-- the paper's normalization.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps.common import AppRun
from repro.baselines.seqc import run_seqc
from repro.bench.calibrate import costs_for
from repro.cluster.machine import PAPER_MACHINE

from repro.apps import cutcp, mriq, sgemm, tpacf


@dataclass(frozen=True)
class AppSpec:
    """Everything the harness needs to evaluate one benchmark."""

    name: str
    make_problem: Callable[..., Any]
    solve_ref: Callable[[Any], Any]
    runners: dict  # framework -> run(problem, machine, costs) -> AppRun
    same_value: Callable[[Any, Any], bool]
    sandbox_params: dict


def _same_array(a, b) -> bool:
    return a is not None and np.allclose(a, b, rtol=1e-8, atol=1e-8)


def _same_hists(a, b) -> bool:
    return a is not None and all(np.allclose(a[k], b[k]) for k in b)


APPS: dict[str, AppSpec] = {
    "mriq": AppSpec(
        name="mriq",
        make_problem=mriq.make_problem,
        solve_ref=mriq.solve_ref,
        runners={
            "triolet": mriq.run_triolet,
            "eden": mriq.run_eden,
            "cmpi": mriq.run_cmpi_app,
        },
        same_value=_same_array,
        sandbox_params=dict(npix=2048, nk=192, seed=7),
    ),
    "sgemm": AppSpec(
        name="sgemm",
        make_problem=sgemm.make_problem,
        solve_ref=sgemm.solve_ref,
        runners={
            "triolet": sgemm.run_triolet,
            "eden": sgemm.run_eden,
            "cmpi": sgemm.run_cmpi_app,
        },
        same_value=_same_array,
        sandbox_params=dict(n=64, seed=7),
    ),
    "tpacf": AppSpec(
        name="tpacf",
        make_problem=tpacf.make_problem,
        solve_ref=tpacf.solve_ref,
        runners={
            "triolet": tpacf.run_triolet,
            "eden": tpacf.run_eden,
            "cmpi": tpacf.run_cmpi_app,
        },
        same_value=_same_hists,
        sandbox_params=dict(m=64, nr=32, seed=7),
    ),
    "cutcp": AppSpec(
        name="cutcp",
        make_problem=cutcp.make_problem,
        solve_ref=cutcp.solve_ref,
        runners={
            "triolet": cutcp.run_triolet,
            "eden": cutcp.run_eden,
            "cmpi": cutcp.run_cmpi_app,
        },
        same_value=_same_array,
        sandbox_params=dict(na=300, grid=(24, 24, 24), cutoff=4.0, seed=7),
    ),
}

#: the paper's node counts: 1..8 nodes of 16 cores = 16..128 cores.
NODE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass
class SpeedupPoint:
    """One point of a Fig. 4/5/7/8 curve."""

    app: str
    framework: str
    nodes: int
    cores: int
    speedup: float  # over sequential C; 0.0 when the run failed
    elapsed: float
    correct: bool
    failed: str | None = None


def make_problem(app: str):
    spec = APPS[app]
    return spec.make_problem(**spec.sandbox_params)


def sequential_seconds(app: str, problem=None, framework: str = "c") -> tuple[float, Any]:
    """Fig. 3: one framework's sequential virtual time, plus the value.

    The sequential *numerics* are the shared kernels; the framework only
    changes the calibrated per-visit constant.
    """
    spec = APPS[app]
    p = problem if problem is not None else make_problem(app)
    costs = costs_for(app, framework, p)
    res = run_seqc(lambda: spec.solve_ref(p), costs)
    return res.seconds, res.value


def run_point(
    app: str,
    framework: str,
    nodes: int,
    problem=None,
    reference=None,
    cores_per_node: int = 16,
) -> SpeedupPoint:
    """Run one (app, framework, machine size) cell."""
    spec = APPS[app]
    p = problem if problem is not None else make_problem(app)
    machine = PAPER_MACHINE.scaled(nodes=nodes, cores_per_node=cores_per_node)
    costs = costs_for(app, framework, p)
    seq_s, seq_value = (
        reference
        if reference is not None
        else sequential_seconds(app, p)
    )
    run: AppRun = spec.runners[framework](p, machine, costs)
    if not run.ok:
        return SpeedupPoint(
            app=app,
            framework=framework,
            nodes=nodes,
            cores=nodes * cores_per_node,
            speedup=0.0,
            elapsed=float("inf"),
            correct=False,
            failed=run.failed,
        )
    return SpeedupPoint(
        app=app,
        framework=framework,
        nodes=nodes,
        cores=nodes * cores_per_node,
        speedup=seq_s / run.elapsed,
        elapsed=run.elapsed,
        correct=spec.same_value(run.value, seq_value),
    )


def scaling_series(
    app: str,
    frameworks: tuple[str, ...] = ("cmpi", "triolet", "eden"),
    node_counts: tuple[int, ...] = NODE_COUNTS,
) -> dict[str, list[SpeedupPoint]]:
    """A full Fig. 4/5/7/8 dataset for one app."""
    p = make_problem(app)
    reference = sequential_seconds(app, p)
    return {
        fw: [
            run_point(app, fw, nodes, problem=p, reference=reference)
            for nodes in node_counts
        ]
        for fw in frameworks
    }


def figure3_rows(apps: tuple[str, ...] = ("tpacf", "mriq", "sgemm", "cutcp")):
    """Fig. 3: sequential seconds per app for CPU (C), Eden, Triolet."""
    rows = []
    for app in apps:
        p = make_problem(app)
        rows.append(
            {
                "app": app,
                "c": sequential_seconds(app, p, "c")[0],
                "eden": sequential_seconds(app, p, "eden")[0],
                "triolet": sequential_seconds(app, p, "triolet")[0],
            }
        )
    return rows


def render_figure3(rows: list[dict]) -> str:
    """Text rendering of :func:`figure3_rows`."""
    lines = [f"{'app':<8}{'C':>10}{'Eden':>10}{'Triolet':>10}   (virtual seconds)"]
    lines += [
        f"{r['app']:<8}{r['c']:>10.1f}{r['eden']:>10.1f}{r['triolet']:>10.1f}"
        for r in rows
    ]
    return "\n".join(lines)


def render_series(app: str, series: dict[str, list[SpeedupPoint]]) -> str:
    """Text rendering of one scalability figure (paper layout: speedup
    over sequential C vs. cores, plus the linear-speedup reference)."""
    fws = list(series)
    lines = [f"{app}: speedup over sequential C (x)  [paper Figs. 4/5/7/8]"]
    header = f"{'cores':>6} {'linear':>8}" + "".join(f"{fw:>10}" for fw in fws)
    lines.append(header)
    npoints = len(next(iter(series.values())))
    for i in range(npoints):
        cores = series[fws[0]][i].cores
        row = f"{cores:>6} {float(cores):>8.1f}"
        for fw in fws:
            pt = series[fw][i]
            row += f"{'FAIL':>10}" if pt.failed else f"{pt.speedup:>10.1f}"
        lines.append(row)
    return "\n".join(lines)
