"""Run one benchmark app under an observability capture.

Shared by the ``python -m repro.obs trace`` CLI and the observability
tests.  Imports of the heavyweight app harness are deferred so importing
:mod:`repro.obs` (which the instrumented runtime modules do) never drags
the apps in.
"""
from __future__ import annotations


def capture_app(app: str = "sgemm", nodes: int = 2, *,
                vectorize: bool = True):
    """Run *app*'s Triolet runner, at the harness sandbox size, under a
    capture.  Returns ``(recorder, app_run)``."""
    from repro.bench.calibrate import costs_for
    from repro.bench.harness import APPS, make_problem
    from repro.cluster.machine import PAPER_MACHINE
    from repro.core.engine import use_vectorization
    from repro.obs.spans import capture

    problem = make_problem(app)
    machine = PAPER_MACHINE.scaled(nodes=nodes)
    costs = costs_for(app, "triolet", problem)
    with capture() as rec:
        with use_vectorization(vectorize):
            run = APPS[app].runners["triolet"](problem, machine, costs)
    return rec, run
