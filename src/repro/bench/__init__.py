"""Benchmark harness regenerating the paper's evaluation (§4).

* :mod:`repro.bench.calibrate` -- the calibrated constants (documented
  against Fig. 3 and the testbed) converting measured loop statistics to
  virtual seconds per framework and app.
* :mod:`repro.bench.harness` -- runs (app x framework x node count),
  checks numerical correctness against the sequential reference, and
  produces the speedup series of Figs. 4/5/7/8 and the sequential-time
  table of Fig. 3.
"""
from repro.bench.harness import (
    APPS,
    AppSpec,
    SpeedupPoint,
    figure3_rows,
    make_problem,
    run_point,
    scaling_series,
    sequential_seconds,
    render_figure3,
    render_series,
)


def reset_run_state() -> None:
    """Reset every piece of engine state a run can observe: the current
    run state's fusion-plan cache, the serialization copy counters, the
    distributed-array handle registry, and any stale observability
    recorder.  Called before a run whose counters are compared with
    another's, so each reports deltas for *that* run -- the workloads of
    ``benchmarks/e2e`` and the cross-transport conformance test.
    """
    from repro.core.fusion.planner import reset_planner
    from repro.data.handle import drop_handles
    from repro.obs.spans import force_disable
    from repro.serial import reset_copy_stats

    reset_planner()
    reset_copy_stats()
    drop_handles()
    force_disable()


__all__ = [
    "reset_run_state",
    "APPS",
    "AppSpec",
    "SpeedupPoint",
    "figure3_rows",
    "make_problem",
    "run_point",
    "scaling_series",
    "sequential_seconds",
    "render_figure3",
    "render_series",
]
