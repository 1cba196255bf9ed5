"""Cost contexts: converting measured loop statistics to virtual seconds.

The split of responsibilities (DESIGN.md §5): element visit counts,
stepper steps, message bytes and partition shapes are *measured* from the
real execution; this module holds the calibrated *constants* that convert
them to virtual seconds on the paper's machine.

``unit_time`` is "seconds per innermost element visit for this framework
running this app's kernel" -- i.e. Fig. 3 sequential time divided by total
visits.  The per-framework factors relative to sequential C live in
:mod:`repro.bench.calibrate`.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.meter import CostMeter


@dataclass(frozen=True)
class CostContext:
    """Constants converting meter readings into virtual seconds."""

    #: virtual seconds per innermost element visit
    unit_time: float = 1e-8
    #: extra virtual seconds per stepper step (the encoding overhead the
    #: paper measured as 2-5x on nested stepper loops)
    step_overhead: float = 0.0
    #: scale factor from sandbox-sized problems to paper-sized problems
    #: (applied to task compute times)
    compute_scale: float = 1.0
    #: scale factor applied to message byte counts when charging network
    #: time and checking buffer limits (paper-sized data volumes)
    wire_scale: float = 1.0
    #: seconds per element when merging two partial results (a plain
    #: streaming add, NOT the app kernel's per-visit cost; unscaled by
    #: ``compute_scale`` -- partial sizes scale with the data, so callers
    #: apply ``wire_scale`` to the element count instead)
    combine_time_per_element: float = 1.5e-9

    def combine_seconds(self, elements: float) -> float:
        """Cost of merging a partial result of *elements* scalars."""
        return elements * self.wire_scale * self.combine_time_per_element

    def task_seconds(self, m: CostMeter) -> float:
        """Virtual compute seconds for a region with meter reading *m*."""
        return self.seconds_for_visits(m.visits, m.steps)

    def seconds_for_visits(self, visits: float, steps: float = 0) -> float:
        """Virtual compute seconds of *visits* element visits and *steps*
        stepper steps (one task's row of a ledger, or a meter's totals)."""
        return (
            visits * self.unit_time + steps * self.step_overhead
        ) * self.compute_scale


_current: contextvars.ContextVar[CostContext] = contextvars.ContextVar(
    "repro_cost_context", default=CostContext()
)


@contextmanager
def use_costs(ctx: CostContext):
    token = set_costs(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def set_costs(ctx: CostContext) -> contextvars.Token:
    """Make *ctx* the cost context from here on, in this context (a rank
    process takes its job's); returns the token that undoes it."""
    return _current.set(ctx)


def current_costs() -> CostContext:
    return _current.get()
