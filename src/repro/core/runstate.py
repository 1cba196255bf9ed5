"""Run state: what code reads of the run it is in, as one value.

A frozen :class:`RunState` -- the engine's vectorization flag and chunk,
the cost context, the plan cache -- in **one** context variable.  The
readers read it, :func:`running` changes fields for a dynamic extent and
:func:`install` sets a whole value (a ``local`` member installs its
job's).  It follows the context, not the process: a thread started
without a copy of a context sees the defaults.  The plan cache is a
mutable :class:`PlannerState`, shared by every context that holds it.
"""
from __future__ import annotations

import contextvars
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.core.meter import CostMeter


@dataclass(frozen=True)
class CostContext:
    """Constants converting meter readings into virtual seconds
    (DESIGN.md §5: counts are measured, these are calibrated)."""

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


@dataclass
class PlannerStats:
    """Plan-cache traffic counters (reset with
    :func:`repro.core.fusion.reset_planner`)."""

    hits: int = 0
    misses: int = 0
    compiled: int = 0  # misses that produced a plan
    unsupported: int = 0  # misses that fell back to the scalar loop
    negative_evictions: int = 0  # unsupported entries dropped by the LRU bound


@dataclass
class PlannerState:
    """One plan cache plus its traffic counters.

    Owns everything :func:`repro.core.fusion.plan_for` touches, so
    whoever holds the state object -- the default run state or a
    resident :class:`~repro.service.JobServer` -- owns plan-cache
    lifetime.
    """

    cache: dict = field(default_factory=dict)
    #: structural key -> None, LRU-bounded negative cache
    negative: OrderedDict = field(default_factory=OrderedDict)
    stats: PlannerStats = field(default_factory=PlannerStats)

    def reset(self) -> None:
        self.cache.clear()
        self.negative.clear()
        self.stats = PlannerStats()

    def snapshot(self) -> dict:
        return dict(vars(self.stats))


@dataclass(frozen=True)
class RunState:
    """Everything code reads of the run it is in."""

    #: the vectorized engine on (off: every consumer runs its scalar loop)
    vectorized: bool = True
    #: elements per engine batch
    chunk: int = 1024
    costs: CostContext = CostContext()
    #: the plan cache (the default state's is one per process)
    planner: PlannerState = field(default_factory=PlannerState)

    def __post_init__(self):
        if self.chunk < 1:
            raise ValueError("chunk size must be >= 1")


_RUN: contextvars.ContextVar[RunState] = contextvars.ContextVar(
    "repro_run_state", default=RunState())

#: The run state of the current context.
run_state = _RUN.get


def install(state: RunState) -> contextvars.Token:
    """Make *state* the run state from here on, in this context; returns
    the token that undoes it."""
    return _RUN.set(state)


@contextmanager
def running(**changes):
    """The current run state with *changes* (:class:`RunState` fields)
    for the dynamic extent; yields it."""
    state = replace(_RUN.get(), **changes)
    token = _RUN.set(state)
    try:
        yield state
    finally:
        _RUN.reset(token)
