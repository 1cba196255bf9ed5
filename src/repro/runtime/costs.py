"""Cost contexts: converting measured loop statistics to virtual seconds.

:class:`CostContext` holds the calibrated constants (DESIGN.md §5); the
one in force is a field of the run state
(:class:`repro.core.runstate.RunState`), where the class lives so the
core layers can name it without importing the runtime.
"""
from __future__ import annotations

from repro.core.runstate import CostContext, run_state, running


def use_costs(ctx: CostContext):
    """Make *ctx* the cost context for the dynamic extent."""
    return running(costs=ctx)


def current_costs() -> CostContext:
    return run_state().costs
