"""Fusion observation tools (the analogue of the paper's §3.2 optimizer)."""
from repro.core.fusion.planner import (
    NEGATIVE_CACHE_MAX,
    PlannerState,
    PlannerStats,
    current_state,
    plan_for,
    planner_stats,
    reset_planner,
    structural_key,
    use_state,
)
from repro.core.fusion.report import FusionReport, analyze, closure_depth

__all__ = [
    "FusionReport",
    "analyze",
    "closure_depth",
    "NEGATIVE_CACHE_MAX",
    "PlannerState",
    "PlannerStats",
    "current_state",
    "plan_for",
    "planner_stats",
    "reset_planner",
    "structural_key",
    "use_state",
]
