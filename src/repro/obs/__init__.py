"""repro.obs -- the unified observability layer.

One spine over the runtime's five counter families and its virtual
timeline: hierarchical span tracing (:mod:`repro.obs.spans`), the
:class:`~repro.obs.registry.MetricsRegistry` with conservation checks
(:mod:`repro.obs.registry`), Chrome trace-event / JSONL exporters
(:mod:`repro.obs.export`), and run summaries / diffs
(:mod:`repro.obs.report`).  ``python -m repro.obs`` is the CLI.

This ``__init__`` must stay lightweight: the instrumented runtime
modules (driver, planner, data plane, collectives) import
``repro.obs.spans``, which executes this package initializer -- pulling
the app harness in here would create an import cycle.
"""
from repro.obs.export import (
    chrome_trace,
    check_event_causality,
    load_jsonl,
    span_tree,
    to_jsonl,
    validate_chrome,
    write_chrome,
    write_jsonl,
)
from repro.obs.registry import MetricsRegistry, conservation_violations
from repro.obs.report import diff_runs, summarize
from repro.obs.spans import (
    DRIVER_LANE,
    NULL_SPAN,
    SPAN_KINDS,
    Recorder,
    Span,
    active,
    capture,
    count,
    force_disable,
    obs_span,
)

__all__ = [
    "DRIVER_LANE",
    "MetricsRegistry",
    "NULL_SPAN",
    "Recorder",
    "SPAN_KINDS",
    "Span",
    "active",
    "capture",
    "check_event_causality",
    "chrome_trace",
    "conservation_violations",
    "count",
    "diff_runs",
    "force_disable",
    "load_jsonl",
    "obs_span",
    "span_tree",
    "summarize",
    "to_jsonl",
    "validate_chrome",
    "write_chrome",
    "write_jsonl",
]
