"""The metrics registry: every counter family under one namespace.

The runtime grew five instrumented subsystems, each with its own ad-hoc
API: :class:`~repro.core.meter.CostMeter`, the fusion planner's
:class:`~repro.core.fusion.planner.PlannerStats`, the serialization
``copy_stats()``, the cluster's :class:`~repro.cluster.metrics.RunMetrics`,
the data plane's totals, and :class:`~repro.runtime.recovery.
RecoveryReport`.  The registry adapts them all into flat named counters
(``cluster.bytes_sent``, ``plane.input_bytes``, ``planner.hits``,
``recovery.reshipped_bytes``, ...) with per-section snapshots.

Counters are filled through two mechanisms:

* **live hooks** -- the planner and data plane increment their registry
  counters at the moment the legacy counter moves, giving a genuinely
  independent accumulation stream;
* **section adaptation** -- the driver folds each
  :class:`~repro.runtime.section.SectionRecord` in at the section
  boundary.

Because the streams are independent, :func:`conservation_violations`
is a real check, not a tautology: registry totals must equal the legacy
sources they adapt, bit for bit (ints) or float-exactly (same addition
order).
"""
from __future__ import annotations


class MetricsRegistry:
    """Flat named counters/gauges plus per-section snapshots."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.sections: list[dict] = []

    def inc(self, name: str, value=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        self.counters[name] = value

    def get(self, name: str, default=0):
        return self.counters.get(name, default)

    def empty(self) -> bool:
        return not self.counters and not self.sections

    def snapshot_section(self, label: str, values: dict) -> None:
        self.sections.append({"label": label, "index": len(self.sections),
                              **values})

    def names(self) -> list[str]:
        return sorted(self.counters)

    def as_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "sections": [dict(s) for s in self.sections],
        }


#: Data-plane stat keys mirrored 1:1 between ``plane.totals`` and the
#: registry's ``plane.*`` live counters.
PLANE_KEYS = (
    "requests", "input_bytes", "placements", "placed_bytes",
    "resident_hits", "cache_hits", "cache_misses", "cache_evictions",
    "migrated_bytes", "migrations", "lineage_replays", "replayed_bytes",
    "halo_requests", "halo_hits", "halo_refreshes", "halo_bytes",
)

#: Planner stat fields mirrored between ``PlannerStats`` and
#: ``planner.*``.
PLANNER_KEYS = ("hits", "misses", "compiled", "unsupported",
                "negative_evictions")


def _check(violations: list[str], name: str, registry_value, legacy_value,
           source: str) -> None:
    if registry_value != legacy_value:
        violations.append(
            f"{name}: registry={registry_value!r} != {source}="
            f"{legacy_value!r}"
        )


def conservation_violations(rec, runtime) -> list[str]:
    """Check every adapted counter family against its legacy source.

    *rec* is the capture's :class:`~repro.obs.spans.Recorder`, *runtime*
    the single :class:`~repro.runtime.driver.TrioletRuntime` that ran
    inside the capture.  Returns violation descriptions (empty list ==
    conservation holds):

    * ``cluster.*`` totals vs the runtime's section ledger;
    * ``plane.*`` live counters vs ``DataPlane.totals``;
    * the sum of ``ship`` spans' ``input_bytes`` vs the plane's
      ``input_bytes`` total, and the recovery-tagged subset vs
      ``RecoveryReport.reshipped_bytes``;
    * ``planner.*`` live counters vs the global ``PlannerStats`` delta
      since the capture began;
    * ``meter.*`` gauges (when folded) vs ``runtime.meter_total``.
    """
    from repro.core.fusion.planner import planner_stats

    v: list[str] = []
    reg = rec.registry

    _check(v, "sections.count", reg.get("sections.count"),
           len(runtime.sections), "len(runtime.sections)")
    _check(v, "cluster.bytes_sent", reg.get("cluster.bytes_sent"),
           runtime.total_bytes_shipped(), "runtime.total_bytes_shipped()")
    _check(v, "cluster.messages_sent", reg.get("cluster.messages_sent"),
           sum(s.messages for s in runtime.sections), "section ledger")
    _check(v, "time.makespan", reg.get("time.makespan"),
           sum(s.makespan for s in runtime.sections), "section ledger")

    # Data plane: live counters vs the plane's own totals.
    totals = runtime.plane.totals
    for k in PLANE_KEYS:
        _check(v, f"plane.{k}", reg.get(f"plane.{k}"), totals.get(k, 0),
               "plane.totals")

    # Ship spans vs plane bytes, and their recovery-tagged subset vs the
    # recovery report (the crash drill's reshipped bytes must be visible
    # as recovery-tagged spans).
    ship = rec.spans_of_kind("ship")
    _check(v, "ship-span input_bytes",
           sum(s.attrs.get("input_bytes", 0) for s in ship),
           totals.get("input_bytes", 0), "plane.totals")
    _check(v, "recovery-tagged ship-span bytes",
           sum(s.attrs.get("input_bytes", 0) for s in ship
               if s.attrs.get("recovery")),
           runtime.recovery_report.reshipped_bytes,
           "recovery_report.reshipped_bytes")
    _check(v, "recovery.reshipped_bytes", reg.get("recovery.reshipped_bytes"),
           runtime.recovery_report.reshipped_bytes,
           "recovery_report.reshipped_bytes")

    # Halo spans vs plane halo bytes: ghost-cell traffic is tracked on
    # its own span kind, and must reconcile exactly like interior bytes.
    halo = rec.spans_of_kind("halo")
    _check(v, "halo-span halo_bytes",
           sum(s.attrs.get("halo_bytes", 0) for s in halo),
           totals.get("halo_bytes", 0), "plane.totals")

    # Planner: live counters vs the global stats delta since capture.
    stats = planner_stats()
    base = rec.planner_baseline
    for k in PLANNER_KEYS:
        legacy = getattr(stats, k) - (getattr(base, k) if base else 0)
        _check(v, f"planner.{k}", reg.get(f"planner.{k}"), legacy,
               "PlannerStats")
    return v
