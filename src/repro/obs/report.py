"""Run summaries and run-to-run diffs.

These operate on the flat JSONL export (:func:`repro.obs.export.
load_jsonl`), so two runs captured weeks apart on different machines can
be compared offline: the virtual timeline makes the key quantities
(makespans, bytes shipped, planner hits) deterministic.
"""
from __future__ import annotations

from numbers import Number

#: Counters whose growth between two runs counts as a perf regression
#: (all "lower is better" on the virtual timeline).
REGRESSION_COUNTERS = (
    "time.makespan",
    "cluster.bytes_sent",
    "cluster.messages_sent",
    "cluster.comm_time",
    "plane.input_bytes",
    "plane.cache_misses",
    "plane.migrated_bytes",
    "planner.misses",
    "recovery.reshipped_bytes",
)

#: Default tolerated relative growth before a counter is flagged.
DEFAULT_THRESHOLD = 0.05


def summarize(data: dict) -> dict:
    """Condense a loaded JSONL export into a one-screen summary."""
    counters = data.get("counters", {})
    spans = data.get("spans", [])
    events = data.get("events", [])
    kinds: dict[str, int] = {}
    kind_time: dict[str, float] = {}
    ranks: set[int] = set()
    for s in spans:
        kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
        t1 = s["t1"] if s["t1"] is not None else s["t0"]
        kind_time[s["kind"]] = kind_time.get(s["kind"], 0.0) + (t1 - s["t0"])
        if s["rank"] >= 0:
            ranks.add(s["rank"])
    # Sections that needed more than one attempt: their attempts and the
    # recovery acts between them, in order, under the section's span.
    by_sid = {s["sid"]: s for s in spans}
    recovered: dict[int, list[dict]] = {}
    for s in spans:
        if s["kind"] in ("attempt", "recover"):
            recovered.setdefault(s["parent"], []).append(s)
    # What the ranks of each section executed: one engine pass per core,
    # timed as so many tasks, so much of it stealable (an inner localpar).
    # A stencil sweep is one section of so many supersteps: each rank
    # records one ``stencil_kernel`` span per superstep, the section span
    # says how deep the sweep was and what ghost rows it shipped.
    kernels: dict[int, dict] = {}
    sweeps: dict[int, dict] = {}
    for s in spans:
        if s["kind"] != "kernel":
            continue
        sec = s
        while sec["kind"] != "section" and sec["parent"] in by_sid:
            sec = by_sid[sec["parent"]]
        name = f"{sec['name']}#{sec['sid']}"
        if "passes" in s["attrs"]:
            row = kernels.setdefault(sec["sid"], {
                "section": name, "ranks": 0,
                "passes": 0, "tasks": 0, "nested_s": 0.0,
            })
            row["ranks"] += 1
            for key in ("passes", "tasks", "nested_s"):
                row[key] += s["attrs"].get(key, 0)
        elif "iterations" in sec["attrs"]:
            attrs = sec["attrs"]
            row = sweeps.setdefault(sec["sid"], {
                "section": name, "supersteps": 0,
                **{k: attrs.get(k, 0)
                   for k in ("nodes", "iterations", "halo_bytes")},
                "depth": attrs.get("radius", 0) * attrs.get("iterations", 0),
            })
            row["supersteps"] += 1
    return {
        "spans": len(spans),
        "events": len(events),
        "ranks": sorted(ranks),
        "span_kinds": dict(sorted(kinds.items())),
        "span_time_by_kind": {k: kind_time[k] for k in sorted(kind_time)},
        "sections": [
            {"label": sec.get("label"), "kind": sec.get("kind"),
             "makespan": sec.get("makespan"),
             "bytes_shipped": sec.get("bytes_shipped")}
            for sec in data.get("sections", [])
        ],
        "kernels": [kernels[sid] for sid in sorted(kernels)],
        "sweeps": [sweeps[sid] for sid in sorted(sweeps)],
        "recovered_sections": [
            {
                "section": f"{by_sid[sid]['name']}#{sid}",
                "steps": [
                    {"name": s["name"], "t0": s["t0"],
                     "virtual_s": s["t1"] - s["t0"], **s["attrs"]}
                    for s in sorted(steps, key=lambda s: s["t0"])
                ],
            }
            for sid, steps in sorted(recovered.items())
        ],
        "counters": dict(sorted(counters.items())),
    }


def render_summary(summary: dict) -> str:
    lines = [
        f"spans: {summary['spans']}   events: {summary['events']}   "
        f"ranks: {summary['ranks']}",
        "",
        f"{'span kind':<12}{'count':>7}{'virtual s':>12}",
    ]
    for kind, n in summary["span_kinds"].items():
        t = summary["span_time_by_kind"].get(kind, 0.0)
        lines.append(f"{kind:<12}{n:>7}{t:>12.6f}")
    if summary["sections"]:
        lines += ["", f"{'section':<28}{'kind':<10}{'makespan':>12}"
                      f"{'bytes':>12}"]
        for sec in summary["sections"]:
            lines.append(
                f"{str(sec['label'])[:27]:<28}{str(sec['kind']):<10}"
                f"{sec['makespan']:>12.6f}{sec['bytes_shipped']:>12}"
            )
    if summary.get("kernels"):
        lines += ["", f"{'kernels of section':<28}{'ranks':>7}{'passes':>8}"
                      f"{'tasks':>7}{'nested s':>12}"]
        for row in summary["kernels"]:
            lines.append(
                f"{row['section'][:27]:<28}{row['ranks']:>7}{row['passes']:>8}"
                f"{row['tasks']:>7}{row['nested_s']:>12.6f}"
            )
    if summary.get("sweeps"):
        lines += ["", f"{'stencil sweep':<28}{'ranks':>7}{'iters':>7}"
                      f"{'steps':>7}{'ghost rows':>12}{'halo B':>10}"]
        for row in summary["sweeps"]:
            lines.append(
                f"{row['section'][:27]:<28}{row['nodes']:>7}"
                f"{row['iterations']:>7}{row['supersteps']:>7}"
                f"{row['depth']:>12}{row['halo_bytes']:>10}"
            )
    for sec in summary.get("recovered_sections", ()):
        lines += ["", f"attempts of section {sec['section']}:",
                  f"  {'step':<12}{'virtual s':>12}{'wall ms':>10}"
                  f"{'ranks':>7}{'blocks':>8}{'kept':>6}  outcome"]
        for st in sec["steps"]:
            if "outcome" not in st:  # a recovery act between two attempts
                lines.append(f"  {st['name']:<12}{'':>12}{'':>10}{'':>7}"
                             f"{'':>8}{'':>6}  lost_rows="
                             f"{st.get('lost_rows', 0)}")
                continue
            wall_ms = (st["wall_ns1"] - st["wall_ns0"]) / 1e6
            lines.append(
                f"  {st['name']:<12}{st['virtual_s']:>12.6f}{wall_ms:>10.3f}"
                f"{st['nranks']:>7}{st['blocks']:>8}{st['salvaged']:>6}"
                f"  {st['outcome']}"
            )
    lines += ["", "counters:"]
    for name, value in summary["counters"].items():
        lines.append(f"  {name} = {value}")
    return "\n".join(lines)


def diff_runs(base: dict, other: dict,
              threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Compare two loaded JSONL exports counter by counter.

    Returns ``{"regressions", "improvements", "changes"}`` where
    *regressions* are :data:`REGRESSION_COUNTERS` that grew by more than
    *threshold* (relative; any growth from zero counts), and *changes*
    lists every counter whose value differs.
    """
    bc = {k: v for k, v in base.get("counters", {}).items()
          if isinstance(v, Number)}
    oc = {k: v for k, v in other.get("counters", {}).items()
          if isinstance(v, Number)}
    changes = []
    for name in sorted(set(bc) | set(oc)):
        b, o = bc.get(name, 0), oc.get(name, 0)
        if b != o:
            changes.append({"counter": name, "base": b, "other": o})
    regressions, improvements = [], []
    for name in REGRESSION_COUNTERS:
        b, o = bc.get(name, 0), oc.get(name, 0)
        if o > b and (b == 0 or (o - b) / b > threshold):
            regressions.append({
                "counter": name, "base": b, "other": o,
                "growth": None if b == 0 else (o - b) / b,
            })
        elif o < b:
            improvements.append({"counter": name, "base": b, "other": o})
    return {"regressions": regressions, "improvements": improvements,
            "changes": changes}


def render_diff(diff: dict) -> str:
    lines = []
    if diff["regressions"]:
        lines.append("REGRESSIONS:")
        for r in diff["regressions"]:
            growth = ("new" if r["growth"] is None
                      else f"+{r['growth'] * 100:.1f}%")
            lines.append(f"  {r['counter']}: {r['base']} -> {r['other']} "
                         f"({growth})")
    else:
        lines.append("no regressions")
    if diff["improvements"]:
        lines.append("improvements:")
        for r in diff["improvements"]:
            lines.append(f"  {r['counter']}: {r['base']} -> {r['other']}")
    other_changes = [c for c in diff["changes"]
                     if c["counter"] not in REGRESSION_COUNTERS]
    if other_changes:
        lines.append("other changed counters:")
        for c in other_changes:
            lines.append(f"  {c['counter']}: {c['base']} -> {c['other']}")
    return "\n".join(lines)

