"""Exporters: Chrome trace-event JSON and flat JSONL.

The Chrome export loads directly in ``chrome://tracing`` / Perfetto:
one process ("triolet") with a driver lane (tid 0) and one lane per
rank (tid = rank + 1), built by joining recorded spans with the cluster
trace's CommEvents.  Endpoint-less fault events (``peer == -1`` --
rank crashes, rank failures, speculation stamps) land in a separate
"faults" process with one lane per rank, so injected-fault forensics
never hide under dense message traffic.

The JSONL export is the flat machine-readable form the ``python -m
repro.obs`` CLI consumes: one JSON object per line (``meta``,
``counter``, ``section``, ``span``, ``event``).
"""
from __future__ import annotations

import json
from typing import Any

from repro.cluster.trace import FAULT_EVENT_KINDS

#: Chrome trace pid for the run's span/message lanes.
RUN_PID = 1
#: Chrome trace pid for the per-rank fault lanes.
FAULT_PID = 2

_US = 1e6  # virtual seconds -> trace-event microseconds


def _lane(rank: int) -> int:
    """Driver lane (-1) -> tid 0; rank r -> tid r + 1."""
    return rank + 1


# -- Chrome trace-event JSON -------------------------------------------------


def chrome_trace(rec) -> dict:
    """The capture as a Chrome trace-event payload (dict; json-dump it)."""
    spans = [s.as_dict() if hasattr(s, "as_dict") else dict(s)
             for s in rec.spans]
    events = [dict(e) for e in rec.events]
    out: list[dict] = []

    ranks = {s["rank"] for s in spans} | {e["rank"] for e in events}
    out.append(_meta(RUN_PID, 0, "process_name", {"name": "triolet"}))
    out.append(_meta(RUN_PID, 0, "thread_name", {"name": "driver"}))
    for r in sorted(r for r in ranks if r >= 0):
        out.append(_meta(RUN_PID, _lane(r), "thread_name",
                         {"name": f"rank {r}"}))
    fault_ranks = sorted({e["rank"] for e in events
                          if e["kind"] in FAULT_EVENT_KINDS
                          and e["peer"] < 0})
    if fault_ranks:
        out.append(_meta(FAULT_PID, 0, "process_name", {"name": "faults"}))
        for r in fault_ranks:
            out.append(_meta(FAULT_PID, r, "thread_name",
                             {"name": f"rank {r} faults"}))

    for s in spans:
        t1 = s["t1"] if s["t1"] is not None else s["t0"]
        out.append({
            "ph": "X",
            "name": f"{s['kind']}:{s['name']}",
            "cat": s["kind"],
            "ts": s["t0"] * _US,
            "dur": max(0.0, (t1 - s["t0"]) * _US),
            "pid": RUN_PID,
            "tid": _lane(s["rank"]),
            "args": _jsonable(s["attrs"]),
        })
    for e in events:
        is_fault = e["kind"] in FAULT_EVENT_KINDS and e["peer"] < 0
        out.append({
            "ph": "i",
            "s": "t",
            "name": e["kind"],
            "cat": "fault" if is_fault else "comm",
            "ts": e["time"] * _US,
            "pid": FAULT_PID if is_fault else RUN_PID,
            "tid": e["rank"] if is_fault else _lane(e["rank"]),
            "args": {"peer": e["peer"], "tag": e["tag"],
                     "nbytes": e["nbytes"], "section": e.get("section")},
        })
    out.sort(key=lambda ev: (ev["ph"] != "M", ev.get("ts", 0.0)))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def _meta(pid: int, tid: int, name: str, args: dict) -> dict:
    return {"ph": "M", "name": name, "pid": pid, "tid": tid, "ts": 0.0,
            "args": args}


def _jsonable(obj: Any):
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return {k: _jsonable_value(v) for k, v in obj.items()} \
            if isinstance(obj, dict) else str(obj)


def _jsonable_value(v: Any):
    try:
        json.dumps(v)
        return v
    except TypeError:
        return str(v)


def validate_chrome(payload: dict) -> list[str]:
    """Schema-check a Chrome trace payload; [] means well-formed."""
    bad: list[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a dict with a traceEvents list"]
    evs = payload["traceEvents"]
    if not isinstance(evs, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(evs):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            bad.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("M", "X", "i", "C"):
            bad.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            bad.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                bad.append(f"{where}: {key} is not an int")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            bad.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                bad.append(f"{where}: X event with bad dur {dur!r}")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            bad.append(f"{where}: instant event with bad scope "
                       f"{ev.get('s')!r}")
    return bad


# -- flat JSONL --------------------------------------------------------------


def to_jsonl(rec) -> str:
    """The capture as line-delimited JSON (meta, counters, sections,
    spans, events -- in that order)."""
    lines = [json.dumps({
        "type": "meta", "version": 1,
        "spans": len(rec.spans), "events": len(rec.events),
    })]
    for name, value in sorted(rec.registry.counters.items()):
        lines.append(json.dumps(
            {"type": "counter", "name": name, "value": value}))
    for sec in rec.registry.sections:
        lines.append(json.dumps({"type": "section", **_jsonable(sec)}))
    for s in rec.spans:
        d = s.as_dict() if hasattr(s, "as_dict") else dict(s)
        d["attrs"] = _jsonable(d["attrs"])
        lines.append(json.dumps({"type": "span", **d}))
    for e in rec.events:
        lines.append(json.dumps({"type": "event", **_jsonable(e)}))
    return "\n".join(lines) + "\n"


def write_jsonl(rec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_jsonl(rec))


def write_chrome(rec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(rec), fh)


def load_jsonl(path: str) -> dict:
    """Parse a JSONL export back into ``{"meta", "counters", "sections",
    "spans", "events"}``."""
    data = {"meta": {}, "counters": {}, "sections": [], "spans": [],
            "events": []}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            t = obj.pop("type", None)
            if t == "meta":
                data["meta"] = obj
            elif t == "counter":
                data["counters"][obj["name"]] = obj["value"]
            elif t == "section":
                data["sections"].append(obj)
            elif t == "span":
                data["spans"].append(obj)
            elif t == "event":
                data["events"].append(obj)
    return data


# -- structural span tree ----------------------------------------------------


def span_tree(spans) -> tuple:
    """The capture's structural shape: nested ``(kind, name, rank,
    children)`` tuples, timestamps erased.

    Children are ordered by ``(rank, t0, kind, name)`` -- a
    deterministic total order for the deterministic virtual timeline,
    independent of the racy order in which rank threads appended their
    spans.  This is what the golden-trace test compares.
    """
    ds = [s.as_dict() if hasattr(s, "as_dict") else dict(s) for s in spans]
    children: dict[int | None, list[dict]] = {}
    for d in ds:
        children.setdefault(d["parent"], []).append(d)

    def order(items: list[dict]) -> list[dict]:
        return sorted(items, key=lambda d: (d["rank"], d["t0"], d["kind"],
                                            d["name"]))

    def build(d: dict) -> tuple:
        kids = tuple(build(c) for c in order(children.get(d["sid"], [])))
        return (d["kind"], d["name"], d["rank"], kids)

    return tuple(build(d) for d in order(children.get(None, [])))


def render_tree(tree, indent: int = 0) -> str:
    """Pretty-print a :func:`span_tree` (debugging and golden diffs)."""
    lines = []
    for kind, name, rank, kids in tree:
        lane = "driver" if rank < 0 else f"rank {rank}"
        lines.append("  " * indent + f"{kind}:{name} [{lane}]")
        if kids:
            lines.append(render_tree(kids, indent + 1))
    return "\n".join(lines)


# -- span-layer causality ----------------------------------------------------


def check_event_causality(events) -> list[str]:
    """Every recv event must join a send that already departed.

    Matches sends to recvs per (src, dst, tag) channel in FIFO order over
    event dicts: a recorder's absorbed ``events``, or a cluster trace as
    ``[e.as_dict() for e in log.events]``.  Returns violation
    descriptions; an empty list means the timeline is causal.
    """
    violations: list[str] = []
    sends: dict[tuple[int, int, int], list[dict]] = {}
    for e in sorted((e for e in events if e["kind"] == "send"),
                    key=lambda e: e["time"]):
        sends.setdefault((e["rank"], e["peer"], e["tag"]), []).append(e)
    matched: dict[tuple[int, int, int], int] = {}
    for r in sorted((e for e in events if e["kind"] == "recv"),
                    key=lambda e: e["time"]):
        key = (r["peer"], r["rank"], r["tag"])
        idx = matched.get(key, 0)
        chain = sends.get(key, [])
        if idx >= len(chain):
            violations.append(
                f"recv with no departed send: rank {r['rank']} <- "
                f"rank {r['peer']} tag={r['tag']} at {r['time']}"
            )
            continue
        s = chain[idx]
        matched[key] = idx + 1
        if r["time"] < s["time"]:
            violations.append(
                f"recv at {r['time']} precedes its send at {s['time']} "
                f"(rank {r['peer']} -> rank {r['rank']}, tag {r['tag']})"
            )
    return violations
