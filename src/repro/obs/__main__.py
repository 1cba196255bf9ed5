"""CLI: ``python -m repro.obs`` -- trace, summarize, diff.

Examples::

    python -m repro.obs trace --app sgemm --nodes 2 \\
        --chrome trace.json --jsonl run.jsonl
    python -m repro.obs summarize run.jsonl
    python -m repro.obs diff base.jsonl new.jsonl       # exit 1 on regression
"""
from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import (
    chrome_trace,
    load_jsonl,
    render_tree,
    span_tree,
    validate_chrome,
    write_chrome,
    write_jsonl,
)
from repro.obs.report import (
    DEFAULT_THRESHOLD,
    diff_runs,
    render_diff,
    render_summary,
    summarize,
)


def _cmd_trace(args) -> int:
    from repro.obs.runapp import capture_app

    rec, run = capture_app(args.app, args.nodes)
    payload = chrome_trace(rec)
    bad = validate_chrome(payload)
    if bad:
        print("chrome trace failed schema validation:", file=sys.stderr)
        for b in bad:
            print(f"  {b}", file=sys.stderr)
        return 1
    if args.chrome:
        write_chrome(rec, args.chrome)
        print(f"wrote {args.chrome} ({len(payload['traceEvents'])} events)")
    if args.jsonl:
        write_jsonl(rec, args.jsonl)
        print(f"wrote {args.jsonl}")
    if args.tree:
        print(render_tree(span_tree(rec.spans)))
    print(f"{args.app} on {args.nodes} node(s): elapsed {run.elapsed:.6f} "
          f"virtual s, {len(rec.spans)} spans, {len(rec.events)} comm events")
    return 0


def _cmd_summarize(args) -> int:
    summary = summarize(load_jsonl(args.run))
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_summary(summary))
    return 0


def _cmd_diff(args) -> int:
    diff = diff_runs(load_jsonl(args.base), load_jsonl(args.other),
                     threshold=args.threshold)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff))
    return 1 if diff["regressions"] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability: trace a run, summarize, diff.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("trace", help="run an app under capture and export")
    p.add_argument("--app", default="sgemm",
                   choices=("mriq", "sgemm", "tpacf", "cutcp"))
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--chrome", default="trace.json",
                   help="Chrome trace-event output path ('' to skip)")
    p.add_argument("--jsonl", default="",
                   help="flat JSONL output path ('' to skip)")
    p.add_argument("--tree", action="store_true",
                   help="print the structural span tree")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("summarize", help="summarize a JSONL export")
    p.add_argument("run")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("diff", help="diff two JSONL exports (exit 1 on "
                                    "perf regression)")
    p.add_argument("base")
    p.add_argument("other")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_diff)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
