#!/usr/bin/env python3
"""Do two sets of runs of one commit and seed agree?

    python3 benchmarks/e2e/compare.py A.json B.json

A set is what ``run.py --workload all --out FILE`` writes.  For every
workload and end-to-end metric the relative difference of B against A is
held to the metric's bound in ``BENCHMARK.json``; virtual seconds, counts,
bytes and the failure tally must be equal.  A timing metric that misses
its bound on a set whose calibration spins were themselves unsteady
(``host.calib_spread`` > 1.5) is *unresolved*, not a disagreement: measure
again on a quieter host.

Exit status: 0 agree, 1 disagree, 2 only unresolved differences.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT_UNITS = ("count", "bytes", "virtual_s")
MAX_CALIB_SPREAD = 1.5


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[str], int]:
    """Report lines and the exit status for two loaded sets."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lines, disagree, unresolved = [], 0, 0
    if a["seed"] != b["seed"]:
        return [f"seeds differ: {a['seed']} vs {b['seed']}"], 1
    for name in (w["name"] for w in benchmark["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        noisy = max(ea["host"]["host.calib_spread"],
                    eb["host"]["host.calib_spread"]) > MAX_CALIB_SPREAD
        if ea["failed"] or eb["failed"]:
            disagree += 1
            lines.append(f"{name:16s} failed ops: {ea['failed']} vs "
                         f"{eb['failed']}  DISAGREE")
        for metric, bound in bounds.items():
            va = ea["metrics"][metric]["value"]
            vb = eb["metrics"][metric]["value"]
            unit = ea["metrics"][metric]["unit"]
            if unit in EXACT_UNITS:
                ok, shown = va == vb, "exact"
            else:
                rel = (vb - va) / va
                ok, shown = abs(rel) <= bound, f"{rel:+.3f} (bound {bound})"
            if ok:
                verdict = "ok"
            elif noisy and unit not in EXACT_UNITS:
                verdict, unresolved = "UNRESOLVED (noisy host)", unresolved + 1
            else:
                verdict, disagree = "DISAGREE", disagree + 1
            lines.append(f"{name:16s} {metric:16s} {va:12.6g} {vb:12.6g}  "
                         f"{shown}  {verdict}")
        pa = wa.get("per_layer", {}).get("metrics", {})
        pb = wb.get("per_layer", {}).get("metrics", {})
        for metric in pa.keys() & pb.keys():
            if (pa[metric]["unit"] in EXACT_UNITS
                    and metric != "host.rounds"
                    and pa[metric]["value"] != pb[metric]["value"]):
                disagree += 1
                lines.append(f"{name:16s} {metric}: {pa[metric]['value']} vs "
                             f"{pb[metric]['value']}  DISAGREE")
    lines.append(f"{disagree} disagreements, {unresolved} unresolved")
    return lines, 1 if disagree else 2 if unresolved else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, status = compare(a, b, benchmark)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
