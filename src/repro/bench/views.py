"""The views bench cell: halo traffic vs. full re-ship, and slice-cache
reuse across shifting decompositions.

Two experiments, one JSON payload (``BENCH_views.json``):

* **jacobi** -- the stencil skeleton at 1/2/4 ranks.  The honest
  comparison for a halo exchange is against re-shipping every block
  every iteration (what a planner without ghost placements would do):
  the relaxation is one section, so the cell reports that section's
  placement bytes (``full_reship_bytes``, the per-iteration cost of the
  naive plan) against the ghost bytes its ranks exchange per iteration
  from the second on (``steady_halo_bytes``: the section's
  ``exchange_bytes`` over ``iterations - 1``), plus the headline
  invariants -- zero interior bytes after the first placement, and
  bit-identity with the sequential oracle.
* **sweeps** -- multi-sweep cutcp over slab :func:`slice_view`\\ s (base /
  offset / offset-again).  The cell reports per-sweep plane deltas and
  the repeat sweep's slice-cache hit rate: re-running an already-seen
  decomposition should be served almost entirely from resident shards
  and cached slices.
"""
from __future__ import annotations

import json

import numpy as np

from repro.apps import cutcp, jacobi
from repro.apps.cutcp.sweeps import run_sweeps
from repro.cluster.machine import PAPER_MACHINE

__all__ = ["run_views_bench", "render", "write_json"]

RANK_COUNTS = (1, 2, 4)
CORES_PER_NODE = 2

JACOBI_N = 256
JACOBI_ITERATIONS = 6


def _jacobi_cell(ranks: int) -> dict:
    machine = PAPER_MACHINE.scaled(nodes=ranks, cores_per_node=CORES_PER_NODE)
    p = jacobi.make_problem(n=JACOBI_N, iterations=JACOBI_ITERATIONS, seed=7)
    ref = jacobi.solve_ref(p)
    run = jacobi.run_triolet(p, machine)
    (sweep,) = run.detail["sections"]  # one call, one section
    return {
        "ranks": ranks,
        "n": JACOBI_N,
        "iterations": JACOBI_ITERATIONS,
        "bit_identical": bool(run.value.tobytes() == ref.tobytes()),
        "full_reship_bytes": sweep["input_bytes"],
        "first_halo_bytes": sweep["halo_bytes"] - sweep["exchange_bytes"],
        # whatever the plane shipped that was not the first placement
        "steady_interior_bytes": (
            run.detail["data_plane"]["input_bytes"] - sweep["input_bytes"]
        ),
        "steady_halo_bytes": sweep["exchange_bytes"] // (JACOBI_ITERATIONS - 1),
        "halo_refreshes": sweep["halo_refreshes"],
        "halo_hits": sweep["halo_hits"],
    }


def _sweep_cell() -> dict:
    machine = PAPER_MACHINE.scaled(nodes=4, cores_per_node=CORES_PER_NODE)
    p = cutcp.make_problem(na=120, grid=(12, 12, 12), cutoff=3.0, seed=7)
    ref = cutcp.solve_ref(p)
    run = run_sweeps(p, machine)
    per_sweep = run.detail["per_sweep"]
    repeat = per_sweep[-1]
    served = (
        repeat["resident_hits"] + repeat["cache_hits"]
    )
    return {
        "correct": bool(np.allclose(run.value, ref)),
        "per_sweep": per_sweep,
        "repeat_hit_rate": served / repeat["requests"]
        if repeat["requests"]
        else 1.0,
        "repeat_input_bytes": repeat["input_bytes"],
    }


def run_views_bench(rank_counts: tuple[int, ...] = RANK_COUNTS) -> dict:
    """The full views dataset (the ``BENCH_views.json`` payload)."""
    return {
        "benchmark": "distributed views and stencil halo exchange",
        "rank_counts": list(rank_counts),
        "jacobi": [_jacobi_cell(r) for r in rank_counts],
        "sweeps": _sweep_cell(),
    }


def write_json(payload: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def render(payload: dict) -> str:
    lines = [
        "Stencil halo exchange (jacobi, per-iteration bytes)",
        f"{'ranks':>6}{'ident':>7}{'reship B':>10}{'halo B':>8}"
        f"{'interior B':>12}{'halo %':>8}",
    ]
    for c in payload["jacobi"]:
        frac = (
            c["steady_halo_bytes"] / c["full_reship_bytes"]
            if c["full_reship_bytes"]
            else 0.0
        )
        lines.append(
            f"{c['ranks']:>6}{'bit' if c['bit_identical'] else 'NO':>7}"
            f"{c['full_reship_bytes']:>10,}{c['steady_halo_bytes']:>8,}"
            f"{c['steady_interior_bytes']:>12,}{frac:>8.1%}"
        )
    s = payload["sweeps"]
    lines.append("")
    lines.append("Slab-view sweeps (cutcp, shifting decomposition)")
    lines.append(
        f"{'sweep':<14}{'req':>5}{'resident':>9}{'placed':>8}"
        f"{'c.hit':>7}{'c.miss':>8}{'input B':>10}"
    )
    for sw in s["per_sweep"]:
        lines.append(
            f"{sw['sweep']:<14}{sw['requests']:>5}{sw['resident_hits']:>9}"
            f"{sw['placements']:>8}{sw['cache_hits']:>7}"
            f"{sw['cache_misses']:>8}{sw['input_bytes']:>10,}"
        )
    lines.append(
        f"repeat sweep hit rate: {s['repeat_hit_rate']:.0%} "
        f"({s['repeat_input_bytes']:,} bytes shipped), "
        f"correct={s['correct']}"
    )
    return "\n".join(lines)
