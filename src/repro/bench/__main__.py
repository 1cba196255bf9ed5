"""Command-line figure regeneration: ``python -m repro.bench``.

Options::

    python -m repro.bench                  # everything (Fig. 3,4,5,7,8)
    python -m repro.bench fig3             # sequential-time table
    python -m repro.bench mriq sgemm       # specific scalability figures
    python -m repro.bench mriq --nodes 1,2,4,8  # node counts (default 1..8)
    python -m repro.bench tpacf --plot     # with an ASCII speedup chart

The figures are virtual seconds from the calibrated cost model.  Wall
clock is measured by ``benchmarks/e2e/run.py`` (see ``BENCHMARK.json``).
"""
from __future__ import annotations

import argparse
import sys

from repro.bench import figure3_rows, render_series, scaling_series
from repro.bench.figures import plot_series

FIGURES = {"mriq": "Fig. 4", "sgemm": "Fig. 5", "tpacf": "Fig. 7", "cutcp": "Fig. 8"}


def print_fig3() -> None:
    print("Fig. 3 -- sequential execution time (virtual seconds)")
    print(f"{'app':<8}{'C':>10}{'Eden':>10}{'Triolet':>10}")
    for r in figure3_rows():
        print(f"{r['app']:<8}{r['c']:>10.1f}{r['eden']:>10.1f}{r['triolet']:>10.1f}")
    print()


def print_scaling(app: str, node_counts: tuple[int, ...], plot: bool = False) -> None:
    series = scaling_series(app, node_counts=node_counts)
    print(f"{FIGURES[app]} -- {render_series(app, series)}")
    if plot:
        print()
        print(plot_series(app, series))
    bad = [
        (fw, pt.nodes)
        for fw, pts in series.items()
        for pt in pts
        if not pt.correct and not pt.failed
    ]
    if bad:
        print(f"  !! numerically incorrect cells: {bad}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        choices=["fig3", "mriq", "sgemm", "tpacf", "cutcp", []],
        help="figures to regenerate (default: all)",
    )
    parser.add_argument(
        "--nodes",
        default="1,2,3,4,5,6,7,8",
        help="comma-separated node counts (16 cores each)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render ASCII speedup charts",
    )
    args = parser.parse_args(argv)
    try:
        node_counts = tuple(int(n) for n in args.nodes.split(","))
    except ValueError:
        parser.error(f"bad --nodes value: {args.nodes!r}")
    if any(n < 1 for n in node_counts):
        parser.error("node counts must be positive")

    targets = args.targets or ["fig3", "mriq", "sgemm", "tpacf", "cutcp"]
    for target in targets:
        if target == "fig3":
            print_fig3()
        else:
            print_scaling(target, node_counts, plot=args.plot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
