"""Shared fixtures for the figure-regeneration benchmarks.

Scaling series are computed once per session and cached; each benchmark
asserts the paper's qualitative claims against the cached series and
times one representative cell with pytest-benchmark.  Rendered tables go
to a temporary directory; ``--regen`` rewrites the tracked copies under
``benchmarks/_generated/`` instead (EXPERIMENTS.md prints them, and
``tests/bench/test_paper_figures.py`` holds the three equal).
"""
from __future__ import annotations

import pathlib

import pytest

from repro.bench import render_series, scaling_series

GENERATED = pathlib.Path(__file__).parent / "_generated"

#: the node counts every figure uses (16 cores per node -> 16..128 cores)
FIGURE_NODES = (1, 2, 4, 8)


def pytest_addoption(parser):
    parser.addoption(
        "--regen", action="store_true",
        help="rewrite the tracked tables under benchmarks/_generated/",
    )


@pytest.fixture(scope="session")
def generated(request, tmp_path_factory) -> pathlib.Path:
    """Where this run's rendered tables go."""
    if request.config.getoption("--regen"):
        return GENERATED
    return tmp_path_factory.mktemp("generated")


@pytest.fixture(scope="session")
def series_cache(generated):
    cache: dict[str, dict] = {}

    def get(app: str):
        if app not in cache:
            cache[app] = scaling_series(app, node_counts=FIGURE_NODES)
            out = generated / f"{app}_scaling.txt"
            out.write_text(render_series(app, cache[app]) + "\n")
        return cache[app]

    return get


def at_cores(series: dict, framework: str, cores: int):
    for pt in series[framework]:
        if pt.cores == cores:
            return pt
    raise KeyError(f"no point at {cores} cores for {framework}")
