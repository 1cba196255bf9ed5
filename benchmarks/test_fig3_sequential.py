"""Figure 3: sequential execution time of the four benchmarks.

Paper claims encoded here:

* every sequential C time sits in the 20-200 s dataset-selection window
  ("We select data sets with a sequential C running time between 20 and
  200 seconds");
* C <= Triolet <= Eden for every app (the bar ordering in Fig. 3);
* mri-q's Eden bar is ~50% above C ("about 50% longer run time on a
  single thread").
"""
import json

import pytest

from repro.bench import figure3_rows, render_figure3


@pytest.fixture(scope="module")
def rows(generated):
    data = figure3_rows()
    (generated / "fig3_sequential.txt").write_text(render_figure3(data) + "\n")
    return {r["app"]: r for r in data}


def test_fig3_times_in_dataset_window(benchmark, rows):
    def check():
        return [r["c"] for r in rows.values()]

    c_times = benchmark(check)
    assert all(20.0 <= t <= 200.0 for t in c_times)


def test_fig3_framework_ordering(benchmark, rows):
    def orderings():
        return {
            app: (r["c"] <= r["triolet"] <= r["eden"]) for app, r in rows.items()
        }

    assert all(benchmark(orderings).values())


def test_fig3_mriq_eden_50_percent_longer(benchmark, rows):
    ratio = benchmark(lambda: rows["mriq"]["eden"] / rows["mriq"]["c"])
    assert 1.3 <= ratio <= 1.7  # paper: "about 50% longer"


def test_fig3_triolet_close_to_c(benchmark, rows):
    """§6: 'On code that is not communication-bound, performance rivals
    that of C' -- sequentially Triolet stays within ~25% of C except
    cutcp's nested-iterator overhead."""

    def ratios():
        return {app: r["triolet"] / r["c"] for app, r in rows.items()}

    rs = benchmark(ratios)
    for app, ratio in rs.items():
        assert ratio <= (1.35 if app != "cutcp" else 1.6), (app, ratio)
