"""The paper's figures, guarded in tier 1.

The shape claims of Figs. 4 / 5 / 7 / 8 and the headline band, asserted
through ``repro.bench.run_point`` at the figures' own sizes (16 cores a
node, 1 / 2 / 4 / 8 nodes) -- the whole sweep is under two seconds.
``benchmarks/test_fig*.py`` hold the full claim-by-claim suite (CI's
``paper`` job); this module is what keeps a figure from going red
unnoticed, as Fig. 7 did from PR 10 to PR 20 when the fused tpacf lost
its inner ``localpar`` and nothing in ``tests/`` ran at 16 cores a node.

The last test pins the record: the tables EXPERIMENTS.md prints are the
files under ``benchmarks/_generated/``, and those are what the code
computes today.
"""
from pathlib import Path

import pytest

from repro.bench import (
    figure3_rows,
    render_figure3,
    render_series,
    scaling_series,
)

ROOT = Path(__file__).resolve().parents[2]
GENERATED = ROOT / "benchmarks" / "_generated"
APPS = ("mriq", "sgemm", "tpacf", "cutcp")
FIGURE_NODES = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def series():
    return {app: scaling_series(app, node_counts=FIGURE_NODES) for app in APPS}


def speedups(series, app, framework) -> dict:
    """``cores -> speedup`` (0.0 where the run failed)."""
    return {pt.cores: pt.speedup for pt in series[app][framework]}


def test_every_successful_run_is_numerically_correct(series):
    for app in APPS:
        for fw, pts in series[app].items():
            assert all(pt.correct for pt in pts if not pt.failed), (app, fw)


def test_fig4_mriq_near_linear_and_on_par_with_cmpi(series):
    t, c, e = (speedups(series, "mriq", fw) for fw in ("triolet", "cmpi", "eden"))
    assert all(t[n] >= 0.85 * c[n] for n in t)
    assert c[128] >= 0.85 * 128 and t[128] >= 0.80 * 128
    assert all(e[n] < t[n] for n in t) and e[128] < 0.75 * 128


def test_fig5_sgemm_flattens_and_eden_fails_from_two_nodes(series):
    t, c = (speedups(series, "sgemm", fw) for fw in ("triolet", "cmpi"))
    assert t[128] < 0.75 * 128 and c[128] < 0.75 * 128
    assert all(t[n] >= 0.75 * c[n] for n in (16, 32))
    efficiency = [t[n] / n for n in sorted(t)]
    assert efficiency == sorted(efficiency, reverse=True)
    assert efficiency[-1] < 0.6 * efficiency[0]
    eden = {pt.cores: pt for pt in series["sgemm"]["eden"]}
    assert not eden[16].failed and eden[16].speedup > 5
    assert all("buffer" in eden[n].failed for n in (32, 64, 128))


def test_fig7_tpacf_scales_at_both_levels(series):
    """Triolet needs ``par`` over sets AND ``localpar`` inside a set: with
    32 sets, 8 nodes x 16 cores have nothing to run on otherwise."""
    t, c, e = (speedups(series, "tpacf", fw) for fw in ("triolet", "cmpi", "eden"))
    assert t[128] >= 85 and t[64] >= 50
    for n in (64, 128):
        assert c[n] < t[n] < 1.5 * c[n]  # "slightly faster"
        assert e[n] < c[n]
    for sp in (t, c, e):
        assert sp[128] > 2.5 * sp[16]


def test_fig8_cutcp_saturates_and_triolet_sits_below_cmpi(series):
    t, c = (speedups(series, "cutcp", fw) for fw in ("triolet", "cmpi"))
    for sp in (t, c):
        assert sp[128] / 128 < 0.65 * sp[16] / 16
    assert all(t[n] < 0.85 * c[n] for n in (32, 64, 128))


def test_headline_band(series):
    """§1/§6: above Eden everywhere, 23-100 % of C+MPI+OpenMP, 9.6-99x
    over sequential C -- a wide band, cutcp its floor."""
    at128 = {app: speedups(series, app, "triolet")[128] for app in APPS}
    fraction = {
        app: at128[app] / speedups(series, app, "cmpi")[128] for app in APPS
    }
    for app in APPS:
        t, e = speedups(series, app, "triolet"), speedups(series, app, "eden")
        assert all(t[n] > e[n] for n in t), app  # a failed Eden run reads 0.0
    assert 0.2 < min(fraction.values()) < 0.65
    assert 0.9 <= max(fraction.values()) < 1.3
    assert all(9.6 < s <= 128 for s in at128.values())
    assert max(at128.values()) / min(at128.values()) > 2.0
    assert min(at128, key=at128.get) == min(fraction, key=fraction.get) == "cutcp"


def test_printed_tables_are_the_generated_ones_are_the_computed_ones(series):
    """EXPERIMENTS.md == benchmarks/_generated/*.txt == a fresh run.
    Regenerate with ``pytest benchmarks --ignore=benchmarks/e2e --regen``
    and paste (a table's title line and Fig. 3's unit note stay out of
    the document)."""
    fresh = {f"{app}_scaling.txt": render_series(app, series[app]) + "\n"
             for app in APPS}
    fresh["fig3_sequential.txt"] = render_figure3(figure3_rows()) + "\n"
    printed = (ROOT / "EXPERIMENTS.md").read_text()
    for name, table in fresh.items():
        assert (GENERATED / name).read_text() == table, (
            f"benchmarks/_generated/{name} is stale"
        )
        rows = table.split("\n", 1)[1]
        assert rows in printed, f"EXPERIMENTS.md does not print {name}"
