"""The node model's ledger contract: one pass per core, a duration per task.

``NodeModel._run_tasks`` runs one ``spec.seq_fn`` pass per core over
that core's contiguous block of tasks and reads the tasks' tallies off
the pass's :class:`repro.core.meter.TaskLedger`.  The reference kept here
is what the runtime used to do: every task resliced and run as its own
metered pass.  Per task the two must tally the same, whatever the
pipeline's shape and whichever loop -- the scalar one or the engine's --
walks it.
"""
import functools
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.triolet as tri
from repro.apps import tpacf
from repro.apps.tpacf import triolet as tpacf_triolet
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster.machine import PAPER_MACHINE, MachineSpec
from repro.core import hints, meter
from repro.core.encodings.indexer import array_indexer, gather_idx
from repro.core.engine import register_bulk, use_vectorization
from repro.core.fusion import planner_stats
from repro.partition import block_bounds
from repro.runtime import CostContext, FREE_ALLOC, triolet_runtime
from repro.runtime.driver import NodeModel, TrioletRuntime, _concat_build
from repro.serial import closure, register_function
from repro.testing.kernels import e_iota, e_rowbins, k_square, p_even


# -- element kernels that tally inner work, scalar and bulk alike ------------


@register_function
def _work(x):
    """Data-dependent inner work: ``int(x) % 5`` visits beyond the loop's."""
    meter.tally_inner(int(x) % 5 + 1)
    return x * 2.0


def _work_bulk(xs):
    meter.tally_each(np.asarray(xs).astype(np.int64) % 5)
    return xs * 2.0


register_bulk(_work, _work_bulk)


@register_function
def _pair_work(p):
    """Uniform inner work on a zip / outer-product element."""
    meter.tally_inner(4)
    return p[0] + p[1]


def _pair_work_bulk(t):
    meter.tally_uniform(len(t[0]), 3)
    return t[0] + t[1]


register_bulk(_pair_work, _pair_work_bulk)


@register_function
def _triangular(x):
    """Element *i* costs ``i`` visits: heavily imbalanced tasks."""
    meter.tally_inner(int(x) + 1)
    return x


def _triangular_bulk(xs):
    meter.tally_each(np.asarray(xs).astype(np.int64))
    return xs


register_bulk(_triangular, _triangular_bulk)


@register_function
def _cell_work(yx):
    meter.tally_inner(3)
    return float(yx[0] * 7 + yx[1])


def _cell_work_bulk(yx):
    meter.tally_uniform(len(yx[0]), 2)
    return (yx[0] * 7 + yx[1]).astype(np.float64)


register_bulk(_cell_work, _cell_work_bulk)


# -- pipeline shapes ----------------------------------------------------------


def _seq_flat(n, hint):
    return tri.sum(tri.map(_work, hint(np.arange(float(n)))))


def _dim2_flat(n, hint):
    return tri.build(tri.map(_cell_work, hint(tri.arrayRange((n, 3)))))


def _concat_nest(n, hint):
    return tri.sum(tri.concat_map(e_iota, tri.map(_work, hint(np.arange(float(n))))))


def _filter_nest(n, hint):
    kept = tri.filter(p_even, tri.map(_work, hint(np.arange(float(n)))))
    return tri.sum(tri.map(k_square, kept))


def _staged_nests(n, hint):
    """Stage forms run over a nest's flattened values and tally per value
    (one per element kept, none to many per element expanded): the engine
    folds their tallies back to the outer elements."""
    xs = np.arange(float(n))
    kept = tri.map(_work, tri.filter(p_even, hint(xs)))
    grown = tri.map(_flat_work, tri.map(_work, tri.concat_map(e_iota, hint(xs))))
    return tri.sum(kept) + tri.sum(grown)


@register_function
def _flat_work(x):
    meter.tally_inner(3)
    return x + 1.0


def _flat_work_bulk(xs):
    meter.tally_uniform(len(xs), 2)
    return xs + 1.0


register_bulk(_flat_work, _flat_work_bulk)


def _zipped(n, hint):
    xs = np.arange(float(n))
    return tri.sum(tri.map(_pair_work, hint(tri.zip(xs, xs[::-1].copy()))))


def _outer(n, hint):
    pairs = tri.outerproduct(np.arange(float(n)), np.arange(3.0))
    return tri.build(tri.map(_pair_work, hint(pairs)))


def _gathered(n, hint):
    base = array_indexer(np.arange(float(2 * n + 1)))
    picked = tri.IdxFlat(gather_idx(base, np.arange(n) * 2))
    return tri.sum(tri.map(_work, hint(picked)))


def _histogram(n, hint):
    bins = tri.map(closure(_bin5), tri.map(_work, hint(np.arange(float(n)))))
    return tri.histogram(5, bins)


@register_function
def _bin5(x):
    return int(x) % 5


register_bulk(_bin5, lambda xs: np.asarray(xs).astype(np.int64) % 5)

@register_function
def _add_row(acc, row):
    """A reduce ``op`` that runs loops of its own on its element: a scalar
    one and an engine pass, data-dependent in length."""
    k = int(row[0]) % 5
    return acc + tri.count(row) + tri.sum(tri.map(k_square, row[:k]))


@register_function
def _plus(a, b):
    return a + b


def _consumed_rows(n, hint):
    """The batch is evaluated by the engine, its elements are folded by
    user code that tallies: each tally belongs to the element's task."""
    rows = np.arange(4.0 * n).reshape(n, 4)
    return tri.reduce(_add_row, 0.0, hint(rows), combine=_plus)


SHAPES = {
    "consumed_rows": _consumed_rows,
    "seq_flat": _seq_flat,
    "dim2_flat": _dim2_flat,
    "concat_nest": _concat_nest,
    "filter_nest": _filter_nest,
    "staged_nests": _staged_nests,
    "zip": _zipped,
    "outer": _outer,
    "gathered": _gathered,
    "histogram": _histogram,
}


# -- the spy and the reference ------------------------------------------------


@contextmanager
def node_passes():
    """Every ``_run_tasks`` call made inside: its arguments, the ledgers
    its passes tallied into and what it returned."""
    calls, made = [], []
    run_tasks = NodeModel._run_tasks

    class Recorded(meter.TaskLedger):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def spy(self, it, spec, cores):
        first = len(made)
        out = run_tasks(self, it, spec, cores)
        calls.append(SimpleNamespace(
            it=it, spec=spec, cores=cores, ledgers=made[first:], out=out,
        ))
        return out

    with mock.patch.object(NodeModel, "_run_tasks", spy), \
            mock.patch.object(meter, "TaskLedger", Recorded):
        yield calls


def ledger_rows(ledgers) -> list[tuple[int, int]]:
    """Per-task ``(visits, steps)``, the loop's and its elements' together."""
    rows = []
    for led in ledgers:
        for own, elem in zip(led.own, led.elem):
            extra = (0, 0) if elem is own else elem
            rows.append((own[0] + extra[0], own[1] + extra[1]))
    return rows


def reference(rt, call):
    """What the runtime did before: each task its own metered pass."""
    extent = call.it.domain.outer_extent
    ntasks = max(1, min(extent, call.cores * rt.task_grain))
    rows, partials = [], []
    for lo, hi in block_bounds(extent, ntasks):
        with meter.metered() as m:
            partials.append(call.spec.seq_fn(rt._reslice(call.it, lo, hi)))
        rows.append((m.visits, m.steps))
    if call.spec.kind == "reduce":
        return rows, functools.reduce(call.spec.combine, partials)
    return rows, _concat_build(partials)


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


class TestLedgerEqualsOnePassPerTask:
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        n=st.integers(1, 97),
        cores=st.sampled_from([1, 3, 4, 16]),
        grain=st.sampled_from([1, 4]),
        vectorize=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_per_task_tallies_and_value(self, shape, n, cores, grain, vectorize):
        machine = MachineSpec(nodes=1, cores_per_node=cores)
        with use_vectorization(vectorize), node_passes() as calls, \
                triolet_runtime(machine, task_grain=grain) as rt:
            value = SHAPES[shape](n, tri.localpar)
            refs = [reference(rt, call) for call in calls]
        totals = [0, 0]
        for call, (rows, _) in zip(calls, refs):
            partials, serial, nested, _gc = call.out
            assert ledger_rows(call.ledgers) == rows
            assert len(partials) == len(call.ledgers) == min(cores, len(rows))
            assert len(serial) == len(nested) == len(rows)
            totals = [t + sum(col) for t, col in zip(totals, zip(*rows))]
        assert tuple(totals) == (rt.meter_total.visits, rt.meter_total.steps)
        # integral data: any grouping of the partials gives the same bits
        assert _same(value, sum(ref_value for _, ref_value in refs))

    def test_what_a_batch_consumer_tallies_lands_in_its_elements_task(self):
        """One engine batch spans all 16 tasks; the reduce ``op`` runs a
        scalar loop and an engine pass on every row it folds."""
        runs = []
        for vectorize in (True, False):
            with use_vectorization(vectorize), node_passes() as calls, \
                    triolet_runtime(MachineSpec(nodes=1, cores_per_node=4)):
                runs.append(_consumed_rows(37, tri.localpar))
                rows = ledger_rows(calls[0].ledgers)
            runs.append(rows)
        assert runs[:2] == runs[2:] and len(rows) == 16
        k = np.arange(0, 4 * 37, 4) % 5  # row i: its visit, 4 counted, k squared
        assert [v for v, _ in rows] == [
            int((5 + k[lo:hi]).sum()) for lo, hi in block_bounds(37, 16)
        ]

    @pytest.mark.parametrize("vectorize", [True, False])
    @pytest.mark.parametrize("shape,n", [
        ("seq_flat", 0), ("concat_nest", 0), ("filter_nest", 0),
        ("seq_flat", 1), ("dim2_flat", 1), ("histogram", 0),
    ])
    def test_zero_extent_and_one_element_chunks(self, shape, n, vectorize):
        with use_vectorization(vectorize), node_passes() as calls, \
                triolet_runtime(MachineSpec(nodes=1, cores_per_node=4)) as rt:
            value = SHAPES[shape](n, tri.localpar)
            (call,) = calls
            rows, ref_value = reference(rt, call)
        assert ledger_rows(call.ledgers) == rows and len(rows) == 1
        assert _same(value, ref_value)

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_zero_width_rows(self, vectorize):
        with use_vectorization(vectorize), node_passes() as calls, \
                triolet_runtime(MachineSpec(nodes=1, cores_per_node=2)) as rt:
            cells = tri.localpar(tri.arrayRange((6, 0)))
            out = tri.build(tri.map(_cell_work, cells))
            (call,) = calls
            rows, _ = reference(rt, call)
        assert out.size == 0
        assert ledger_rows(call.ledgers) == rows == [(0, 0)] * 6

    def test_distributed_ranks_run_one_pass_per_core(self):
        xs = np.arange(64.0)
        with node_passes() as calls, \
                triolet_runtime(MachineSpec(nodes=2, cores_per_node=4)) as rt:
            tri.sum(tri.map(_work, tri.par(xs)))
        assert [len(c.out[0]) for c in calls] == [4, 4]  # passes per rank
        assert [len(c.out[1]) for c in calls] == [16, 16]  # tasks per rank
        assert rt.last_section.partition == "1d x2"

    def test_localpar_section_still_reads_its_task_count(self):
        with triolet_runtime(MachineSpec(nodes=1, cores_per_node=4)) as rt:
            tri.sum(tri.map(_work, tri.localpar(np.arange(100.0))))
        assert rt.last_section.partition == "1d x16"


class TestSchedulersAndTopologiesReadTheSameTasks:
    """The ablation levers see the ledger's durations like work stealing."""

    XS = np.arange(256.0)

    def _run(self, **kw):
        with triolet_runtime(MachineSpec(nodes=2, cores_per_node=4),
                             alloc=FREE_ALLOC, **kw) as rt:
            value = tri.sum(tri.map(_triangular, tri.par(self.XS)))
        return value, rt.last_section

    def test_static_scheduler_and_flat_topology(self):
        value, two_level = self._run()
        static_value, static = self._run(scheduler="static")
        flat_value, flat = self._run(topology="flat")
        assert value == static_value == flat_value
        assert static.makespan > two_level.makespan  # imbalance not recovered
        assert flat.nodes == 8 and flat.messages > two_level.messages


# -- a par outer / localpar inner nest (ROADMAP item 8's program shape) -------

SETS = np.arange(8 * 12 * 3, dtype=np.float64).reshape(8, 12, 3)
ROW_BINS = np.bincount(SETS.sum(axis=2).astype(np.int64).ravel() % 16,
                       minlength=16).astype(np.float64)


def _nest(inner):
    """The fuzzer's nested-list kernel: a set's rows are its element
    function's work (``repro.testing.runner.nest_drill``)."""
    bins = closure(e_rowbins, 16)
    return tri.histogram(16, tri.map(bins, tri.par(SETS, inner=inner)))


def _nest_makespan(cores, inner, vectorize=True):
    machine = MachineSpec(nodes=2, cores_per_node=cores)  # 4 sets a node
    costs = CostContext(unit_time=1e-3)
    with use_vectorization(vectorize), \
            triolet_runtime(machine, costs=costs, alloc=FREE_ALLOC) as rt:
        value = _nest(inner)
    return value, rt.last_section.makespan


class TestInnerLocalparIsStealable:
    @pytest.mark.parametrize("vectorize", [True, False])
    def test_makespan_falls_with_cores_per_node(self, vectorize):
        runs = [_nest_makespan(c, tri.localpar, vectorize) for c in (1, 4, 16)]
        values, spans = zip(*runs)
        assert all(_same(v, ROW_BINS) for v in values)
        assert spans[0] > spans[1] > spans[2]

    def test_without_the_inner_hint_a_set_is_one_indivisible_task(self):
        _, at4 = _nest_makespan(4, None)
        _, at16 = _nest_makespan(16, None)
        assert at4 == at16  # 4 sets a node: nothing to spread over 16 cores

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_at_one_core_the_inner_hint_changes_nothing(self, vectorize):
        value, hinted = _nest_makespan(1, tri.localpar, vectorize)
        plain_value, plain = _nest_makespan(1, None, vectorize)
        assert _same(value, plain_value)
        # serial + nested / 1 regroups the same visits: an ulp or two
        assert hinted == pytest.approx(plain, rel=1e-12)

    def test_vectorized_and_scalar_agree_bit_for_bit(self):
        for cores in (1, 4, 16):
            vec, vec_span = _nest_makespan(cores, tri.localpar, True)
            sca, sca_span = _nest_makespan(cores, tri.localpar, False)
            assert vec.tobytes() == sca.tobytes() and vec_span == sca_span

    def test_the_hint_survives_transforms_and_slicing(self):
        it = tri.map(_work, tri.par(tri.indexed(SETS), inner=tri.localpar))
        assert it.hint is tri.ParHint.PAR_INNER
        assert it.hint.outer is tri.ParHint.PAR
        chunk = TrioletRuntime._reslice(it, 2, 5)
        assert chunk.hint is tri.ParHint.SEQ_INNER
        assert chunk.hint.outer is tri.ParHint.SEQ
        assert tri.zip(tri.localpar(SETS), tri.par(SETS, inner=tri.localpar)
                       ).hint is tri.ParHint.PAR_INNER
        assert tri.seq(it).hint is tri.ParHint.SEQ
        for not_an_inner_hint in (tri.par, tri.seq):
            with pytest.raises(ValueError):
                tri.par(SETS, inner=not_an_inner_hint)

    def test_the_kernel_span_says_what_was_stealable(self):
        from repro.obs import capture

        with capture() as rec:
            _nest_makespan(4, tri.localpar)
        kernels = rec.spans_of_kind("kernel")
        assert [k.attrs["passes"] for k in kernels] == [4, 4]
        assert [k.attrs["tasks"] for k in kernels] == [4, 4]
        assert all(k.attrs["nested_s"] > 0 for k in kernels)
        with capture() as rec:
            _nest_makespan(4, None)
        assert all("nested_s" not in k.attrs for k in rec.spans_of_kind("kernel"))


class TestNestedRegionsLandInTheirTask:
    """The legacy tpacf form runs a real ``localpar`` consumer inside the
    element function: the seconds of that region belong to the task whose
    element ran it, also when one pass covers several tasks."""

    def test_random_sets_correlation(self):
        p = tpacf.make_problem(m=16, nr=6, seed=3)
        corr1 = closure(tpacf_triolet._corr1_self, p.nbins)
        machine = MachineSpec(nodes=1, cores_per_node=2)
        with use_vectorization(False), node_passes() as calls, \
                triolet_runtime(machine, task_grain=2) as rt:
            hists = tri.map(corr1, tri.localpar(p.rands))
            out = tri.sum(hists, zero=np.zeros(p.nbins))
        outer = calls[-1]  # the nested regions returned first
        partials, _serial, nested, _gc = outer.out
        assert len(partials) == 2 and len(nested) == 4
        # tasks hold 1, 2, 1, 2 sets (6 over 4), every set costs the same
        assert nested == [nested[0], 2 * nested[0], nested[0], 2 * nested[0]]
        assert nested[0] > 0
        expect = sum(tpacf.kernel.correlate_self(p.nbins, r) for r in p.rands)
        assert np.array_equal(out, expect)


# -- the four apps ------------------------------------------------------------

SMALL = {
    "mriq": dict(npix=256, nk=32, seed=7),
    "sgemm": dict(n=32, seed=7),
    "tpacf": dict(m=24, nr=8, seed=7),
    "cutcp": dict(na=120, grid=(12, 12, 12), cutoff=3.0, seed=7),
}


def _digest(value):
    if isinstance(value, dict):
        return [(k, _digest(value[k])) for k in sorted(value)]
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("inner", ["as written", "inner hint dropped"])
@pytest.mark.parametrize("cores", [1, 4, 16])
@pytest.mark.parametrize("app", sorted(SMALL))
def test_apps_vectorized_equals_scalar(app, cores, inner):
    """Value and virtual makespan, bit for bit, at every node width."""
    problem = APPS[app].make_problem(**SMALL[app])
    machine = PAPER_MACHINE.scaled(nodes=2, cores_per_node=cores)
    costs = costs_for(app, "triolet", problem)

    def outer_only(it, inner=None):
        return hints.par(it)

    runs = []
    for vectorize in (True, False):
        with use_vectorization(vectorize), mock.patch.object(
            tri, "par", tri.par if inner == "as written" else outer_only
        ):
            runs.append(APPS[app].runners["triolet"](problem, machine, costs))
    vec, sca = runs
    assert vec.ok and sca.ok
    assert vec.elapsed == sca.elapsed
    assert _digest(vec.value) == _digest(sca.value)
    assert vec.detail["meter"] == sca.detail["meter"]


def test_tpacf_says_par_and_localpar_and_compiles():
    """Fig. 6's two hints are in the program text, and the fused DR / RR
    pipelines still compile (no scalar fallback)."""
    problem = APPS["tpacf"].make_problem(**SMALL["tpacf"])
    seen = []
    with node_passes() as calls:
        run = APPS["tpacf"].runners["triolet"](
            problem, PAPER_MACHINE.scaled(nodes=2, cores_per_node=16),
            costs_for("tpacf", "triolet", problem),
        )
        seen = [c.it.hint for c in calls]
    assert run.ok and planner_stats().unsupported == 0
    # dd (rows, no inner loop), then dr and rr, two ranks each
    assert seen == [tri.ParHint.SEQ] * 2 + [tri.ParHint.SEQ_INNER] * 4
