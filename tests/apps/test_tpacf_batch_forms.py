"""tpacf's set-granular batch forms against their scalar definitions.

``cross_set_bins_batch`` / ``self_set_bins_batch`` score a whole
``(k, n, 3)`` stack of sets in a fixed number of NumPy calls; the scalar
``cross_set_bins`` / ``self_set_bins`` stay here as the reference, one
call per set.  Values, segment lengths, dtype and the full ``CostMeter``
must agree bit for bit on every shape, including the empty ones, a
strided view, a stack split into several blocks and sets that do not
stack at all.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tpacf import kernel
from repro.core.meter import metered


def _unit(rng, *shape):
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _per_set(set_bins, sets):
    """The reference: one scalar-form call per set, under a fresh meter."""
    with metered() as meter:
        segs = [set_bins(rand) for rand in sets]
    vals = np.concatenate(segs) if segs else np.empty(0, dtype=np.int64)
    return vals, [len(s) for s in segs], meter


def _assert_same(batch_call, set_bins, sets):
    with metered() as meter:
        vals, lengths = batch_call(sets)
    ref_vals, ref_lengths, ref_meter = _per_set(set_bins, sets)
    assert vals.dtype == np.int64 and lengths.dtype == np.int64
    assert vals.ndim == 1 and vals.tobytes() == ref_vals.tobytes()
    assert lengths.tolist() == ref_lengths
    assert meter == ref_meter


def check_cross(nbins, other, sets):
    _assert_same(
        lambda s: kernel.cross_set_bins_batch(nbins, other, s),
        lambda rand: kernel.cross_set_bins(nbins, other, rand),
        sets,
    )


def check_self(nbins, sets):
    _assert_same(
        lambda s: kernel.self_set_bins_batch(nbins, s),
        lambda rand: kernel.self_set_bins(nbins, rand),
        sets,
    )


@pytest.mark.parametrize("nbins", [1, 128, 2048])
@pytest.mark.parametrize("n", [0, 1, 2, 64])
@pytest.mark.parametrize("k", [0, 1, 4, 17])
class TestStackEqualsPerSetCalls:
    @pytest.mark.parametrize("m", [0, 1, 33])
    def test_cross(self, k, n, m, nbins):
        rng = np.random.default_rng(1000 * k + 10 * n + m)
        check_cross(nbins, _unit(rng, m), _unit(rng, k, n))

    def test_self(self, k, n, nbins):
        rng = np.random.default_rng(1000 * k + 10 * n)
        check_self(nbins, _unit(rng, k, n))


@given(
    k=st.integers(0, 6),
    n=st.integers(0, 12),
    m=st.integers(0, 9),
    nbins=st.sampled_from([1, 7, 128, 2048]),
    budget=st.sampled_from([1, 50, 1 << 15]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_any_stack_any_block_budget(k, n, m, nbins, budget, seed):
    rng = np.random.default_rng(seed)
    sets = _unit(rng, k, n)
    # rows of the stack itself in *other*: cosines at (and an ulp past)
    # one, so the clip is exercised on both paths
    other = np.concatenate([_unit(rng, m), sets.reshape(-1, 3)[:2]])
    with mock.patch.object(kernel, "_BULK_BUDGET", budget):
        check_cross(nbins, other, sets)
        check_self(nbins, sets)


def test_non_contiguous_stack_view():
    rng = np.random.default_rng(3)
    view = _unit(rng, 8, 16)[::2]
    assert not view.flags.c_contiguous
    check_cross(128, _unit(rng, 5), view)
    check_self(128, view)


def test_stack_larger_than_the_block_budget(monkeypatch):
    rng = np.random.default_rng(4)
    sets, other = _unit(rng, 7, 8), _unit(rng, 8)
    monkeypatch.setattr(kernel, "_BULK_BUDGET", 3 * 8 * 8)  # 3 + 3 + 1 sets
    check_cross(128, other, sets)
    check_self(128, sets)
    with mock.patch.object(np, "arccos", wraps=np.arccos) as arccos:
        kernel.cross_set_bins_batch(128, other, sets)
        kernel.self_set_bins_batch(128, sets)
    # the blocks really were 3, 3 and 1 sets: 64 pairs a set, then 28
    assert [c.args[0].size for c in arccos.call_args_list] == [
        3 * 64, 3 * 64, 64, 3 * 28, 3 * 28, 28,
    ]


def test_a_budget_smaller_than_one_set(monkeypatch):
    """The cross form then goes a row at a time (it blocks by rows, in
    ``cross_pairs_bins_bulk``), the self form a set at a time."""
    rng = np.random.default_rng(5)
    sets, other = _unit(rng, 3, 6), _unit(rng, 4)
    monkeypatch.setattr(kernel, "_BULK_BUDGET", 1)
    check_cross(128, other, sets)
    check_self(128, sets)
    with mock.patch.object(np, "arccos", wraps=np.arccos) as arccos:
        kernel.cross_set_bins_batch(128, other, sets)
        kernel.self_set_bins_batch(128, sets)
    assert [c.args[0].size for c in arccos.call_args_list] == [4] * 18 + [15] * 3


def test_ragged_sets_take_the_iterating_fallback():
    rng = np.random.default_rng(6)
    ragged = [_unit(rng, n) for n in (5, 0, 1, 9, 2)]
    check_cross(128, _unit(rng, 4), ragged)
    check_self(128, ragged)
    _vals, lengths = kernel.self_set_bins_batch(128, ragged)
    assert lengths.tolist() == [10, 0, 0, 36, 1]
    check_cross(128, _unit(rng, 4), [])
    check_self(128, [])


def test_ragged_sets_go_through_the_engine_under_a_task_ledger():
    """The fallback runs inside a bulk form the engine evaluates, where a
    scalar tally is an error: it tallies per set, so a node's per-task
    durations (and so its makespan) equal the scalar loop's."""
    from repro.apps.tpacf import triolet as program
    from repro.cluster.machine import MachineSpec
    from repro.core.engine import use_vectorization
    from repro.core.fusion import planner_stats
    from repro.runtime import CostContext, triolet_runtime

    rng = np.random.default_rng(6)
    ragged = np.empty(5, dtype=object)
    ragged[:] = [_unit(rng, n) for n in (5, 0, 1, 9, 2)]
    obs = _unit(rng, 4)
    runs = []
    for vectorize in (True, False):
        with use_vectorization(vectorize), triolet_runtime(
            MachineSpec(nodes=1, cores_per_node=2), costs=CostContext(unit_time=1e-3)
        ) as rt:
            rr = program.self_sets_correlation(16, ragged)
            dr = program.cross_sets_correlation(16, obs, ragged)
        runs.append((rr.tobytes(), dr.tobytes(), rt.elapsed, rt.meter_total))
    assert planner_stats().unsupported == 0  # the engine did run them
    assert runs[0] == runs[1]
    assert rr.sum() == sum(n * (n - 1) // 2 for n in (5, 0, 1, 9, 2))
