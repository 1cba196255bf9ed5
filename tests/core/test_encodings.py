"""Unit tests for the four virtual-data-structure encodings."""
import numpy as np
import pytest

from repro.core import meter
from repro.core.domains import Seq
from repro.core.encodings import (
    array_indexer,
    collector_from_indexer,
    collector_from_list,
    concat_map_fold,
    concat_map_step,
    empty_stepper,
    filter_step,
    fold_from_indexer,
    fold_from_list,
    fold_step,
    histogram_into,
    idx_to_step,
    map_coll,
    map_fold,
    map_idx,
    map_step,
    outer_product_idx,
    pack_into,
    range_indexer,
    stepper_from_list,
    unit_stepper,
    whole_list_indexer,
    zip_idx,
    zip_step,
)
from repro.serial import deserialize, register_function, serialize


@register_function
def _double(x):
    return x * 2


@register_function
def _is_positive(x):
    return x > 0


class TestIndexer:
    def test_array_lookup(self):
        idx = array_indexer(np.array([10.0, 20.0, 30.0]))
        assert idx.lookup(1) == 20.0
        assert idx.size == 3

    def test_range_indexer(self):
        idx = range_indexer(4, start=5, step=3)
        assert [idx.lookup(i) for i in range(4)] == [5, 8, 11, 14]

    def test_map_composes_extractors(self):
        idx = map_idx(_double, array_indexer(np.array([1.0, 2.0])))
        assert idx.lookup(0) == 2.0
        assert idx.lookup(1) == 4.0

    def test_map_bulk_path(self):
        idx = map_idx(_double, array_indexer(np.arange(5.0)), f_bulk=_double)
        out = idx.eval_all()
        np.testing.assert_array_equal(out, 2 * np.arange(5.0))

    def test_zip_pairs_elements(self):
        a = array_indexer(np.array([1, 2, 3]))
        b = range_indexer(3, start=10)
        z = zip_idx(a, b)
        assert z.lookup(2) == (3, 12)

    def test_zip_takes_domain_intersection(self):
        z = zip_idx(array_indexer(np.arange(5)), array_indexer(np.arange(3)))
        assert z.domain == Seq(3)

    def test_slice_rebases_indices(self):
        idx = array_indexer(np.array([0.0, 10.0, 20.0, 30.0]))
        s = idx.slice(1, 3)
        assert s.size == 2
        assert s.lookup(0) == 10.0 and s.lookup(1) == 20.0

    def test_slice_ships_only_the_subset(self):
        arr = np.arange(10_000.0)
        idx = array_indexer(arr)
        whole = len(serialize(idx))
        part = len(serialize(idx.slice(0, 100)))
        assert part < whole / 50

    def test_sliced_zip_slices_all_members(self):
        z = zip_idx(
            array_indexer(np.arange(10_000.0)), array_indexer(np.ones(10_000))
        )
        s = z.slice(10, 12)
        assert s.lookup(0) == (10.0, 1.0)
        assert len(serialize(s)) < len(serialize(z)) / 10

    def test_whole_list_indexer_rebases_but_keeps_data(self):
        idx = whole_list_indexer([5, 6, 7, 8])
        s = idx.slice(2, 4)
        assert s.lookup(0) == 7
        # Eden-style: slicing does NOT shrink the payload.
        assert len(serialize(s)) >= len(serialize(idx)) - 8

    def test_indexer_roundtrips_through_serializer(self):
        idx = map_idx(_double, array_indexer(np.arange(4.0)))
        idx2 = deserialize(serialize(idx))
        assert idx2.lookup(3) == 6.0

    def test_outer_product(self):
        op = outer_product_idx(
            array_indexer(np.array([1, 2])), array_indexer(np.array([10, 20, 30]))
        )
        assert op.domain.h == 2 and op.domain.w == 3
        assert op.lookup((1, 2)) == (2, 30)

    def test_outer_product_block_slice_ships_only_needed_rows(self):
        A = np.arange(100.0 * 8).reshape(100, 8)
        B = np.arange(100.0 * 8).reshape(100, 8) + 1
        op = outer_product_idx(array_indexer(A), array_indexer(B))
        block = op.slice_block((0, 10), (0, 10))
        full = len(serialize(op))
        part = len(serialize(block))
        assert part < full / 4
        u, v = block.lookup((3, 7))
        np.testing.assert_array_equal(u, A[3])
        np.testing.assert_array_equal(v, B[7])

    def test_slice_bounds_checked(self):
        idx = array_indexer(np.arange(3))
        with pytest.raises(IndexError):
            idx.slice(0, 4)


class TestStepper:
    def test_list_stepper(self):
        assert stepper_from_list([1, 2, 3]).to_list() == [1, 2, 3]

    def test_unit_and_empty(self):
        assert unit_stepper(42).to_list() == [42]
        assert empty_stepper().to_list() == []

    def test_map(self):
        st = map_step(_double, stepper_from_list([1, 2]))
        assert st.to_list() == [2, 4]

    def test_filter_produces_skips(self):
        st = filter_step(_is_positive, stepper_from_list([1, -2, 3, -4, 5]))
        assert st.to_list() == [1, 3, 5]

    def test_filter_all_out(self):
        st = filter_step(_is_positive, stepper_from_list([-1, -2]))
        assert st.to_list() == []

    def test_concat_map_flattens(self):
        def expand(x):
            return stepper_from_list([x] * x)

        st = concat_map_step(expand, stepper_from_list([1, 2, 3]))
        assert st.to_list() == [1, 2, 2, 3, 3, 3]

    def test_concat_map_with_empty_inners(self):
        def expand(x):
            return stepper_from_list([x] if x > 0 else [])

        st = concat_map_step(expand, stepper_from_list([-1, 2, -3, 4]))
        assert st.to_list() == [2, 4]

    def test_zip_locksteps(self):
        z = zip_step(stepper_from_list([1, 2, 3]), stepper_from_list("abc"))
        assert z.to_list() == [(1, "a"), (2, "b"), (3, "c")]

    def test_zip_with_filtered_stream(self):
        s1 = filter_step(_is_positive, stepper_from_list([1, -9, 2, -9, 3]))
        s2 = stepper_from_list([10, 20, 30])
        assert zip_step(s1, s2).to_list() == [(1, 10), (2, 20), (3, 30)]

    def test_zip_stops_at_shorter(self):
        z = zip_step(stepper_from_list([1, 2]), stepper_from_list([5, 6, 7]))
        assert z.to_list() == [(1, 5), (2, 6)]

    def test_from_indexer(self):
        st = idx_to_step(array_indexer(np.array([7.0, 8.0])))
        assert st.to_list() == [7.0, 8.0]

    def test_fold_step(self):
        st = stepper_from_list([1, 2, 3, 4])
        assert fold_step(lambda a, x: a + x, 0, st) == 10

    def test_steps_are_metered(self):
        st = filter_step(_is_positive, stepper_from_list([1, -1, 2]))
        with meter.metered() as m:
            st.to_list()
        assert m.steps >= 4  # 3 elements + Done (skips add more)
        assert m.visits == 2


class TestFold:
    def test_from_list(self):
        fl = fold_from_list([1, 2, 3])
        assert fl.fold(lambda a, x: a + x, 100) == 106

    def test_from_indexer(self):
        fl = fold_from_indexer(array_indexer(np.arange(5.0)))
        assert fl.fold(lambda a, x: a + x, 0.0) == 10.0

    def test_map_fold(self):
        fl = map_fold(_double, fold_from_list([1, 2, 3]))
        assert fl.to_list() == [2, 4, 6]

    def test_concat_map_nests_loops(self):
        def inner(x):
            return fold_from_list(list(range(x)))

        fl = concat_map_fold(inner, fold_from_list([2, 3]))
        assert fl.to_list() == [0, 1, 0, 1, 2]

    def test_step_to_fold(self):
        st = filter_step(_is_positive, stepper_from_list([-1, 5, -2, 7]))
        assert fold_step(lambda a, x: a + [x], [], st) == [5, 7]

    def test_order_is_sequential(self):
        seen = []
        fold_from_list([3, 1, 2]).fold(lambda a, x: seen.append(x), None)
        assert seen == [3, 1, 2]


class TestCollector:
    def test_collect_list(self):
        out = []
        collector_from_list([1, 2, 3]).collect(out.append)
        assert out == [1, 2, 3]

    def test_map_coll(self):
        out = []
        map_coll(_double, collector_from_list([1, 2])).collect(out.append)
        assert out == [2, 4]

    def test_histogram_into(self):
        coll = collector_from_list([0, 1, 1, 2, 1])
        hist = histogram_into(coll, np.zeros(3))
        np.testing.assert_array_equal(hist, [1, 3, 1])

    def test_weighted_histogram(self):
        coll = collector_from_list([(0, 0.5), (2, 1.5), (0, 1.0)])
        hist = histogram_into(coll, np.zeros(3))
        np.testing.assert_allclose(hist, [1.5, 0.0, 1.5])

    def test_pack_into(self):
        out = pack_into(collector_from_list([3, 4]), [])
        assert out == [3, 4]

    def test_idx_to_coll(self):
        out = []
        collector_from_indexer(range_indexer(3)).collect(out.append)
        assert out == [0, 1, 2]


class TestMaterialization:
    def test_fused_pipeline_materializes_nothing(self):
        idx = map_idx(_double, array_indexer(np.arange(100.0)))
        with meter.metered() as m:
            fold_step(lambda a, x: a + x, 0.0, idx_to_step(idx))
        assert m.materializations == 0
