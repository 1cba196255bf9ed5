"""Fusion-structure tests: the §3.2 story, observable.

The paper's claim: constructor dispatch + inlining reduces any pipeline of
known skeletons to a single loop nest with no temporaries.  Our analogue:
``analyze`` reports the fused structure, and the meter proves execution
makes one pass and materializes nothing.
"""
import numpy as np

import repro.triolet as tri
from repro.core import meter
from repro.core.fusion import analyze
from repro.core.iterators import IdxFlat, IdxNest, iterate
from repro.serial import register_function, serialize


@register_function
def pos(x):
    return x > 0


@register_function
def sq(x):
    return x * x


class TestSumOfFilterWalkthrough:
    """sum(filter(pos, xs)) -- the exact example of §3.2."""

    def setup_method(self):
        self.xs = np.array([1.0, -2.0, -4.0, 1.0, 3.0, 4.0])

    def test_input_is_idxflat(self):
        assert analyze(iterate(self.xs)).constructor == "IdxFlat"

    def test_filter_yields_idxnest_of_steppers(self):
        rep = analyze(tri.filter(pos, self.xs))
        assert rep.constructor == "IdxNest"
        assert rep.nest_shape == ("Idx", "Step")
        assert rep.partitionable  # outer loop can still be block-split

    def test_execution_is_single_pass_no_temporaries(self):
        pipeline = tri.filter(pos, self.xs)
        with meter.metered() as m:
            total = tri.sum(pipeline)
        assert total == 9.0
        assert m.materializations == 0
        assert m.passes == 0  # no materialized collection was traversed


class TestFusedStageCounting:
    def test_map_stages_accumulate_in_loop_body(self):
        base = analyze(iterate(np.arange(4.0)))
        once = analyze(tri.map(sq, np.arange(4.0)))
        twice = analyze(tri.map(sq, tri.map(sq, np.arange(4.0))))
        assert base.fused_stages < once.fused_stages < twice.fused_stages

    def test_zip_map_fuses_to_flat_indexer(self):
        """§2's dot product: zip + map + sum stay one flat loop."""
        xs, ys = np.arange(5.0), np.ones(5)
        prod = tri.map(lambda p: p[0] * p[1], tri.zip(xs, ys))
        rep = analyze(prod)
        assert rep.constructor == "IdxFlat"
        assert rep.nest_shape == ("Idx",)
        with meter.metered() as m:
            assert tri.sum(prod) == 10.0
        assert m.materializations == 0

    def test_concat_map_adds_exactly_one_nest_level(self):
        flat = iterate(np.arange(3))
        nested = tri.concat_map(lambda x: np.arange(float(x)), flat)
        assert analyze(nested).depth == 2
        doubly = tri.concat_map(lambda x: np.arange(2.0), nested)
        assert analyze(doubly).depth >= 2

    def test_filter_of_filter_stays_partitionable(self):
        out = tri.filter(pos, tri.filter(pos, np.array([1.0, -1.0, 2.0])))
        rep = analyze(out)
        assert rep.partitionable
        assert tri.collect_list(out) == [1.0, 2.0]


class TestSliceShipping:
    """§3.5: the slice of a fused pipeline ships only its data subset."""

    def test_mapped_pipeline_slice_ships_subset(self):
        xs = np.arange(100_000.0)
        pipeline = tri.map(sq, iterate(xs))
        assert isinstance(pipeline, IdxFlat)
        whole = len(serialize(pipeline))
        part = len(serialize(IdxFlat(pipeline.idx.slice(0, 1000))))
        assert part < whole / 10

    def test_filtered_pipeline_slice_ships_subset(self):
        xs = np.arange(100_000.0)
        pipeline = tri.filter(pos, iterate(xs))
        assert isinstance(pipeline, IdxNest)
        whole = len(serialize(pipeline))
        part = len(serialize(IdxNest(pipeline.idx.slice(0, 1000))))
        assert part < whole / 10

    def test_sliced_pipeline_computes_its_chunk(self):
        xs = np.arange(10.0) - 5.0
        pipeline = tri.filter(pos, iterate(xs))
        left = IdxNest(pipeline.idx.slice(0, 5))
        right = IdxNest(pipeline.idx.slice(5, 10))
        total = tri.sum(left) + tri.sum(right)
        assert total == tri.sum(pipeline) == 1.0 + 2.0 + 3.0 + 4.0

    def test_roundtripped_slice_still_computes(self):
        from repro.serial import deserialize

        xs = np.arange(20.0) - 10.0
        pipeline = tri.map(sq, tri.filter(pos, iterate(xs)))
        chunk = IdxNest(pipeline.idx.slice(10, 20))
        shipped = deserialize(serialize(chunk))
        assert tri.sum(shipped) == sum(x * x for x in range(1, 10))
