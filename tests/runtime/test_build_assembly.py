"""Distributed build/collect assembly regressions found by the fuzzer.

Each test pins a bug the differential fuzzer (``python -m
repro.testing``) caught in the driver's result assembly: every case is
checked bit-identical against the sequential execution of the same
pipeline, on a machine shape that forces the buggy partition.
"""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import MachineSpec
from repro.runtime import triolet_runtime
from repro.serial import register_function
from repro.testing.invariants import checking

WIDE = MachineSpec(nodes=6, cores_per_node=2)


@register_function
def _pair_lt(p):
    return p[0] < p[1]


@register_function
def _drop_all(p):
    return False


@register_function
def _pair_sum(p):
    return p[0] + p[1]


def _both(make):
    """(sequential, distributed-on-WIDE) results of the same pipeline."""
    seq_val = make(tri.seq)
    with triolet_runtime(WIDE):
        dist_val = make(tri.par)
    return seq_val, dist_val


class TestGridBuildAssembly:
    def test_pair_valued_2d_build_keeps_element_axis(self):
        # np.block joins along the *trailing* axes, which scrambles
        # builds whose elements are themselves arrays (pairs).
        u, v = np.arange(6.0), np.arange(5.0)
        seq_val, dist_val = _both(
            lambda hint: tri.build(hint(tri.outerproduct(u, v)))
        )
        assert seq_val.shape == (6, 5, 2)
        assert dist_val.tobytes() == seq_val.tobytes()

    def test_empty_grid_blocks_regain_element_dims(self):
        # With more ranks than rows, some grid blocks hold zero elements
        # and materialize without the trailing element axis; assembly
        # must restore it before concatenating next to (h, w, 2) blocks.
        u, v = np.arange(3.0), np.arange(3.0)
        seq_val, dist_val = _both(
            lambda hint: tri.build(hint(tri.outerproduct(u, v)))
        )
        assert dist_val.shape == seq_val.shape == (3, 3, 2)
        assert dist_val.tobytes() == seq_val.tobytes()

    def test_zero_width_domain_build_keeps_row_extent(self):
        # outer[3x0]: every block is empty; the assembled result must
        # still be (3, 0), not collapse to a single empty row block.
        u, v = np.arange(3.0), np.empty(0)
        seq_val, dist_val = _both(
            lambda hint: tri.build(hint(tri.outerproduct(u, v)))
        )
        assert dist_val.shape == seq_val.shape
        assert seq_val.shape[:2] == (3, 0)

    def test_zero_height_domain_build(self):
        u, v = np.empty(0), np.arange(4.0)
        seq_val, dist_val = _both(
            lambda hint: tri.build(hint(tri.outerproduct(u, v)))
        )
        assert dist_val.shape == seq_val.shape


class TestNestedBuildPartials:
    def test_fully_filtered_chunks_concatenate(self):
        # A chunk whose pairs are all filtered out yields a 0-element
        # 1-D partial next to (k, 2) partials; assembly must not raise
        # and must drop nothing that survived the filter.
        u = np.arange(7.0)
        v = np.array([3.0])
        seq_val, dist_val = _both(
            lambda hint: tri.build(
                tri.filter(_pair_lt, hint(tri.outerproduct(u, v)))
            )
        )
        assert dist_val.tobytes() == np.asarray(seq_val).tobytes()

    def test_everything_filtered_matches_sequential(self):
        u, v = np.arange(5.0), np.arange(4.0)
        seq_val, dist_val = _both(
            lambda hint: tri.build(
                tri.filter(_drop_all, hint(tri.outerproduct(u, v)))
            )
        )
        assert np.asarray(dist_val).size == np.asarray(seq_val).size == 0


class TestOrderedCollect:
    def test_collect_of_2d_domain_preserves_row_major_order(self):
        # List concatenation is associative but not commutative: a 2-D
        # grid partition merges partials in the wrong order, so ordered
        # consumers must force 1-D partitioning.
        u, v = np.arange(8.0), np.arange(7.0)
        seq_val, dist_val = _both(
            lambda hint: tri.collect_list(
                tri.map(_pair_sum, hint(tri.outerproduct(u, v)))
            )
        )
        assert dist_val == seq_val

    def test_ordered_collect_sections_report_1d_partitions(self):
        u, v = np.arange(8.0), np.arange(7.0)
        with triolet_runtime(WIDE) as rt:
            tri.collect_list(tri.map(_pair_sum, tri.par(tri.outerproduct(u, v))))
        assert all(not s.partition.startswith("2d") for s in rt.sections)


class TestMoreGridRowsThanRows:
    """A 4x2 domain on 5 or 7 ranks is a 5x1 / 7x1 grid: some row
    intervals are empty and share their start with the next one, so
    grouping blocks into grid rows *by row start* concatenated a 0-row and
    a 1-row block side by side.  Fault-free it took a prime rank count;
    the residual partition of a lost block (few elements, every survivor)
    gets there routinely."""

    @pytest.mark.parametrize("nodes", [5, 7])
    def test_tall_grid_with_empty_row_blocks(self, nodes):
        u, v = np.arange(4.0), np.arange(2.0)
        seq_val = tri.build(tri.seq(tri.outerproduct(u, v)))
        with triolet_runtime(MachineSpec(nodes=nodes, cores_per_node=1)) as rt:
            dist_val = tri.build(tri.par(tri.outerproduct(u, v)))
        assert rt.last_section.partition == f"2d {nodes}x1"
        assert dist_val.tobytes() == seq_val.tobytes()
        assert dist_val.shape == seq_val.shape == (4, 2, 2)

    @pytest.mark.parametrize("rows, cols, nodes, grid", [
        (3, 3, 7, "1x7"), (4, 2, 7, "7x1"), (3, 3, 5, "1x5")])
    def test_the_checker_s_cross_product_law_holds(self, rows, cols, nodes,
                                                   grid):
        """Grids with more blocks than rows or columns, where empty
        intervals repeat, tile the domain by the checker's 2-D law."""
        u, v = np.arange(float(rows)), np.arange(float(cols))
        seq_val = tri.build(tri.seq(tri.outerproduct(u, v)))
        with checking() as ck, \
                triolet_runtime(MachineSpec(nodes=nodes, cores_per_node=1)) as rt:
            dist_val = tri.build(tri.par(tri.outerproduct(u, v)))
        assert rt.last_section.partition == f"2d {grid}"
        assert ck.sections == 1
        assert dist_val.tobytes() == seq_val.tobytes()
