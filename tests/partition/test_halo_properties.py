"""Hypothesis properties for halo (ghost-cell) interval arithmetic.

The stencil planner, the invariant checker, and the bench guard all lean
on ``repro.partition.halo`` agreeing with itself.  Everything here is
checked against a brute-force row-set oracle: a ghost row is a row
within ``radius`` of the flattened slice set but not inside it.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data.views import slice_view, zip_view
from repro.partition import block_bounds
from repro.partition.halo import (
    halo_bytes_bound,
    halo_intervals,
    section_halos,
    written_rows,
)

pytestmark = pytest.mark.views

extents = st.integers(0, 64)
radii = st.integers(0, 8)


def _rows(intervals):
    return {i for lo, hi in intervals for i in range(lo, hi)}


def _brute_ghosts(intervals, radius, extent):
    """Independent oracle: every row within ``radius`` of an occupied
    row, clamped to the array, minus the occupied rows themselves."""
    inside = _rows(intervals)
    near = {
        j
        for i in inside
        for j in range(max(0, i - radius), min(extent, i + radius + 1))
    }
    return near - inside


@st.composite
def _block_with_geometry(draw):
    extent = draw(extents)
    lo, hi = sorted(draw(st.tuples(st.integers(0, extent),
                                   st.integers(0, extent))))
    return lo, hi, draw(radii), extent


class TestHaloRowsOracle:
    """A block's ghost rows, ``halo_intervals``, against the row-set
    oracle."""

    @given(_block_with_geometry())
    def test_matches_brute_force_row_set(self, case):
        lo, hi, radius, extent = case
        out = halo_intervals(lo, hi, radius, extent)
        assert _rows(out) == _brute_ghosts([(lo, hi)], radius, extent)

    @given(_block_with_geometry())
    def test_output_is_canonical(self, case):
        """Sorted, non-empty, pairwise disjoint and non-adjacent, and
        clamped to ``[0, extent)``."""
        lo, hi, radius, extent = case
        out = halo_intervals(lo, hi, radius, extent)
        for glo, ghi in out:
            assert 0 <= glo < ghi <= extent
        for (_, ahi), (blo, _) in zip(out, out[1:]):
            assert blo > ahi

    @given(_block_with_geometry())
    def test_ghosts_disjoint_from_the_set(self, case):
        lo, hi, radius, extent = case
        assert not (_rows(halo_intervals(lo, hi, radius, extent))
                    & _rows([(lo, hi)]))


class TestHaloIntervals:
    @given(st.integers(0, 64), st.integers(0, 64), radii, extents)
    def test_empty_block_gets_no_halo(self, lo, hi, radius, extent):
        if hi > lo:
            hi = lo  # force the empty case
        assert halo_intervals(lo, hi, radius, extent) == []

    @given(st.integers(0, 64), st.integers(1, 64), extents)
    def test_radius_zero_gets_no_halo(self, lo, width, extent):
        assert halo_intervals(lo, lo + width, 0, extent) == []

    @given(st.integers(0, 16), st.integers(1, 4), st.integers(4, 16))
    def test_radius_beyond_block_width_just_clamps(self, lo, width, radius):
        """radius >= block width is not special: the ghosts clamp to the
        array like any other case and never exceed ``radius`` per side."""
        extent = 32
        hi = min(extent, lo + width)
        lo = min(lo, hi)
        out = halo_intervals(lo, hi, radius, extent)
        assert len(out) <= 2
        for glo, ghi in out:
            assert 0 <= glo < ghi <= extent
            assert ghi - glo <= radius
        assert sum(ghi - glo for glo, ghi in out) <= 2 * radius

    @given(st.integers(1, 32), radii)
    def test_edge_blocks_clamp_to_the_array(self, width, radius):
        extent = 64
        at_left = halo_intervals(0, width, radius, extent)
        assert all(glo >= width for glo, _ in at_left)  # no left ghost
        at_right = halo_intervals(extent - width, extent, radius, extent)
        assert all(ghi <= extent - width for _, ghi in at_right)

    @given(st.integers(-8, -1))
    def test_negative_radius_raises(self, radius):
        with pytest.raises(ValueError):
            halo_intervals(0, 4, radius, 8)


class TestComposedViews:
    @given(
        st.lists(st.tuples(st.integers(0, 48), st.integers(0, 48)),
                 min_size=1, max_size=4),
        radii,
    )
    def test_view_pipeline_ghosts_match_flattened_slices(self, cuts, radius):
        """Ghosts computed from a composed view pipeline's merged base
        intervals equal ghosts computed from the raw per-view slice
        list -- composition adds nothing the flattened set lacks."""
        extent = 48
        arr = np.arange(float(extent))
        raw = []
        views = []
        for lo, hi in cuts:
            lo, hi = min(lo, hi), max(lo, hi)
            raw.append((lo, hi))
            views.append(slice_view(arr, lo, hi))
        zv = zip_view(*views) if len(views) > 1 else views[0]
        per_base = zv.base_intervals()
        assert len(per_base) <= 1  # single shared base
        merged = next(iter(per_base.values()), [])
        # zip truncates every base to the shortest view's extent.
        n = len(zv)
        truncated = [(lo, min(hi, lo + n)) for lo, hi in raw]
        assert _rows(merged) == _rows(truncated)
        assert _brute_ghosts(merged, radius, extent) == _brute_ghosts(
            truncated, radius, extent
        )

    @given(st.integers(2, 48), st.data())
    def test_nested_slices_rebase_to_absolute_rows(self, n, data):
        arr = np.arange(float(n))
        lo1 = data.draw(st.integers(0, n - 1))
        hi1 = data.draw(st.integers(lo1, n))
        v = slice_view(arr, lo1, hi1)
        lo2 = data.draw(st.integers(0, hi1 - lo1))
        hi2 = data.draw(st.integers(lo2, hi1 - lo1))
        vv = slice_view(v, lo2, hi2)
        merged = next(iter(vv.base_intervals().values()), [])
        expect = [(lo1 + lo2, lo1 + hi2)] if hi2 > lo2 else []
        assert merged == expect


class TestSectionBounds:
    @given(st.integers(0, 4096), st.integers(1, 16), radii,
           st.sampled_from([1, 8, 80]))
    def test_partition_ghosts_fit_under_the_bytes_bound(
        self, n, nranks, radius, row_nbytes
    ):
        """The checker's hard ceiling dominates every real partition:
        summing actual ghost rows over a block partition never exceeds
        ``halo_bytes_bound``."""
        bounds = block_bounds(n, nranks)
        halos = section_halos(bounds, radius, n)
        total = sum(
            (hi - lo) * row_nbytes for per in halos for lo, hi in per
        )
        assert total <= halo_bytes_bound(radius, nranks, row_nbytes)
        for (blo, bhi), per in zip(bounds, halos):
            assert _rows(per) == _brute_ghosts([(blo, bhi)], radius, n)


@st.composite
def _tilings(draw):
    """A sorted tiling of ``[0, extent)`` by up to 9 blocks -- even ones
    (``block_bounds``) or arbitrary cuts, so empty blocks and blocks
    narrower than the radius turn up -- with a stencil radius."""
    extent = draw(st.integers(0, 64))
    nranks = draw(st.integers(1, 9))
    radius = draw(st.integers(1, 4))
    if draw(st.booleans()):
        bounds = block_bounds(extent, max(1, min(nranks, extent)))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, extent),
                                    min_size=nranks - 1, max_size=nranks - 1)))
        bounds = list(zip([0] + cuts, cuts + [extent]))
    return bounds, radius, extent


class TestSweepReads:
    """What a ``k``-iteration sweep's rank reads, against the row-set
    definition: the rows its written rows depend on through ``k``
    iterations, the fixed edge rows standing for themselves."""

    @staticmethod
    def _cone(block, radius, extent, k):
        """Every row the block's written rows depend on after *k*
        iterations: a written row reads ``radius`` rows a side from the
        iteration before; a fixed row has no inputs."""
        wlo, whi = written_rows(*block, radius, extent)
        need = set(range(wlo, whi))
        for _ in range(k):
            need |= {j for i in need if radius <= i < extent - radius
                     for j in range(i - radius, i + radius + 1)}
        return need

    @given(_tilings(), st.integers(1, 8))
    def test_ghosts_r_k_deep_are_what_a_sweep_reads(self, case, k):
        """A writing block plus its ghosts ``radius * k`` deep is exactly
        its sweep's read set: nothing less would do, nothing more is
        shipped."""
        bounds, radius, extent = case
        for block in bounds:
            wlo, whi = written_rows(*block, radius, extent)
            if whi <= wlo:
                continue
            ghosts = halo_intervals(*block, radius * k, extent)
            assert _rows([block] + ghosts) == self._cone(block, radius, extent, k)

    @given(_tilings(), st.integers(0, 8), st.sampled_from([1, 8, 80]))
    def test_a_sweeps_ghosts_fit_under_the_bound(self, case, k, row_nbytes):
        bounds, radius, extent = case
        shipped = sum(hi - lo for per in section_halos(bounds, radius * k, extent)
                      for lo, hi in per)
        assert shipped * row_nbytes <= halo_bytes_bound(
            radius * k, len(bounds), row_nbytes)

    def test_a_narrow_block_reads_past_its_neighbour(self):
        bounds = block_bounds(12, 6)  # 2-row blocks; radius 1, 3 iterations
        assert halo_intervals(*bounds[2], 3, 12) == [(1, 4), (6, 9)]
        assert self._cone(bounds[2], 1, 12, 3) == set(range(1, 9))
