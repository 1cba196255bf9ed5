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
    exchange_rows,
    halo_bytes_bound,
    halo_exchange,
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


class TestExchangeSchedule:
    """Who sends which rows to whom between two iterations of a sweep,
    against the row-set definition: a rank receives the rows it reads but
    does not write, from whoever writes them."""

    @staticmethod
    def _windows(bounds, radius, extent):
        writes, reads = [], []
        for lo, hi in bounds:
            wlo, whi = written_rows(lo, hi, radius, extent)
            w = set(range(wlo, whi))
            writes.append(w)
            reads.append(set(range(wlo - radius, whi + radius)) if w else set())
        return writes, reads

    @given(_tilings())
    def test_receives_are_read_minus_written_rows_somebody_writes(self, case):
        bounds, radius, extent = case
        writes, reads = self._windows(bounds, radius, extent)
        written_by_anyone = set().union(*writes)
        for rank in range(len(bounds)):
            _sends, recvs = halo_exchange(bounds, rank, radius, extent)
            want = (reads[rank] - writes[rank]) & written_by_anyone
            assert _rows([(lo, hi) for _src, lo, hi in recvs]) == want
            assert sum(hi - lo for _src, lo, hi in recvs) == len(want)  # disjoint
            assert all(lo < hi for _src, lo, hi in recvs)
            assert recvs == sorted(recvs, key=lambda m: m[1])
            assert [src for src, _, _ in recvs] == sorted(
                {src for src, _, _ in recvs})  # one message per peer, in order
            for src, lo, hi in recvs:
                assert src != rank and set(range(lo, hi)) <= writes[src]
            assert reads[rank] <= set(range(extent))  # the window fits the array

    @given(_tilings())
    def test_sends_mirror_receives(self, case):
        bounds, radius, extent = case
        plans = [halo_exchange(bounds, r, radius, extent)
                 for r in range(len(bounds))]
        sent = sorted((s, d, lo, hi)
                      for s, (sends, _) in enumerate(plans)
                      for d, lo, hi in sends)
        received = sorted((s, d, lo, hi)
                          for d, (_, recvs) in enumerate(plans)
                          for s, lo, hi in recvs)
        assert sent == received

    @given(_tilings())
    def test_rows_nobody_writes_never_travel(self, case):
        bounds, radius, extent = case
        moved = set()
        for rank in range(len(bounds)):
            sends, recvs = halo_exchange(bounds, rank, radius, extent)
            moved |= _rows([(lo, hi) for _p, lo, hi in sends + recvs])
        fixed = set(range(min(radius, extent))) | set(
            range(max(0, extent - radius), extent))
        assert not moved & fixed

    @given(_tilings(), st.integers(0, 6), st.sampled_from([1, 8, 80]))
    def test_a_superstep_fits_under_the_bytes_bound(self, case, k, row_nbytes):
        bounds, radius, extent = case
        per_step = sum(
            hi - lo
            for r in range(len(bounds))
            for _src, lo, hi in halo_exchange(bounds, r, radius, extent)[1]
        )
        assert per_step * row_nbytes <= halo_bytes_bound(
            radius, len(bounds), row_nbytes)
        assert exchange_rows(bounds, radius, extent, k) == max(0, k - 1) * per_step

    @given(st.integers(0, 64), st.integers(1, 4), st.integers(0, 6))
    def test_one_rank_or_one_iteration_schedules_nothing(self, extent, radius, k):
        assert halo_exchange([(0, extent)], 0, radius, extent) == ([], [])
        assert exchange_rows([(0, extent)], radius, extent, k) == 0
        for nranks in (2, 5, 9):
            bounds = block_bounds(extent, max(1, min(nranks, extent)))
            assert exchange_rows(bounds, radius, extent, 0) == 0
            assert exchange_rows(bounds, radius, extent, 1) == 0

    def test_a_block_narrower_than_the_radius_hears_from_several_ranks(self):
        bounds = block_bounds(12, 6)  # 2-row blocks, radius 3
        sends, recvs = halo_exchange(bounds, 2, 3, 12)
        assert recvs == [(1, 3, 4), (3, 6, 8), (4, 8, 9)]
        assert sends == [(1, 4, 6), (3, 4, 6), (4, 5, 6)]  # rank 4 writes row 8 only
