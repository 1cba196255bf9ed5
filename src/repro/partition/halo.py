"""Halo (ghost-cell) interval arithmetic for stencil sections.

A radius-``r`` stencil over a block ``[lo, hi)`` of a length-``n`` array
reads ``r`` rows beyond each edge of the block per iteration, so a
``k``-iteration sweep reads ``r * k``.  The rows outside the block are
its *halo*: up to two clamped intervals that the data plane places as
ghost cache entries next to the rank's resident shard.  All of
the math here is pure interval arithmetic -- no handles, no stores -- so
the hypothesis property suite can hammer it directly, and the invariant
checker can recompute byte bounds independently of the planner.
"""
from __future__ import annotations


def halo_intervals(
    lo: int, hi: int, radius: int, extent: int
) -> list[tuple[int, int]]:
    """The ghost intervals a radius-``radius`` stencil over block
    ``[lo, hi)`` of ``[0, extent)`` reads outside the block.

    Returns zero, one, or two non-empty intervals, clamped to the array
    bounds.  An empty block (``hi <= lo``) touches nothing and gets no
    halo; ``radius >= block width`` simply clamps like any other case.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if hi <= lo or radius == 0:
        return []
    out = []
    left = (max(0, lo - radius), lo)
    if left[0] < left[1]:
        out.append(left)
    right = (hi, min(extent, hi + radius))
    if right[0] < right[1]:
        out.append(right)
    return out


def section_halos(
    bounds: list[tuple[int, int]], radius: int, extent: int
) -> list[list[tuple[int, int]]]:
    """Per-rank ghost intervals for one stencil section's partition."""
    return [halo_intervals(lo, hi, radius, extent) for lo, hi in bounds]


def written_rows(lo: int, hi: int, radius: int, extent: int) -> tuple[int, int]:
    """The rows ``[wlo, whi)`` a stencil over block ``[lo, hi)`` writes:
    boundaries are Dirichlet, so rows within ``radius`` of either array
    edge are fixed and the padded read window ``[wlo - radius, whi +
    radius)`` always sits inside the array.  ``whi <= wlo``: the block
    writes (and so reads) nothing."""
    return max(lo, radius), min(hi, extent - radius)


def halo_bytes_bound(depth: int, nranks: int, row_nbytes: int) -> int:
    """Hard ceiling on the ghost rows one stencil section ships.

    Each of the ``nranks`` destination ranks has at most two ghost
    intervals of at most ``depth`` rows each, so a section can never move
    more than ``2 * depth * nranks * row_nbytes`` halo bytes.  A sweep's
    ghosts are ``radius * iterations`` deep and ride with the blocks: its
    ranks exchange nothing.  The invariant checker enforces this against
    the planner's own stats.
    """
    return 2 * depth * nranks * row_nbytes
