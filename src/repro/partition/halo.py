"""Halo (ghost-cell) interval arithmetic for stencil sections.

A radius-``r`` stencil over a block ``[lo, hi)`` of a length-``n`` array
reads ``r`` rows beyond each edge of the block.  The rows outside the
block are its *halo*: up to two clamped intervals that the data plane
places as ghost cache entries next to the rank's resident shard.  All of
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


def halo_exchange(
    bounds: list[tuple[int, int]], rank: int, radius: int, extent: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """What *rank* sends and receives between two iterations of a sweep
    whose blocks stay where they were written: ``(sends, recvs)``, with
    ``(dst, lo, hi)`` for the rows of *rank*'s written range that rank
    ``dst``'s read window covers, and the mirror image ``(src, lo, hi)``
    for the rows of its own read window that rank ``src`` writes.  Both
    are sorted by peer (so by row) and disjoint; a block narrower than
    ``radius`` lets a window reach past its neighbour, so there may be
    more than two peers.  Rows nobody writes -- the Dirichlet edges --
    are in nobody's lists: whoever reads them holds their only value."""

    def windows(block):  # (written, read) rows; both empty together
        wlo, whi = written_rows(*block, radius, extent)
        return ((wlo, whi), (wlo - radius, whi + radius)) if whi > wlo else (
            (0, 0), (0, 0))

    wrote, reads = windows(bounds[rank])
    sends, recvs = [], []
    for peer, block in enumerate(bounds):
        peer_wrote, peer_reads = windows(block)
        for (alo, ahi), (blo, bhi), out in ((wrote, peer_reads, sends),
                                            (peer_wrote, reads, recvs)):
            if peer != rank and min(ahi, bhi) > max(alo, blo):
                out.append((peer, max(alo, blo), min(ahi, bhi)))
    return sends, recvs


def exchange_rows(
    bounds: list[tuple[int, int]], radius: int, extent: int, iterations: int
) -> int:
    """Ghost rows that travel between the ranks of one *iterations*-deep
    sweep: every rank's receives, once per iteration but the last (whose
    rows nobody reads again).  One rank, or one iteration, moves none."""
    if iterations <= 1:
        return 0
    return (iterations - 1) * sum(
        hi - lo
        for rank in range(len(bounds))
        for _src, lo, hi in halo_exchange(bounds, rank, radius, extent)[1]
    )


def halo_bytes_bound(radius: int, nranks: int, row_nbytes: int) -> int:
    """Hard ceiling on the halo traffic of one stencil iteration.

    Each of the ``nranks`` destination ranks has at most two ghost
    intervals of at most ``radius`` rows each, so an iteration can never
    move more than ``2 * radius * nranks * row_nbytes`` halo bytes, shipped
    with the blocks (the first) or exchanged by the ranks (the rest).  The
    invariant checker enforces this against the planner's own stats.
    """
    return 2 * radius * nranks * row_nbytes
