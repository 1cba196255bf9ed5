"""Work and data decompositions.

Triolet "treats data distribution strategies separately from work
distribution strategies".  This package provides the work-side block
math; the data side is the ``slice`` interface of
:mod:`repro.core.sources`, driven in lockstep by the runtime.
"""
from repro.partition.block import (
    block_bounds,
    chunk_bounds,
    missing_intervals,
    weighted_bounds,
)
from repro.partition.block2d import grid_shape, block2d_bounds
from repro.partition.halo import (
    exchange_rows,
    flatten_intervals,
    halo_bytes_bound,
    halo_exchange,
    halo_intervals,
    halo_rows,
    section_halos,
    written_rows,
)

__all__ = [
    "block_bounds",
    "chunk_bounds",
    "weighted_bounds",
    "missing_intervals",
    "grid_shape",
    "block2d_bounds",
    "halo_intervals",
    "section_halos",
    "flatten_intervals",
    "halo_rows",
    "halo_bytes_bound",
    "written_rows",
    "halo_exchange",
    "exchange_rows",
]
