"""Resident distributed data plane (paper §3.5, taken to its conclusion).

Triolet decouples data distribution from work distribution: iterators
carry sliceable *data sources*, and the runtime ships each rank exactly
the slice its chunk needs.  The seed runtime still re-shipped those
slices from the main rank on every parallel section.  This package makes
placement *resident*:

* :class:`~repro.data.handle.DistArray` -- a handle that places an array
  across ranks once (block / block2d / replicated) and serializes as an
  id, never as bytes;
* :class:`~repro.data.store.RankStore` / ``SliceCache`` -- per-rank
  resident shards plus a byte-bounded LRU for partial-overlap slices;
* :class:`~repro.data.plane.DataPlane` -- section-boundary placement
  planning, cost-feedback boundary migration
  (:class:`~repro.data.rebalance.Rebalancer`), and crash invalidation;
* :mod:`repro.data.views` -- lazy composable views (slice / zip /
  transpose / segmented) whose sources tell the planner exactly which
  row intervals a pipeline touches.
"""
from repro.data.handle import (
    DistArray,
    HandleSource,
    MissingShardError,
    bind_store,
    current_store,
    drop_handles,
    lookup_handle,
)
from repro.data.lineage import LineageLog, LostShard
from repro.data.plane import DataPlane, SectionShipment, chunk_requirements
from repro.data.rebalance import Rebalancer
from repro.data.store import DEFAULT_CACHE_BYTES, RankStore, SliceCache
from repro.data.views import (
    SegmentedSource,
    SegmentedView,
    SliceView,
    TransposeSource,
    TransposeView,
    View,
    ZipView,
    segmented_view,
    slice_view,
    transpose_view,
    zip_view,
)

__all__ = [
    "DistArray",
    "HandleSource",
    "MissingShardError",
    "bind_store",
    "current_store",
    "drop_handles",
    "lookup_handle",
    "DataPlane",
    "SectionShipment",
    "chunk_requirements",
    "LineageLog",
    "LostShard",
    "Rebalancer",
    "RankStore",
    "SliceCache",
    "DEFAULT_CACHE_BYTES",
    "View",
    "SliceView",
    "ZipView",
    "TransposeView",
    "SegmentedView",
    "TransposeSource",
    "SegmentedSource",
    "slice_view",
    "zip_view",
    "transpose_view",
    "segmented_view",
]
