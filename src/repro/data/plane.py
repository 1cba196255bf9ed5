"""The data plane: placement planning at parallel-section boundaries.

The :class:`DataPlane` lives on the main rank inside the runtime.  It
owns the handle registry, a metadata mirror of every rank store's
resident shard, and a per-rank :class:`~repro.data.store.SliceCache`
policy.  Just before a distributed section launches, the driver asks the
plane what handle rows each rank's chunk needs (walking the chunk's data
sources *and* its closure environments) and the plane emits explicit
shipping operations:

* first use of an array on a rank ships the rank's layout shard (plus
  whatever the section needs beyond it) and records the placement;
* later sections whose requirements fall inside the recorded shard ship
  **zero** input bytes -- the iterator slices resolve against resident
  rows;
* requirements that only partially overlap the shard go through the
  byte-bounded LRU slice cache: a containing cached slice is a hit (zero
  bytes), otherwise only the missing rows are shipped;
* when the driver repartitions from cost feedback, the shard boundary
  itself migrates (the resident hull grows to the new block);
* a *transient* rank crash invalidates all placement and cache state --
  lost shards re-materialize from the master copy on the next section,
  and the re-shipped bytes are attributed to recovery;
* a *permanent* rank loss instead **shrinks** the plane
  (:meth:`DataPlane.shrink`): surviving ranks keep their shards under
  renumbered ids, only the lost rank's shard intervals are marked for
  lineage replay (:mod:`repro.data.lineage`), and the next section
  rebuilds exactly those rows through the weighted-bounds migration
  path -- strictly fewer bytes than full invalidation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.sources import (
    GatherSource,
    OuterProductSource,
    ReplicatedSource,
    TupleSource,
    WholeObjectSource,
)
from repro.data.handle import DistArray, HandleSource, lookup_handle
from repro.data.views import SegmentedSource, TransposeSource
from repro.obs.spans import active as _obs_active
from repro.data.lineage import LineageLog
from repro.data.rebalance import Rebalancer
from repro.data.store import (
    DEFAULT_CACHE_BYTES,
    RankStore,
    SliceCache,
    aid_wire,
)
from repro.partition import block_bounds, halo_intervals, missing_intervals
from repro.serial.closures import Closure

# A requirement is aid -> [lo, hi, replicated]; replicated means "the
# rank needs the whole array resident" (closure-environment use).


@dataclass
class SectionShipment:
    """One section's planned shipping: per-destination ops + stats."""

    ops: list[list]  # indexed by destination rank; ops[0] is always []
    stats: dict = field(default_factory=dict)
    #: the per-rank requirement dicts that were planned (section lineage)
    reqs: list[dict] = field(default_factory=list)


def _req_add(reqs: dict, aid: int, lo: int, hi: int, replicated: bool) -> None:
    if hi <= lo:
        # Nothing to ship -- even replicated: planning an empty interval
        # would emit an assemble-from-nothing op (sources over empty
        # arrays read through the handle instead).
        return
    ent = reqs.get(aid)
    if ent is None:
        reqs[aid] = [lo, hi, replicated]
    else:
        ent[0] = min(ent[0], lo)
        ent[1] = max(ent[1], hi)
        ent[2] = ent[2] or replicated


def _walk_env(obj: Any, reqs: dict) -> None:
    if isinstance(obj, DistArray):
        _req_add(reqs, obj.array_id, 0, len(obj), replicated=True)
    elif isinstance(obj, Closure):
        for e in obj.env:
            _walk_env(e, reqs)
    elif isinstance(obj, tuple):
        for e in obj:
            _walk_env(e, reqs)


def _walk_source(src: Any, reqs: dict) -> None:
    if isinstance(src, HandleSource):
        _req_add(reqs, src.array_id, src.lo, src.hi, replicated=False)
    elif isinstance(src, TransposeSource):
        # Every column intersects every row: the touched set genuinely is
        # the whole row range on each rank (HDArray-style inference from
        # the access pattern, not a conservative over-approximation).
        handle = lookup_handle(src.array_id)
        _req_add(reqs, src.array_id, 0, len(handle), replicated=True)
    elif isinstance(src, SegmentedSource):
        # A rank's segments cover exactly [offsets[0], offsets[-1]).
        _req_add(reqs, src.array_id, src.offsets[0], src.offsets[-1],
                 replicated=False)
    elif isinstance(src, GatherSource):
        # The chunk was sliced before requirements are gathered, and
        # slicing a gather narrows its base to exactly the span the
        # position window touches -- so recursing is already the tight
        # "ship only touched index ranges" requirement.
        _walk_source(src.base, reqs)
    elif isinstance(src, TupleSource):
        for m in src.members:
            _walk_source(m, reqs)
    elif isinstance(src, OuterProductSource):
        _walk_source(src.u, reqs)
        _walk_source(src.v, reqs)
    elif isinstance(src, (ReplicatedSource, WholeObjectSource)):
        _walk_env(src.value, reqs)


def chunk_requirements(chunk) -> dict:
    """Handle rows one rank's chunk -- or list of chunks, merged per array
    into one interval -- touches: sources + closure envs."""
    reqs: dict = {}
    for c in chunk if isinstance(chunk, list) else (chunk,):
        idx = getattr(c, "idx", None)
        if idx is None:
            continue
        _walk_source(idx.source, reqs)
        _walk_env(idx.extract, reqs)
        if idx.bulk is not None:
            _walk_env(idx.bulk, reqs)
    return reqs


_STAT_KEYS = (
    "input_bytes", "placements", "placed_bytes", "resident_hits",
    "cache_hits", "cache_misses", "cache_evictions", "migrated_bytes",
    "requests", "migrations", "lineage_replays", "replayed_bytes",
    "halo_requests", "halo_hits", "halo_refreshes", "halo_bytes",
)

#: Halo traffic keeps its own conservation stream (checked by
#: ``repro.testing.invariants``): ghost intervals are not chunk
#: requirements, so they stay out of ``requests`` and the five-outcome
#: sum, and their bytes stay out of ``input_bytes``:
#:   halo_requests == halo_hits + halo_refreshes
#: with halo_bytes <= 2 * radius * nranks * row_nbytes per section.
_HALO_KEYS = ("halo_requests", "halo_hits", "halo_refreshes", "halo_bytes")

# Conservation law (checked by repro.testing.invariants): every non-root
# chunk requirement is served by exactly one of the five outcomes, so
#   requests == resident_hits + placements + migrations
#               + cache_hits + cache_misses
# must hold per section and for the running totals.
# lineage_replays / replayed_bytes are an *attribution overlay*, not a
# sixth outcome: a replay is also a placement, migration or cache miss,
# so the keys stay outside the served sum.


#: Plane keys: never reused in a process, so a rank store kept between
#: runs is never taken for another plane's.
_KEYS = itertools.count()


class DataPlane:
    """Main-rank placement planner + per-rank store registry."""

    def __init__(self, cache_bytes: int = DEFAULT_CACHE_BYTES,
                 rebalancer: Rebalancer | None = None):
        self.key = next(_KEYS)
        self.cache_bytes = cache_bytes
        self.rebalancer = rebalancer if rebalancer is not None else Rebalancer()
        self.handles: dict[int, DistArray] = {}
        # (rank, aid) -> (lo, hi): planner's mirror of resident shards.
        self._placement: dict[tuple[int, int], tuple[int, int]] = {}
        self._caches: dict[int, SliceCache] = {}
        self._stores: dict[int, RankStore] = {}
        self.invalidations = 0
        self.shrinks = 0
        self.lineage = LineageLog()
        # Registration dedupe: (id(array), layout) -> aid for the exact
        # ndarray object, (layout, shape, dtype, sampled bytes) -> aids
        # that may hold equal content, confirmed byte for byte.  Identity
        # keys stay valid because ``self.handles`` strongly references
        # every handle (and through it the registered array), so an id is
        # never recycled while its entry lives.
        self._dedup_ident: dict[tuple[int, str], int] = {}
        self._dedup_content: dict[tuple, list[int]] = {}
        self.dedup_hits = 0
        self.totals = {k: 0 for k in _STAT_KEYS}
        self.totals["sections"] = 0
        self.totals["invalidated_entries"] = 0

    # -- handle lifecycle ---------------------------------------------------
    def register(self, array, layout: str = "block",
                 provenance: tuple | None = None) -> DistArray:
        """Wrap *array* in a handle managed by this plane.

        ``provenance`` is optional ``(section id, plan, input aids)`` for
        arrays computed by a distributed section; without it the handle
        is recorded as a lineage *source* (registered master copy).
        """
        if isinstance(array, DistArray):
            return array
        if provenance is None:
            # Dedupe master-copy datasets: distributing the same ndarray
            # (or an equal-content one, e.g. a recomputed intermediate)
            # twice must share one placement instead of double-shipping.
            arr = np.asarray(array)
            existing = self.handles.get(self._dedup_ident.get((id(arr), layout)))
            if existing is None:
                # Equal content is equal bytes in C order (-0.0 is not 0.0,
                # a strided view matches its contiguous copy, object arrays
                # compare pointers): bucketed by a sample, then confirmed.
                ckey = (layout, arr.shape, arr.dtype.str,
                        arr.flat[::max(1, arr.size // 16)].tobytes())
                same = [self.handles[a] for a in self._dedup_content.get(ckey, ())
                        if a in self.handles]
                data = arr.tobytes() if same else None
                existing = next(
                    (h for h in same if h.array.tobytes() == data), None)
            if existing is not None:
                self.dedup_hits += 1
                return existing
            handle = DistArray(arr, layout=layout)
            self.handles[handle.array_id] = handle
            self._dedup_ident[(id(handle.array), layout)] = handle.array_id
            self._dedup_content.setdefault(ckey, []).append(handle.array_id)
            self.lineage.record_source(handle.array_id)
            return handle
        handle = DistArray(array, layout=layout)
        self.handles[handle.array_id] = handle
        section, plan, inputs = provenance
        self.lineage.record_section(
            section, plan, tuple(inputs), output_aid=handle.array_id
        )
        return handle

    def record_section(self, section: int, plan: str | None,
                       reqs: list[dict]) -> None:
        """Append a section lineage record: which handles the section's
        chunks consumed (union over all ranks' requirement dicts)."""
        inputs: set[int] = set()
        for r in reqs:
            inputs.update(r)
        if inputs:
            self.lineage.record_section(section, plan, tuple(inputs))

    def has_state(self) -> bool:
        return bool(self._placement) or any(
            len(c) for c in self._caches.values()
        )

    # -- store access -------------------------------------------------------
    def worker_store(self, rank: int) -> RankStore:
        return self._stores[rank]

    def _ensure_rank(self, rank: int) -> None:
        if rank not in self._stores:
            self._stores[rank] = RankStore(rank)
            self._caches[rank] = SliceCache(self.cache_bytes)

    # -- partitioning hook --------------------------------------------------
    def partition_bounds(self, extent: int,
                         nchunks: int) -> list[tuple[int, int]] | None:
        """Cost-feedback bounds for a 1-D split, or None for uniform."""
        return self.rebalancer.bounds(extent, nchunks)

    def feedback(self, bounds: list[tuple[int, int]],
                 costs: list[float]) -> None:
        self.rebalancer.observe(bounds, costs)

    # -- section planning ---------------------------------------------------
    def requirements(self, chunks: list) -> list[dict]:
        return [chunk_requirements(c) for c in chunks]

    def plan_section(self, reqs: list[dict], *,
                     migrated: bool = False,
                     recovery: bool = False) -> SectionShipment | None:
        """Plan shipping for one section (one requirement dict per rank).

        Returns None when no chunk references a handle -- the driver then
        uses the legacy ship-the-slice path untouched.  Rank 0 never
        ships to itself (it resolves against the master copy).  *recovery*
        marks a post-crash re-execution attempt: the observability layer
        tags this section's ship spans so re-shipped bytes stay
        attributable.
        """
        if not any(reqs):
            return None
        return self._plan(reqs, None, migrated, recovery)

    def plan_stencil(self, aid: int, bounds: list[tuple[int, int]],
                     radius: int, *, migrated: bool = False,
                     recovery: bool = False) -> SectionShipment:
        """Plan one stencil iteration's shipping.

        Each rank's block interior goes through the ordinary placement
        path (:meth:`_plan_one`), so steady-state iterations are resident
        hits shipping **zero** interior bytes, and post-crash attempts
        re-materialize through the same invalidation/lineage machinery as
        any other section.  The block's ghost intervals
        (:func:`~repro.partition.halo.halo_intervals`) become
        ghost-flagged slice-cache entries with their own conservation
        stream: a ghost that is still fresh (not overwritten since the
        last exchange; see :meth:`note_write`) is a ``halo_hit`` costing
        nothing, a stale or absent one is a ``halo_refresh`` shipping
        exactly its rows.  *migrated* routes post-shrink interiors
        through hull migration; *recovery* tags the obs spans.
        """
        handle = lookup_handle(aid)
        n = len(handle)
        row_nbytes = handle.row_nbytes()

        def halo(dst: int, out_ops: list, stats: dict) -> None:
            lo, hi = bounds[dst]
            cache = self._caches[dst]
            for glo, ghi in halo_intervals(lo, hi, radius, n):
                stats["halo_requests"] += 1
                if cache.contains(aid, glo, ghi):
                    stats["halo_hits"] += 1
                    continue
                stats["halo_refreshes"] += 1
                nbytes = (ghi - glo) * row_nbytes
                for old in cache.put(aid, glo, ghi, nbytes, ghost=True):
                    stats["cache_evictions"] += 1
                    out_ops.append(["evict", aid_wire(old[0]), old[1],
                                    old[2]])
                out_ops.append(["cache", aid_wire(aid), glo, ghi,
                                [(glo, ghi, handle.array[glo:ghi])]])
                stats["halo_bytes"] += nbytes

        reqs = [{aid: [lo, hi, False]} for lo, hi in bounds]
        return self._plan(reqs, halo, migrated, recovery)

    def _plan(self, reqs: list[dict], halo, migrated: bool,
              recovery: bool) -> SectionShipment:
        """Plan every destination rank's requirements, then its ghost
        intervals when a *halo* step ``halo(dst, out_ops, stats)`` is
        given; fold the section into the totals, the obs streams and the
        lineage log."""
        rec = _obs_active()
        nranks = len(reqs)
        stats = {k: 0 for k in _STAT_KEYS}
        ops: list[list] = [[] for _ in range(nranks)]
        pending = self.lineage.pending()
        for dst in range(1, nranks):
            self._ensure_rank(dst)
            before = dict(stats) if rec is not None else None
            for aid in sorted(reqs[dst]):
                lo, hi, replicated = reqs[dst][aid]
                stats["requests"] += 1
                self._plan_one(dst, aid, lo, hi, replicated, nranks,
                               migrated, pending, ops[dst], stats)
            if halo is not None:
                halo(dst, ops[dst], stats)
            if rec is not None:
                delta = {k: stats[k] - before[k] for k in _STAT_KEYS
                         if stats[k] != before[k]}
                halo_delta = {k: delta.pop(k) for k in _HALO_KEYS
                              if k in delta}
                for what, attrs in (("ship", delta), ("halo", halo_delta)):
                    if attrs:
                        if recovery:
                            attrs["recovery"] = True
                        rec.instant(what, f"{what}->r{dst}", rank=dst,
                                    attrs=attrs)
        self.totals["sections"] += 1
        for k in _STAT_KEYS:
            self.totals[k] += stats[k]
        if rec is not None:
            # Independent accumulation stream: the conservation check
            # compares these against self.totals after the run.
            for k in _STAT_KEYS:
                if stats[k]:
                    rec.count(f"plane.{k}", stats[k])
        if pending:
            # Anything this section did not touch re-materializes through
            # ordinary placement when a later section needs it.
            self.lineage.settle()
        return SectionShipment(ops=ops, stats=stats, reqs=reqs)

    def note_write(self, aid: int, lo: int, hi: int) -> int:
        """An in-place write to rows ``[lo, hi)`` of *aid*: every cached
        slice overlapping the written range now holds stale values and is
        silently dropped (metadata and bytes) -- an invalidation, not a
        capacity eviction, so no eviction is counted.  Ghost entries that
        do not overlap (boundary rows a stencil never writes) stay fresh
        and keep serving halo hits.  Returns how many entries dropped."""
        if hi <= lo:
            return 0
        dropped = 0
        for rank, cache in self._caches.items():
            store = self._stores.get(rank)
            for key in cache.keys():
                kaid, klo, khi = key
                if kaid == aid and klo < hi and khi > lo:
                    cache.drop(key)
                    if store is not None:
                        store.drop_cached(key)
                    dropped += 1
        return dropped

    def commit_stencil(self, aid: int, bounds: list[tuple[int, int]],
                       pieces: list[tuple[int, int, Any]]) -> None:
        """Commit one completed stencil iteration.

        *pieces* is the per-rank ``(wlo, whi, rows)`` updates gathered at
        the root.  The master copy absorbs every piece (so a crashed
        *later* iteration re-materializes current values, and lineage
        replay stays deterministic: the master only ever holds completed
        iterations).  Each rank's own piece is mirrored into its store at
        zero wire cost -- the rank computed those rows locally -- while
        resetting its resident hull to exactly its block, so hull rows
        another rank just overwrote can never be served stale.  Finally
        every cached slice overlapping a written range is invalidated
        (:meth:`note_write`), which is what makes the next iteration ship
        only *dirty* halos.  With empty *bounds* (a sweep restored from a
        checkpoint: no rank of this run computed the pieces) nothing is
        mirrored and every placement of the array is forgotten.
        """
        handle = lookup_handle(aid)
        nranks = len(bounds)
        for wlo, whi, rows in pieces:
            if whi > wlo:
                handle.array[wlo:whi] = rows
        for dst in range(1, nranks):
            store = self._stores.get(dst)
            if store is None:
                continue
            blo, bhi = bounds[dst]
            wlo, whi, rows = pieces[dst]
            ps = [(wlo, whi, np.asarray(rows))] if whi > wlo else []
            if store.resident_bounds(aid) is None and not ps:
                continue
            store.apply([["resident", aid_wire(aid), blo, bhi, ps]])
            self._placement[(dst, aid)] = (blo, bhi)
        # Placements planned by earlier, wider sections reference ranks
        # outside this partition; their rows just went stale with the
        # master write, so forget them (they re-place on next use).
        for (rank, kaid) in list(self._placement):
            if kaid == aid and rank >= nranks:
                del self._placement[(rank, kaid)]
                store = self._stores.get(rank)
                if store is not None:
                    store.invalidate(aid)
                cache = self._caches.get(rank)
                if cache is not None:
                    cache.invalidate(aid)
        for wlo, whi, _rows in pieces:
            self.note_write(aid, wlo, whi)

    def ghost_map(self) -> dict[int, set[tuple[int, int, int]]]:
        """Live ghost (halo) placements per rank, derived from the cache
        metadata: ``rank -> {(aid, lo, hi), ...}``.  Read-only view for
        invariant checkers (every ghost entry's bytes must exist in the
        rank's store once the section's ops have been applied, and its
        interval must sit inside the handle's bounds)."""
        return {
            rank: cache.ghost_keys()
            for rank, cache in self._caches.items()
            if cache.ghost_keys()
        }

    def _plan_one(self, dst: int, aid: int, lo: int, hi: int,
                  replicated: bool, nranks: int, migrated: bool,
                  pending: set, out_ops: list, stats: dict) -> None:
        handle = lookup_handle(aid)
        n = len(handle)
        row_nbytes = handle.row_nbytes()
        if replicated or handle.layout == "replicated":
            lo, hi = 0, n
            replicated = True
        hull = self._placement.get((dst, aid))
        if hull is not None and hull[0] <= lo and hi <= hull[1]:
            stats["resident_hits"] += 1
            return
        if hull is None or replicated or migrated:
            # First placement, replication upgrade, or cost-feedback
            # boundary migration: grow the resident hull.  The initial
            # hull is the union of the layout shard and the requirement,
            # so a compatible later partition lands resident.
            if hull is None:
                slo, shi = self._layout_shard(handle, dst, nranks)
                tlo, thi = min(slo, lo), max(shi, hi)
                stats["placements"] += 1
            else:
                tlo, thi = min(hull[0], lo), max(hull[1], hi)
                stats["migrations"] += 1
            pieces = [
                (plo, phi, handle.array[plo:phi])
                for plo, phi in missing_intervals(tlo, thi, hull)
            ]
            shipped = sum((phi - plo) * row_nbytes for plo, phi, _ in pieces)
            out_ops.append(["resident", aid_wire(aid), tlo, thi, pieces])
            self._placement[(dst, aid)] = (tlo, thi)
            stats["input_bytes"] += shipped
            stats["placed_bytes"] += shipped
            if hull is not None:
                stats["migrated_bytes"] += shipped
            if aid in pending and shipped:
                self._note_replay(aid, pieces, shipped, stats)
            return
        # Partial overlap with a recorded shard and no reason to migrate:
        # the work partition differs from the data partition.  Serve from
        # the slice cache.
        cache = self._caches[dst]
        if cache.lookup(aid, lo, hi) is not None:
            stats["cache_hits"] += 1
            return
        stats["cache_misses"] += 1
        for old in cache.put(aid, lo, hi, (hi - lo) * row_nbytes):
            stats["cache_evictions"] += 1
            out_ops.append(["evict", aid_wire(old[0]), old[1], old[2]])
        pieces = [
            (plo, phi, handle.array[plo:phi])
            for plo, phi in missing_intervals(lo, hi, hull)
        ]
        out_ops.append(["cache", aid_wire(aid), lo, hi, pieces])
        shipped = sum((phi - plo) * row_nbytes for plo, phi, _ in pieces)
        stats["input_bytes"] += shipped
        if aid in pending and shipped:
            self._note_replay(aid, pieces, shipped, stats)

    def _note_replay(self, aid: int, pieces: list, shipped: int,
                     stats: dict) -> None:
        """Attribute one pending shard re-materialization to lineage
        replay (the shipped rows rebuild a lost shard selectively)."""
        stats["lineage_replays"] += 1
        stats["replayed_bytes"] += shipped
        self.lineage.note_replay(
            aid, sum(phi - plo for plo, phi, _ in pieces)
        )

    @staticmethod
    def _layout_shard(handle: DistArray, dst: int,
                      nranks: int) -> tuple[int, int]:
        if handle.layout == "replicated":
            return 0, len(handle)
        # block and block2d both shard the outer (row) axis here; block2d
        # sections additionally slice rows per grid column, which the
        # slice cache absorbs.
        return block_bounds(len(handle), nranks)[dst]

    # -- failure handling ---------------------------------------------------
    def invalidate(self) -> dict:
        """Drop all placement and cache state (rank-crash recovery).

        Stores are cleared too, so a later section re-materializes every
        shard from the master copy -- nothing stale can survive a crash.
        Returns counts for the recovery report.
        """
        dropped_entries = sum(
            c.invalidate() for c in self._caches.values()
        )
        dropped_shards = len(self._placement)
        self._placement.clear()
        for store in self._stores.values():
            store.clear()
        self.invalidations += 1
        self.totals["invalidated_entries"] += dropped_entries
        return {"shards": dropped_shards, "cache_entries": dropped_entries}

    def shrink(self, dead: list[int]) -> dict:
        """Elastic shrink after *permanent* rank losses.

        Unlike :meth:`invalidate`, survivors keep their resident shards
        and caches: ranks are renumbered downward past the dead ones
        (matching the driver's re-partition over survivors), and only the
        dead ranks' shard intervals are marked for lineage replay -- the
        next section rebuilds exactly those rows.  A surviving store that
        renumbers to rank 0 is dropped too (the new root resolves against
        the master copy), but its rows are not *lost*, so they are not
        marked for replay.  Returns loss counts for the recovery report.
        """
        dead_set = set(dead)

        def remap(rank: int) -> int:
            return rank - sum(1 for d in dead_set if d < rank)

        lost_shards = 0
        lost_rows = 0
        new_placement: dict[tuple[int, int], tuple[int, int]] = {}
        for (rank, aid), (lo, hi) in self._placement.items():
            if rank in dead_set:
                lost_shards += 1
                lost_rows += hi - lo
                self.lineage.mark_lost(aid, rank, lo, hi)
                continue
            if remap(rank) < 1:
                continue
            # The mirror records placements at *planning* time, but the
            # crashed attempt may have died before this survivor applied
            # its shipping ops.  Trust only rows that actually arrived;
            # anything else re-places from the master copy.
            store = self._stores.get(rank)
            actual = store.resident_bounds(aid) if store is not None else None
            if actual is not None:
                new_placement[(remap(rank), aid)] = actual
        self._placement = new_placement

        dropped_entries = 0
        new_stores: dict[int, RankStore] = {}
        new_caches: dict[int, SliceCache] = {}
        for rank, store in self._stores.items():
            cache = self._caches[rank]
            if rank in dead_set or remap(rank) < 1:
                dropped_entries += len(cache)
                continue
            # Same reconciliation for cached slices: keep only entries
            # whose bytes the store really holds.  Ghost entries go
            # unconditionally -- the shrink renumbers ranks and re-blocks
            # the partition, so every halo interval is keyed to dead
            # geometry -- and their surviving store bytes go with them, or
            # a renumbered store could serve them stale.
            for k in cache.ghost_keys():
                store.drop_cached(k)
            dropped_entries += cache.keep_only(store.cached_keys())
            store.rank = remap(rank)
            new_stores[remap(rank)] = store
            new_caches[remap(rank)] = cache
        self._stores = new_stores
        self._caches = new_caches

        # Old observations are keyed to the pre-shrink rank numbering;
        # feedback restarts on the shrunken machine.
        self.rebalancer.reset()
        self.shrinks += 1
        return {
            "lost_shards": lost_shards,
            "lost_rows": lost_rows,
            "dropped_cache_entries": dropped_entries,
        }

    # -- reporting ----------------------------------------------------------
    def placement_map(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Copy of the planner's shard mirror: ``(rank, aid) -> (lo, hi)``.

        Read-only view for invariant checkers (placement must never
        reference a rank outside the live set, hulls must stay inside
        the handle's bounds)."""
        return dict(self._placement)

    def cache_stats(self) -> dict:
        return {
            "hits": sum(c.hits for c in self._caches.values()),
            "misses": sum(c.misses for c in self._caches.values()),
            "evictions": sum(c.evictions for c in self._caches.values()),
            "entries": sum(len(c) for c in self._caches.values()),
            "bytes_used": sum(c.bytes_used for c in self._caches.values()),
        }

    def stats_dict(self) -> dict:
        out = dict(self.totals)
        out["arrays"] = len(self.handles)
        out["dedup_hits"] = self.dedup_hits
        out["invalidations"] = self.invalidations
        out["shrinks"] = self.shrinks
        out["rebalance_activations"] = self.rebalancer.activations
        out["cache"] = self.cache_stats()
        return out
