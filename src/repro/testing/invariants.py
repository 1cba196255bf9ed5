"""Runtime invariant checker hooked at driver section boundaries.

An :class:`InvariantChecker` registers as a section observer
(:func:`repro.runtime.section.observing_sections`) and validates
conservation laws after every distributed section, while the runtime is
live:

* **Tiling** -- partition bounds tile the outer domain exactly: 1-D
  blocks are contiguous, non-overlapping and cover ``[0, extent)``; 2-D
  grids are the row-major cross product of the grid's row and column
  intervals (in order, repeats kept), each list tiling its axis.  When a
  section finished from partials kept across a failed attempt, the law
  is about the union: kept blocks and
  the final attempt's residual blocks cover the domain exactly once,
  and every kept block is held by a rank of that final attempt -- never
  by one that died.
* **Plane conservation** -- every chunk requirement is served by exactly
  one outcome, so ``requests == resident_hits + placements + migrations
  + cache_hits + cache_misses`` per section -- where ``requests`` is the
  number of requirements the shipped chunks (the residual ones, after a
  failure) really have -- and the slice cache's global hit/miss counters
  advance by exactly the section's planned hits/misses.  The placement
  mirror agrees with what the rank stores hold.
* **Reshipped monotonicity** -- ``recovery_report.reshipped_bytes``
  never decreases, and only grows in a section that actually re-executed
  chunks after a crash.
* **Placement liveness** -- after a crash re-partition, the placement
  map never references a rank outside the surviving set, and every
  resident hull stays inside its handle's bounds.
* **Halo conservation** -- ghost traffic has its own law: per section
  ``halo_requests == halo_hits + halo_refreshes``; a stencil section's
  ``halo_bytes`` are the first ghosts the plan ships -- under the
  interval-arithmetic ceiling ``2 * radius * ranks * row_nbytes``
  (:func:`~repro.partition.halo.halo_bytes_bound`) -- plus what its
  ranks' exchange schedule (:func:`~repro.partition.halo.halo_exchange`)
  moves in ``iterations - 1`` supersteps, and the final attempt's
  ``RankMetrics`` agree: per rank exactly the ship, exchange and gather
  messages, in total exactly those payload bytes plus envelopes.  Every
  live ghost placement must cover an interval inside its handle's bounds
  with its bytes actually present in the rank's store.

Any violation raises :class:`InvariantViolation` (an ``AssertionError``
subclass, so it fails pytest naturally).  Usage from any test::

    from repro.testing.invariants import checking

    with checking() as ck, triolet_runtime(machine) as rt:
        ...
    assert ck.sections > 0
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.iterators.indexed import IndexedIter
from repro.partition import (
    exchange_rows,
    grid_shape,
    halo_bytes_bound,
    halo_exchange,
    written_rows,
)
from repro.runtime.section import observing_sections


#: What one message may weigh beyond the rows it carries (type tags,
#: shapes, block bounds, op headers): generous, and still far below a row
#: block shipped where ghost rows were planned.
_ENVELOPE_BYTES = 256


class InvariantViolation(AssertionError):
    """A runtime conservation law failed at a section boundary."""


def _fail(msg: str, payload: dict) -> None:
    raise InvariantViolation(
        f"{msg} [partition={payload['record'].partition!r}]")


class InvariantChecker:
    """Stateful observer validating every distributed section it sees."""

    def __init__(self):
        self.sections = 0
        self.crash_sections = 0
        self._cache_seen: dict[int, dict] = {}
        self._reshipped_seen: dict[int, int] = {}

    # Observers are plain callables to the driver.
    def __call__(self, payload: dict) -> None:
        self.check_section(payload)

    def check_section(self, payload: dict) -> None:
        self.sections += 1
        if payload["attempts"] > 1:
            self.crash_sections += 1
        self._check_tiling(payload)
        self._check_indexed(payload)
        self._check_plane(payload)
        self._check_reshipped(payload)
        self._check_placement(payload)
        self._check_halo(payload)

    # -- tiling -------------------------------------------------------------

    def _check_tiling(self, payload: dict) -> None:
        bounds, salvaged = payload["bounds"], payload["salvaged"]
        it = payload["iterator"]
        for rank, block in salvaged:
            if not 0 <= rank < payload["nchunks"]:
                _fail(
                    f"kept block {block} is held by rank {rank}, not one of "
                    f"the final attempt's {payload['nchunks']} ranks",
                    payload,
                )
        # kept blocks and residual blocks together are what must tile
        blocks = list(bounds) + [block for _rank, block in salvaged]
        if payload["partition"].startswith("2d"):
            dom = it.domain
            if salvaged:
                # Residual grids sit inside lost blocks: no cross product.
                self._tile_rects(blocks, dom.h, dom.w, payload)
                return
            # The grid's own rows and columns, in order and with repeats:
            # a grid wider than its domain has several empty intervals.
            _, px = grid_shape(len(bounds), dom.h, dom.w)
            row_ivals = [r for r, _c in bounds[::px]]
            col_ivals = [c for _r, c in bounds[:px]]
            self._tile_axis(row_ivals, dom.h, "row", payload)
            self._tile_axis(col_ivals, dom.w, "col", payload)
            expect = [(r, c) for r in row_ivals for c in col_ivals]
            if list(bounds) != expect:
                _fail(
                    "2d partition is not the row-major cross product of "
                    "its row/col intervals",
                    payload,
                )
        else:
            self._tile_axis(
                sorted(blocks) if salvaged else blocks,
                it.domain.outer_extent, "outer", payload,
            )
        if not salvaged and len(bounds) != payload["nchunks"]:
            _fail(
                f"{len(bounds)} partition bounds for {payload['nchunks']} chunks",
                payload,
            )

    def _tile_rects(self, rects, h: int, w: int, payload: dict) -> None:
        """Rectangles cover ``h x w`` exactly once: inside it, pairwise
        disjoint, areas adding up."""
        solid = [(r, c) for r, c in rects if r[1] > r[0] and c[1] > c[0]]
        for r, c in rects:
            if not (0 <= r[0] <= r[1] <= h and 0 <= c[0] <= c[1] <= w):
                _fail(f"block {(r, c)} escapes the {h}x{w} domain", payload)
        for i, (r, c) in enumerate(solid):
            for r2, c2 in solid[i + 1:]:
                if r[0] < r2[1] and r2[0] < r[1] and c[0] < c2[1] and c2[0] < c[1]:
                    _fail(f"blocks {(r, c)} and {(r2, c2)} overlap", payload)
        area = sum((r[1] - r[0]) * (c[1] - c[0]) for r, c in solid)
        if area != h * w:
            _fail(
                f"kept and residual blocks cover {area} of the {h}x{w} "
                f"domain's {h * w} elements",
                payload,
            )

    def _tile_axis(self, ivals, extent: int, axis: str, payload: dict) -> None:
        prev = 0
        for lo, hi in ivals:
            if lo != prev or hi < lo:
                _fail(
                    f"{axis} intervals do not tile [0, {extent}): "
                    f"got {ivals}",
                    payload,
                )
            prev = hi
        if prev != extent:
            _fail(
                f"{axis} intervals cover [0, {prev}) but the domain "
                f"extent is {extent}",
                payload,
            )

    # -- indexed-stream assembly --------------------------------------------

    def _check_indexed(self, payload: dict) -> None:
        """Indexed partitions conserve ``(index, value)`` pairs.

        When the sectioned iterator is an :class:`IndexedIter`, re-slice
        it at the section's own partition bounds (kept blocks and
        residual blocks alike, in domain order): every slice must hold
        exactly ``hi - lo`` pairs, and the concatenation of the slices'
        key sets must reproduce the unsliced key set -- strictly
        increasing, no pair lost, duplicated, or reordered.  (This is the
        law a non-monotone gather position array breaks.)
        """
        it = payload["iterator"]
        if not isinstance(it, IndexedIter):
            return
        if payload["partition"].startswith("2d"):
            return
        full = it.key_array()
        if len(full) > 1 and not bool(np.all(full[1:] > full[:-1])):
            _fail(
                "indexed stream's key set is not strictly increasing",
                payload,
            )
        pieces = []
        kept = [block for _rank, block in payload["salvaged"]]
        for lo, hi in sorted(list(payload["bounds"]) + kept):
            ks = type(it)(it.idx.slice(lo, hi)).key_array()
            if len(ks) != hi - lo:
                _fail(
                    f"indexed rank slice [{lo}, {hi}) assembles {len(ks)} "
                    f"(index, value) pairs, not {hi - lo}",
                    payload,
                )
            pieces.append(ks)
        assembled = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        if not np.array_equal(assembled, full):
            _fail(
                "indexed partition assembly does not conserve pairs: rank "
                f"slices assemble {assembled.tolist()} but the stream's "
                f"key set is {full.tolist()}",
                payload,
            )

    # -- data-plane conservation --------------------------------------------

    def _check_plane(self, payload: dict) -> None:
        ship = payload["ship"]
        record = payload["record"]
        plane = payload["runtime"].plane
        if ship is None:
            if record.data_plane is not None:
                _fail("section has plane stats but planned no shipment", payload)
            return
        s = record.data_plane
        for key, val in s.items():
            if val < 0:
                _fail(f"negative data-plane counter {key}={val}", payload)
        served = (
            s["resident_hits"]
            + s["placements"]
            + s["migrations"]
            + s["cache_hits"]
            + s["cache_misses"]
        )
        if s["requests"] != served:
            _fail(
                f"plane conservation broken: {s['requests']} chunk "
                f"requests but {served} served "
                f"(resident {s['resident_hits']} + placements "
                f"{s['placements']} + migrations {s['migrations']} + "
                f"cache {s['cache_hits']}h/{s['cache_misses']}m)",
                payload,
            )
        # ... and they are the requests of the chunks that were shipped:
        # one per array a non-root rank of the final attempt reads.
        reqs = getattr(ship, "reqs", None)  # absent from synthetic payloads
        if reqs is not None:
            wanted = sum(len(r) for r in reqs[1:])
            if len(reqs) != payload["nchunks"] or s["requests"] != wanted:
                _fail(
                    f"section planned {s['requests']} requests over "
                    f"{len(reqs)} ranks, but its {payload['nchunks']} "
                    f"ranks' chunks have {wanted} requirements",
                    payload,
                )
        if s["placed_bytes"] > s["input_bytes"]:
            _fail(
                f"placed_bytes {s['placed_bytes']} exceeds input_bytes "
                f"{s['input_bytes']}",
                payload,
            )
        cs = plane.cache_stats()
        prev = self._cache_seen.get(id(plane))
        if prev is not None and payload["attempts"] == 1:
            # Exactly this section's planning advanced the cache counters
            # (re-attempt sections plan twice, so only the clean case is
            # exact).
            for key, skey in (("hits", "cache_hits"), ("misses", "cache_misses")):
                delta = cs[key] - prev[key]
                if delta != s[skey]:
                    _fail(
                        f"slice-cache {key} advanced by {delta} but the "
                        f"section planned {s[skey]}",
                        payload,
                    )
        self._cache_seen[id(plane)] = cs

    # -- halo conservation ----------------------------------------------------

    def _check_halo(self, payload: dict) -> None:
        record = payload["record"]
        s = record.data_plane
        if s is not None:
            served = s.get("halo_hits", 0) + s.get("halo_refreshes", 0)
            if s.get("halo_requests", 0) != served:
                _fail(
                    f"halo conservation broken: {s.get('halo_requests', 0)} "
                    f"ghost requests but {served} served "
                    f"({s.get('halo_hits', 0)} hits + "
                    f"{s.get('halo_refreshes', 0)} refreshes)",
                    payload,
                )
        halo = payload.get("halo")
        if halo is None:
            return
        # Stencil sections: halo bytes are every ghost row on the wire.
        # The first iteration's, shipped with the blocks, stay under the
        # interval-arithmetic ceiling (two clamped radius-row ghosts per
        # destination rank); the rest are what the ranks' exchange
        # schedule says, recomputed here from the bounds alone.
        iterations, row_nbytes = halo["iterations"], halo["row_nbytes"]
        bound = halo_bytes_bound(halo["radius"], payload["nchunks"], row_nbytes)
        exchanged = row_nbytes * exchange_rows(
            payload["bounds"], halo["radius"], halo["extent"], iterations
        )
        if s["exchange_bytes"] != exchanged:
            _fail(
                f"section reports {s['exchange_bytes']} exchanged "
                f"halo bytes, its schedule moves {exchanged}",
                payload,
            )
        if not (0 <= s["halo_bytes"] - exchanged <= bound
                and s["halo_bytes"] <= iterations * bound):
            _fail(
                f"halo bytes {s['halo_bytes']} ({exchanged} exchanged) exceed "
                f"the 2*radius*ranks*rowbytes ceiling {bound} per iteration "
                f"(radius {halo['radius']}, {payload['nchunks']} ranks, "
                f"{iterations} iterations)",
                payload,
            )
        if getattr(record, "metrics", None) is not None:  # synthetic: none
            self._check_halo_wire(payload, s, halo)
        # Ghost placement liveness: every ghost entry the planner tracks
        # must sit inside its handle's bounds, on a live rank, with its
        # bytes actually present in that rank's store (the section's ops
        # have been applied by the time observers run).
        plane = payload["runtime"].plane
        live = payload["survivors"]
        for rank, keys in plane.ghost_map().items():
            if rank < 1 or (payload["attempts"] > 1 and rank >= live):
                _fail(
                    f"ghost placements on rank {rank} outside the live "
                    f"set [1, {live})",
                    payload,
                )
            stored = plane.worker_store(rank).cached_keys()
            for key in keys:
                kaid, lo, hi = key
                handle = plane.handles.get(kaid)
                if handle is not None and not (0 <= lo <= hi <= len(handle)):
                    _fail(
                        f"ghost interval [{lo}, {hi}) escapes handle "
                        f"bounds [0, {len(handle)})",
                        payload,
                    )
                if key not in stored:
                    _fail(
                        f"ghost placement {key} on rank {rank} has no "
                        f"backing bytes in the rank store",
                        payload,
                    )

    def _check_halo_wire(self, payload: dict, s: dict, halo: dict) -> None:
        """The final attempt's ranks sent the ship, the exchange and the
        gather, and nothing else: message counts exact per rank, bytes the
        planned payload plus at most an envelope per message."""
        per_rank = payload["record"].metrics.per_rank
        if any(m.messages_fragmented for m in per_rank):
            return  # a byte cap split messages: counts are the cap's
        bounds, n, steps = payload["bounds"], payload["nchunks"], halo["iterations"] - 1
        planned = s["input_bytes"] + s["halo_bytes"]
        for rank, m in enumerate(per_rank):
            sends, recvs = halo_exchange(
                bounds, rank, halo["radius"], halo["extent"])
            # the root ships n - 1 items and gathers n - 1; the others mirror
            base = n - 1 if rank == 0 else 1
            want = base + steps * len(sends), base + steps * len(recvs)
            if (m.messages_sent, m.messages_received) != want:
                _fail(
                    f"rank {rank} sent/received {m.messages_sent}/"
                    f"{m.messages_received} messages, the sweep's schedule "
                    f"says {want[0]}/{want[1]}",
                    payload,
                )
            if rank:  # its written rows, gathered
                wlo, whi = written_rows(*bounds[rank], halo["radius"], halo["extent"])
                planned += max(0, whi - wlo) * halo["row_nbytes"]
        sent = sum(m.bytes_sent for m in per_rank)
        slack = _ENVELOPE_BYTES * sum(m.messages_sent for m in per_rank)
        if not (planned <= sent <= planned + slack
                and sent == sum(m.bytes_received for m in per_rank)):
            _fail(
                f"ranks sent {sent} bytes (received "
                f"{sum(m.bytes_received for m in per_rank)}); blocks + halos "
                f"+ gathered rows are {planned}, envelopes at most {slack}",
                payload,
            )

    # -- recovery accounting ------------------------------------------------

    def _check_reshipped(self, payload: dict) -> None:
        rt = payload["runtime"]
        cur = rt.recovery_report.reshipped_bytes
        last = self._reshipped_seen.get(id(rt), 0)
        if cur < last:
            _fail(
                f"reshipped_bytes decreased: {last} -> {cur}",
                payload,
            )
        if cur > last:
            rec = payload["record"].recovery
            if payload["attempts"] <= 1 or rec is None or rec.reexecuted_chunks <= 0:
                _fail(
                    "reshipped_bytes grew without a crash re-execution "
                    f"({last} -> {cur})",
                    payload,
                )
        self._reshipped_seen[id(rt)] = cur

    # -- placement liveness -------------------------------------------------

    def _check_placement(self, payload: dict) -> None:
        rt = payload["runtime"]
        plane = rt.plane
        placement = plane.placement_map()
        # After an elastic shrink, survivors keep shards planned by
        # *earlier* sections, so the live set is the surviving rank
        # count, not this section's (possibly extent-limited) chunk
        # count.  Transient crashes invalidate everything, so for them
        # the two bounds agree.
        live = payload["survivors"]
        for (rank, aid), (lo, hi) in placement.items():
            if rank < 1:
                _fail(f"placement references rank {rank} (< 1)", payload)
            if payload["attempts"] > 1 and rank >= live:
                _fail(
                    f"placement references rank {rank} but only ranks "
                    f"[0, {live}) survived the crash",
                    payload,
                )
            handle = plane.handles.get(aid)
            if handle is not None and not (0 <= lo <= hi <= len(handle)):
                _fail(
                    f"resident hull [{lo}, {hi}) escapes handle bounds "
                    f"[0, {len(handle)})",
                    payload,
                )


def check_plane(plane) -> None:
    """Standalone structural audit of a :class:`DataPlane` (callable from
    any test, no observer needed)."""
    for (rank, aid), (lo, hi) in plane.placement_map().items():
        if rank < 1:
            raise InvariantViolation(f"placement references rank {rank}")
        handle = plane.handles.get(aid)
        if handle is not None and not (0 <= lo <= hi <= len(handle)):
            raise InvariantViolation(
                f"hull [{lo}, {hi}) escapes handle [0, {len(handle)})"
            )
        # The mirror is what the rank's store really holds -- also after a
        # shrink that renumbered the survivors of a failed attempt, some
        # of which had not applied their shipping ops when it died.
        try:
            held = plane.worker_store(rank).resident_bounds(aid)
        except KeyError:
            held = None  # no such store at all
        if held != (lo, hi):
            raise InvariantViolation(
                f"placement says rank {rank} holds [{lo}, {hi}) of array "
                f"{aid}, its store holds {held}"
            )
    cs = plane.cache_stats()
    for key, val in cs.items():
        if val < 0:
            raise InvariantViolation(f"negative cache stat {key}={val}")
    totals = plane.totals
    served = (
        totals["resident_hits"]
        + totals["placements"]
        + totals["migrations"]
        + totals["cache_hits"]
        + totals["cache_misses"]
    )
    if totals["requests"] != served:
        raise InvariantViolation(
            f"plane totals conservation broken: requests "
            f"{totals['requests']} != served {served}"
        )
    halo_served = totals.get("halo_hits", 0) + totals.get("halo_refreshes", 0)
    if totals.get("halo_requests", 0) != halo_served:
        raise InvariantViolation(
            f"halo totals conservation broken: halo_requests "
            f"{totals.get('halo_requests', 0)} != served {halo_served}"
        )
    for rank, keys in plane.ghost_map().items():
        stored = plane.worker_store(rank).cached_keys()
        for key in keys:
            kaid, lo, hi = key
            handle = plane.handles.get(kaid)
            if handle is not None and not (0 <= lo <= hi <= len(handle)):
                raise InvariantViolation(
                    f"ghost interval [{lo}, {hi}) escapes handle "
                    f"[0, {len(handle)})"
                )
            if key not in stored:
                raise InvariantViolation(
                    f"ghost placement {key} on rank {rank} has no backing "
                    f"bytes in the rank store"
                )


@contextmanager
def checking():
    """Install a fresh :class:`InvariantChecker` for the dynamic extent."""
    ck = InvariantChecker()
    with observing_sections(ck):
        yield ck
