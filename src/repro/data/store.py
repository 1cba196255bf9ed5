"""Per-rank resident shard stores and the plane's slice cache.

A :class:`RankStore` is the worker side of the data plane: it holds, per
handle, one contiguous *resident* row interval (the rank's shard, grown
by replication or boundary migration) plus cached slices for sections
whose work partition doesn't line up with the data partition.  Stores
mutate only by applying explicit shipping operations planned on the main
rank, so their contents are always exactly what the placement metadata
says they are.

:class:`SliceCache` is the main rank's *policy* object: a byte-bounded
LRU over (array, lo, hi) keys with hit/miss/evict counters.  It tracks
metadata only -- the bytes live in the rank stores -- which keeps cache
decisions on the planning side where they can be made before any data
moves.
"""
from __future__ import annotations

import struct
from collections import OrderedDict

import numpy as np

from repro.data.handle import MissingShardError

#: Default per-rank cache budget for partially-overlapping slices.
DEFAULT_CACHE_BYTES = 4 << 20

# Shipping operations (serializable tuples):
#   ("resident", aid, lo, hi, pieces)  -- make [lo, hi) the resident shard
#   ("cache",    aid, lo, hi, pieces)  -- add [lo, hi) as a cached slice
#   ("evict",    aid, lo, hi)          -- drop a cached slice
# where pieces = [(plo, phi, ndarray), ...] are the rows actually shipped;
# rows already present locally are reused instead of re-shipped.
#
# On the wire the array id travels as 8 fixed bytes (see aid_wire): ids
# grow for the life of the process, and a varint id would make a
# section's message size -- and so its virtual wire time -- depend on how
# many handles earlier, unrelated runs created.


def aid_wire(aid: int) -> bytes:
    """Fixed-width wire form of an array id."""
    return struct.pack("<Q", aid)


def _aid_of(x) -> int:
    if isinstance(x, (bytes, memoryview)):
        return struct.unpack("<Q", x)[0]
    if isinstance(x, int):
        return x
    return x.array_id  # a DistArray handle


class SliceCache:
    """Byte-bounded LRU of cached slice intervals (metadata only)."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple[int, int, int], int] = OrderedDict()
        # Ghost (halo) entries: stencil ghost intervals live in the same
        # byte budget but outside the hit/miss accounting -- halo traffic
        # has its own conservation law (halo_requests == halo_hits +
        # halo_refreshes) and must not perturb the slice-cache delta
        # check at section boundaries.
        self._ghost: set[tuple[int, int, int]] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def bytes_used(self) -> int:
        return sum(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, aid: int, lo: int, hi: int) -> tuple[int, int, int] | None:
        """A cached entry containing ``[lo, hi)`` of *aid*, or None.

        A hit refreshes the entry's LRU position.  Ghost entries are
        invisible here: they are halo placements, not slice-cache state,
        and must not turn a genuine miss into a hit behind the halo
        accounting's back.
        """
        for key in self._entries:
            kaid, klo, khi = key
            if kaid == aid and klo <= lo and hi <= khi and key not in self._ghost:
                self._entries.move_to_end(key)
                self.hits += 1
                return key
        self.misses += 1
        return None

    def contains(self, aid: int, lo: int, hi: int) -> bool:
        """Non-counting containment probe (ghost entries included).

        The stencil planner asks "is this ghost interval still fresh?"
        without charging a hit or a miss -- halo traffic has its own
        counters.
        """
        return any(
            kaid == aid and klo <= lo and hi <= khi
            for kaid, klo, khi in self._entries
        )

    def put(self, aid: int, lo: int, hi: int,
            nbytes: int, ghost: bool = False) -> list[tuple[int, int, int]]:
        """Admit ``[lo, hi)`` and return the entries evicted to fit it.

        An entry larger than the whole budget is still admitted (the
        section needs the data regardless); it simply evicts everything
        else and is the next to go.  ``ghost=True`` flags the entry as a
        halo placement (see :meth:`lookup`).
        """
        key = (aid, lo, hi)
        self._entries[key] = nbytes
        self._entries.move_to_end(key)
        if ghost:
            self._ghost.add(key)
        else:
            self._ghost.discard(key)
        evicted = []
        while self.bytes_used > self.max_bytes and len(self._entries) > 1:
            old, _ = self._entries.popitem(last=False)
            if old == key:  # never evict what we just admitted
                self._entries[key] = nbytes
                continue
            self.evictions += 1
            self._ghost.discard(old)
            evicted.append(old)
        return evicted

    def drop(self, key: tuple[int, int, int]) -> bool:
        """Silently forget one entry (ghost invalidation on writes);
        no eviction is counted -- the entry was not displaced by
        capacity pressure but by the row contents changing."""
        self._ghost.discard(key)
        return self._entries.pop(key, None) is not None

    def ghost_keys(self) -> set[tuple[int, int, int]]:
        return set(self._ghost)

    def keys(self) -> list[tuple[int, int, int]]:
        """All entry keys, LRU order (write-invalidation scans)."""
        return list(self._entries)

    def invalidate(self, aid: int | None = None) -> int:
        """Drop entries (all, or one array's); returns how many."""
        if aid is None:
            n = len(self._entries)
            self._entries.clear()
            self._ghost.clear()
            return n
        victims = [k for k in self._entries if k[0] == aid]
        for k in victims:
            del self._entries[k]
            self._ghost.discard(k)
        return len(victims)

    def keep_only(self, keys) -> int:
        """Drop every entry not in *keys* (post-crash reconciliation
        against a store's actual contents); returns how many dropped.

        Ghost entries are dropped even when their bytes survived in the
        store: a shrink renumbers ranks and re-blocks the partition, so
        every ghost interval is keyed to dead geometry -- keeping one
        would leave orphan halo metadata that the planner's ghost map no
        longer tracks (and that a renumbered store could serve stale).
        """
        victims = [
            k for k in self._entries if k not in keys or k in self._ghost
        ]
        for k in victims:
            del self._entries[k]
            self._ghost.discard(k)
        return len(victims)


class RankStore:
    """One rank's resident shards and cached slices."""

    def __init__(self, rank: int):
        self.rank = rank
        # aid -> (lo, hi, rows buffer) -- one contiguous hull per array.
        self._resident: dict[int, tuple[int, int, np.ndarray]] = {}
        # (aid, lo, hi) -> rows buffer.
        self._cached: dict[tuple[int, int, int], np.ndarray] = {}
        #: mutations so far: two copies that applied the same ops agree
        self.version = 0

    # -- reads --------------------------------------------------------------
    def resident_bounds(self, aid: int) -> tuple[int, int] | None:
        ent = self._resident.get(aid)
        return (ent[0], ent[1]) if ent is not None else None

    def cached_keys(self) -> set[tuple[int, int, int]]:
        return set(self._cached)

    def view(self, aid: int, lo: int, hi: int) -> np.ndarray:
        """A zero-copy view of rows ``[lo, hi)`` from local data."""
        ent = self._resident.get(aid)
        if ent is not None and ent[0] <= lo and hi <= ent[1]:
            return ent[2][lo - ent[0]:hi - ent[0]]
        for (kaid, klo, khi), buf in self._cached.items():
            if kaid == aid and klo <= lo and hi <= khi:
                return buf[lo - klo:hi - klo]
        raise MissingShardError(
            f"rank {self.rank}: rows [{lo}, {hi}) of array {aid} are neither "
            f"resident nor cached"
        )

    # -- writes (shipping ops only) ----------------------------------------
    def apply(self, ops: list) -> None:
        self.version += 1
        for op in ops:
            kind, aid = op[0], _aid_of(op[1])
            if kind == "resident":
                _, _, lo, hi, pieces = op
                self._resident[aid] = (lo, hi, self._assemble(aid, lo, hi, pieces))
            elif kind == "cache":
                _, _, lo, hi, pieces = op
                self._cached[(aid, lo, hi)] = self._assemble(aid, lo, hi, pieces)
            elif kind == "evict":
                _, _, lo, hi = op
                self._cached.pop((aid, lo, hi), None)
            else:
                raise ValueError(f"unknown shipping op: {kind!r}")

    def _assemble(self, aid: int, lo: int, hi: int, pieces: list) -> np.ndarray:
        """Build the rows ``[lo, hi)`` from shipped pieces plus whatever
        already-resident rows overlap the interval."""
        old = self._resident.get(aid)
        if not pieces and old is None:
            raise MissingShardError(
                f"rank {self.rank}: cannot assemble [{lo}, {hi}) of array "
                f"{aid} from nothing"
            )
        proto = pieces[0][2] if pieces else old[2]
        buf = np.empty((hi - lo,) + proto.shape[1:], dtype=proto.dtype)
        if old is not None:  # the old rows that no piece replaces
            olo, ohi, obuf = old
            at, end = max(lo, olo), min(hi, ohi)
            for plo, phi in sorted([p[:2] for p in pieces]) + [(end, end)]:
                if at < min(plo, end):
                    buf[at - lo:min(plo, end) - lo] = obuf[at - olo:min(plo, end) - olo]
                at = max(at, phi)
        for plo, phi, rows in pieces:
            buf[plo - lo:phi - lo] = rows
        return buf

    def drop_cached(self, key: tuple[int, int, int]) -> bool:
        """Forget one cached slice's bytes (ghost invalidation)."""
        self.version += 1
        return self._cached.pop(key, None) is not None

    def invalidate(self, aid: int | None = None) -> None:
        self.version += 1
        if aid is None:
            self._resident.clear()
            self._cached.clear()
        else:
            self._resident.pop(aid, None)
            for k in [k for k in self._cached if k[0] == aid]:
                del self._cached[k]

    def clear(self) -> None:
        self.invalidate()
