"""Lost-shard log for selective recovery of DistArray handles.

When a rank is lost permanently, the planner knows exactly which shard
intervals died; the next section re-ships only those intervals from the
master copy (the *lineage replay*) instead of invalidating and
re-shipping every rank's placement, which is what the transient-crash
path does.  The replayed rows are counted apart from ordinary placement
traffic (``lineage_replays`` / ``replayed_bytes`` in the plane's section
stats) so benchmarks can compare lineage recovery against full
re-materialization byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LostShard:
    """One shard interval that died with a permanently lost rank."""

    aid: int
    rank: int
    lo: int
    hi: int


class LineageLog:
    """Per-plane list of shards waiting to be re-materialized.

    :meth:`mark_lost` is the shrink-recovery hook the plane calls when a
    permanent loss strands shards; :meth:`pending` tells the next
    section's planner which handles to replay, and :meth:`settle` clears
    the list once that section is planned.
    """

    def __init__(self):
        self.lost: list[LostShard] = []

    def mark_lost(self, aid: int, rank: int, lo: int, hi: int) -> None:
        if hi > lo:
            self.lost.append(LostShard(aid=aid, rank=rank, lo=lo, hi=hi))

    def pending(self) -> set[int]:
        """Handle ids with shards still waiting to be re-materialized."""
        return {s.aid for s in self.lost}

    def settle(self) -> None:
        """The next section has been planned; anything still marked lost
        will re-materialize through ordinary placement when touched."""
        self.lost.clear()
