"""The invariant checker itself: it must accept real sections and reject
synthetically corrupted ones (a checker that can't fail checks nothing)."""
from types import SimpleNamespace

import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import MachineSpec
from repro.data.plane import DataPlane
from repro.runtime import triolet_runtime
from repro.runtime.section import OBSERVED
from repro.serial import register_function
from repro.testing.invariants import (
    InvariantChecker,
    InvariantViolation,
    check_plane,
    checking,
)


@register_function
def _twice(x):
    return 2.0 * x


class TestAcceptsRealSections:
    def test_clean_runs_pass_and_count_sections(self):
        xs = np.arange(200.0)
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=4, cores_per_node=2)):
                tri.sum(tri.map(_twice, tri.par(xs)))
                tri.build(tri.map(_twice, tri.par(xs)))
        assert ck.sections == 2
        assert ck.crash_sections == 0

    def test_handle_sections_pass_plane_checks(self):
        xs = np.arange(300.0)
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=3, cores_per_node=1)) as rt:
                h = rt.distribute(xs)
                tri.sum(tri.par(h))
                tri.sum(tri.par(h))
        assert ck.sections == 2
        check_plane(rt.plane)

    def test_a_grid_wider_than_its_domain_passes(self):
        """3 x 3 on 7 ranks is a 1 x 7 grid: its 7 column intervals repeat
        the empty one, and the law is about the grid's own columns."""
        a = np.arange(3.0)
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=7, cores_per_node=1)) as rt:
                out = tri.build(tri.par(tri.outerproduct(a, a)))
        assert rt.last_section.partition == "2d 1x7"
        assert ck.sections == 1
        assert np.asarray(out).shape == (3, 3, 2)


def _payload(**over):
    """A minimal well-formed 1-D section payload the checker accepts: every
    key the engine sends a pipeline section's observers, and no other."""
    it = tri.par(tri.iterate(np.arange(10.0)))
    base = dict(
        runtime=SimpleNamespace(
            plane=DataPlane(),
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        ),
        record=SimpleNamespace(
            partition="1d x2", data_plane=None, recovery=None
        ),
        iterator=it,
        partition="1d x2",
        bounds=[(0, 5), (5, 10)],
        nchunks=2,
        ship=None,
        spec=None,
        attempts=1,
        dead_ranks=0,
        survivors=2,
        rank_losses=0,
        salvaged=[],
    )
    assert set(base) == {"runtime", "record", "iterator", "spec", *OBSERVED}
    base.update(over)
    return base


class TestRejectsCorruptedSections:
    def test_well_formed_payload_passes(self):
        InvariantChecker()(_payload())

    def test_gap_in_tiling_rejected(self):
        with pytest.raises(InvariantViolation, match="do not tile"):
            InvariantChecker()(_payload(bounds=[(0, 4), (5, 10)]))

    def test_overlap_in_tiling_rejected(self):
        with pytest.raises(InvariantViolation, match="do not tile"):
            InvariantChecker()(_payload(bounds=[(0, 6), (5, 10)]))

    def test_short_coverage_rejected(self):
        with pytest.raises(InvariantViolation, match="extent is 10"):
            InvariantChecker()(_payload(bounds=[(0, 5), (5, 9)]))

    def test_chunk_count_mismatch_rejected(self):
        with pytest.raises(InvariantViolation, match="partition bounds"):
            InvariantChecker()(_payload(nchunks=3))

    def test_2d_grid_out_of_row_major_order_rejected(self):
        it = tri.par(tri.outerproduct(np.arange(4.0), np.arange(6.0)))
        rows, cols = [(0, 2), (2, 4)], [(0, 3), (3, 6)]

        def grid(bounds):
            return _payload(iterator=it, partition="2d 2x2", nchunks=4,
                            bounds=bounds)

        InvariantChecker()(grid([(r, c) for r in rows for c in cols]))
        with pytest.raises(InvariantViolation, match="do not tile|row-major"):
            InvariantChecker()(grid([(r, c) for c in cols for r in rows]))
        with pytest.raises(InvariantViolation, match="row-major"):
            InvariantChecker()(grid([(r, c) for r in rows for c in cols][:3]
                                    + [(rows[1], cols[0])]))
        with pytest.raises(InvariantViolation, match="col intervals do not"):
            InvariantChecker()(grid([(r, c) for r in rows
                                     for c in [(0, 3), (2, 6)]]))

    def test_broken_conservation_rejected(self):
        stats = dict(
            requests=3, resident_hits=1, placements=1, migrations=0,
            cache_hits=0, cache_misses=0, input_bytes=80, placed_bytes=80,
        )
        payload = _payload(
            ship=object(),
            record=SimpleNamespace(
                partition="1d x2", data_plane=stats, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="conservation broken"):
            InvariantChecker()(payload)

    def test_negative_counter_rejected(self):
        stats = dict(
            requests=1, resident_hits=1, placements=0, migrations=0,
            cache_hits=0, cache_misses=0, input_bytes=0, placed_bytes=-8,
        )
        payload = _payload(
            ship=object(),
            record=SimpleNamespace(
                partition="1d x2", data_plane=stats, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="negative"):
            InvariantChecker()(payload)

    def test_plane_stats_without_shipment_rejected(self):
        payload = _payload(
            record=SimpleNamespace(
                partition="1d x2", data_plane={"requests": 0}, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="planned no shipment"):
            InvariantChecker()(payload)

    def test_reshipped_growth_without_crash_rejected(self):
        ck = InvariantChecker()
        rt = SimpleNamespace(
            plane=DataPlane(),
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        )
        ck(_payload(runtime=rt))
        rt.recovery_report.reshipped_bytes = 4096  # grew, but attempts == 1
        with pytest.raises(InvariantViolation, match="without a crash"):
            ck(_payload(runtime=rt))

    def test_reshipped_decrease_rejected(self):
        ck = InvariantChecker()
        rt = SimpleNamespace(
            plane=DataPlane(),
            recovery_report=SimpleNamespace(reshipped_bytes=100),
        )
        ck(
            _payload(
                runtime=rt,
                attempts=2,
                record=SimpleNamespace(
                    partition="1d x2",
                    data_plane=None,
                    recovery=SimpleNamespace(reexecuted_chunks=2),
                ),
            )
        )
        rt.recovery_report.reshipped_bytes = 50
        with pytest.raises(InvariantViolation, match="decreased"):
            ck(_payload(runtime=rt))

    def test_placement_on_dead_rank_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._placement[(3, h.array_id)] = (0, 10)
        rt = SimpleNamespace(
            plane=plane,
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        )
        # After a crash only chunk ranks [0, 2) survive; rank 3 is dead.
        payload = _payload(
            runtime=rt,
            attempts=2,
            record=SimpleNamespace(
                partition="1d x2",
                data_plane=None,
                recovery=SimpleNamespace(reexecuted_chunks=1),
            ),
        )
        with pytest.raises(InvariantViolation, match="survived the crash"):
            InvariantChecker()(payload)

    def test_hull_outside_handle_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._placement[(1, h.array_id)] = (0, 99)
        with pytest.raises(InvariantViolation, match="escapes handle"):
            check_plane(plane)

    def test_placement_mirror_must_be_what_the_store_holds(self):
        with triolet_runtime(MachineSpec(nodes=3, cores_per_node=1)) as rt:
            h = rt.distribute(np.arange(300.0))
            tri.sum(tri.par(h))
        check_plane(rt.plane)
        rt.plane._placement[(1, h.array_id)] = (100, 250)  # store: [100, 200)
        with pytest.raises(InvariantViolation, match="its store holds"):
            check_plane(rt.plane)
        rt.plane._placement[(7, h.array_id)] = (0, 10)  # no such store
        del rt.plane._placement[(1, h.array_id)]
        with pytest.raises(InvariantViolation, match="store holds None"):
            check_plane(rt.plane)


class TestSalvagedSections:
    """After a failed attempt the tiling law is about the union: kept
    blocks and the final attempt's residual blocks cover the domain
    exactly once, and live ranks hold the kept ones."""

    def _salvaged(self, **over):
        # rank 1 of 3 died: ranks 0 and 2 (now 1) kept their blocks, and
        # the lost block [3, 7) was split over the two survivors
        base = dict(
            attempts=2, dead_ranks=1, survivors=2, partition="1d x2 +2 kept",
            bounds=[(3, 5), (5, 7)], salvaged=[(0, (0, 3)), (1, (7, 10))],
        )
        base.update(over)
        return _payload(**base)

    def test_kept_and_residual_blocks_tile_together(self):
        InvariantChecker()(self._salvaged())

    def test_real_salvaged_sections_pass(self):
        from repro.cluster import FaultPlan, RankLoss

        u, v = np.arange(6.0), np.arange(5.0)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=0.0, section=0),
                                 RankLoss(rank=2, at=0.0, section=1)))
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=4, cores_per_node=2),
                                 faults=plan) as rt:
                tri.sum(tri.map(_twice, tri.par(rt.distribute(np.arange(99.0)))))
                tri.build(tri.par(tri.outerproduct(u, v)))
        assert ck.crash_sections == 2
        assert [s.recovery.salvaged_chunks for s in rt.sections] == [3, 2]
        check_plane(rt.plane)

    def test_residual_blocks_alone_do_not_cover_the_domain(self):
        with pytest.raises(InvariantViolation, match="do not tile"):
            InvariantChecker()(self._salvaged(salvaged=[]))

    def test_a_block_both_kept_and_recomputed_rejected(self):
        with pytest.raises(InvariantViolation, match="do not tile"):
            InvariantChecker()(self._salvaged(
                salvaged=[(0, (0, 3)), (1, (5, 10))]))

    def test_a_block_kept_by_no_live_rank_rejected(self):
        with pytest.raises(InvariantViolation, match="held by rank 2"):
            InvariantChecker()(self._salvaged(
                salvaged=[(0, (0, 3)), (2, (7, 10))]))

    def test_2d_union_checks_overlap_and_area(self):
        it = tri.par(tri.outerproduct(np.arange(4.0), np.arange(6.0)))
        grid = dict(
            iterator=it, partition="2d 1x2 +2 kept", nchunks=2,
            record=SimpleNamespace(partition="2d 1x2 +2 kept",
                                   data_plane=None, recovery=None),
            # the lost block rows [2, 4) x cols [0, 3), split in two
            bounds=[((2, 4), (0, 1)), ((2, 4), (1, 3))],
        )
        kept = [(0, ((0, 2), (0, 3))), (0, ((0, 2), (3, 6))),
                (1, ((2, 4), (3, 6)))]
        InvariantChecker()(self._salvaged(**grid, salvaged=kept))
        with pytest.raises(InvariantViolation, match="cover 18 of"):
            InvariantChecker()(self._salvaged(**grid, salvaged=kept[1:]))
        with pytest.raises(InvariantViolation, match="overlap"):
            InvariantChecker()(self._salvaged(
                **grid, salvaged=kept + [(1, ((1, 3), (2, 4)))]))


@pytest.mark.sparse
class TestIndexedAssembly:
    """The indexed-partition conservation law: rank slices of an
    ``IndexedIter`` must reassemble its ``(index, value)`` pairs exactly.
    Seeded violations -- duplicate keys, a non-monotone key gather, and a
    pair-dropping slice -- must each be rejected."""

    @staticmethod
    def _stream():
        from repro.core.iterators.indexed import indexed_pairs

        keys = np.arange(0, 20, 2, dtype=np.int64)
        vals = np.arange(10, dtype=np.float64)
        return indexed_pairs(keys, vals)

    def test_real_indexed_sections_pass(self):
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=3, cores_per_node=2)):
                tri.build(tri.par(self._stream()))
        assert ck.sections == 1

    def test_duplicate_keys_rejected(self):
        from repro.core.encodings.indexer import array_indexer, zip_idx
        from repro.core.iterators.indexed import IndexedIter

        # Constructed behind indexed_pairs' back: the canonicalization
        # that would dedup [3, 3, 7] never ran.
        bad = IndexedIter(
            zip_idx(
                array_indexer(np.array([3, 3, 7], dtype=np.int64)),
                array_indexer(np.array([1.0, 2.0, 3.0])),
            )
        )
        payload = _payload(iterator=bad, bounds=[(0, 2), (2, 3)])
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            InvariantChecker()(payload)

    def test_nonmonotone_key_gather_rejected(self):
        from repro.core.encodings.indexer import (
            array_indexer,
            gather_idx,
            zip_idx,
        )
        from repro.core.iterators.indexed import IndexedIter

        # A gather with out-of-order positions reads keys [9, 3]: the
        # stream's own ordering contract is broken before any slicing.
        key = gather_idx(
            array_indexer(np.array([3, 9], dtype=np.int64)),
            np.array([1, 0], dtype=np.int64),
        )
        bad = IndexedIter(zip_idx(key, array_indexer(np.array([1.0, 2.0]))))
        payload = _payload(iterator=bad, bounds=[(0, 1), (1, 2)])
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            InvariantChecker()(payload)

    def test_pair_dropping_slice_rejected(self):
        from repro.core.encodings.indexer import Idx
        from repro.core.iterators.indexed import IndexedIter

        class _LossyIdx(Idx):
            """Drops the last pair of every slice window."""

            def slice(self, lo, hi):
                return super().slice(lo, max(lo, hi - 1))

        good = self._stream().idx
        bad = IndexedIter(_LossyIdx(good.domain, good.extract, good.source))
        payload = _payload(iterator=bad, bounds=[(0, 5), (5, 10)])
        with pytest.raises(InvariantViolation, match="pairs, not"):
            InvariantChecker()(payload)


def _halo_stats(**over):
    stats = dict(
        requests=0, resident_hits=0, placements=0, migrations=0,
        cache_hits=0, cache_misses=0, input_bytes=0, placed_bytes=0,
        halo_requests=0, halo_hits=0, halo_refreshes=0, halo_bytes=0,
        exchange_bytes=0,
    )
    stats.update(over)
    return stats


@pytest.mark.views
class TestRejectsCorruptedHalos:
    """Seeded violations of the halo rules -- each law must actually fire."""

    def test_stencil_sections_pass_the_checker(self):
        from repro.cluster import FaultPlan, RankLoss

        init = (np.arange(128.0) % 10).copy()
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=2),))
        with checking() as ck:
            with triolet_runtime(
                MachineSpec(nodes=4, cores_per_node=2), faults=plan
            ) as rt:
                h = rt.distribute(init)
                for iterations in (1, 1, 1, 4):  # the loss: in the third call
                    rt.stencil(
                        h, radius=1,
                        kernel=lambda x: 0.5 * (x[:-2] + x[2:]),
                        iterations=iterations,
                    )
        assert ck.sections == 4
        assert ck.crash_sections == 1
        check_plane(rt.plane)

    def _observed_sweep(self, iterations=3):
        """The observer payload of one clean sweep on 3 ranks."""
        from repro.runtime import observing_sections

        seen = []
        with observing_sections(seen.append), triolet_runtime(
            MachineSpec(nodes=3, cores_per_node=1)
        ) as rt:
            rt.stencil(
                rt.distribute(np.arange(4800.0) % 7), radius=1,
                kernel=lambda x: 0.5 * (x[:-2] + x[2:]), iterations=iterations,
            )
        (payload,) = seen
        InvariantChecker()(payload)  # as observed: clean
        return payload

    def test_exchange_bytes_off_the_schedule_rejected(self):
        payload = self._observed_sweep()
        stats = payload["record"].data_plane
        # 2 boundaries x 2 directions x 8 bytes x 2 exchanges, + 3 first ghosts
        assert (stats["exchange_bytes"], stats["halo_bytes"]) == (64, 64 + 24)
        stats["exchange_bytes"] += 8
        with pytest.raises(InvariantViolation, match="its schedule moves 64"):
            InvariantChecker()(payload)

    def test_a_message_the_schedule_does_not_know_rejected(self):
        payload = self._observed_sweep()
        payload["record"].metrics.per_rank[1].messages_sent += 1
        with pytest.raises(InvariantViolation, match="rank 1 sent/received"):
            InvariantChecker()(payload)

    def test_blocks_on_the_wire_where_ghost_rows_were_planned_rejected(self):
        payload = self._observed_sweep()
        for m in payload["record"].metrics.per_rank[:2]:
            m.bytes_sent += 1600 * 8 * 2  # a block per exchange, not a row
            m.bytes_received += 1600 * 8 * 2
        with pytest.raises(InvariantViolation, match="ranks sent"):
            InvariantChecker()(payload)

    def test_halo_conservation_broken_rejected(self):
        stats = _halo_stats(halo_requests=2, halo_hits=1)
        payload = _payload(
            ship=object(),
            record=SimpleNamespace(
                partition="1d x2 halo r1", data_plane=stats, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="halo conservation"):
            InvariantChecker()(payload)

    def test_halo_bytes_over_ceiling_rejected(self):
        # bound = 2 * radius * nchunks * row_nbytes = 2*1*2*8 = 32 bytes.
        stats = _halo_stats(
            halo_requests=1, halo_refreshes=1, halo_bytes=1000
        )
        payload = _payload(
            ship=object(),
            record=SimpleNamespace(
                partition="1d x2 halo r1", data_plane=stats, recovery=None
            ),
            halo={"aid": 0, "radius": 1, "row_nbytes": 8, "extent": 10,
                  "iterations": 1},
        )
        with pytest.raises(InvariantViolation, match="ceiling"):
            InvariantChecker()(payload)

    def test_ghost_on_dead_rank_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._ensure_rank(3)
        plane._caches[3].put(h.array_id, 4, 5, 8, ghost=True)
        rt = SimpleNamespace(
            plane=plane,
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        )
        # Only chunk ranks [0, 2) survived this crash section.
        payload = _payload(
            runtime=rt,
            attempts=2,
            ship=object(),
            record=SimpleNamespace(
                partition="1d x2 halo r1",
                data_plane=_halo_stats(),
                recovery=SimpleNamespace(reexecuted_chunks=1),
            ),
            halo={"aid": h.array_id, "radius": 1, "row_nbytes": 8,
                  "extent": 10, "iterations": 1},
        )
        with pytest.raises(InvariantViolation, match="outside the live"):
            InvariantChecker()(payload)

    def test_ghost_without_backing_bytes_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._ensure_rank(1)
        plane._caches[1].put(h.array_id, 0, 2, 16, ghost=True)
        with pytest.raises(InvariantViolation, match="no backing bytes"):
            check_plane(plane)

    def test_ghost_escaping_handle_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._ensure_rank(1)
        plane._caches[1].put(h.array_id, 8, 99, 728, ghost=True)
        with pytest.raises(InvariantViolation, match="escapes handle"):
            check_plane(plane)

    def test_halo_totals_conservation_rejected(self):
        plane = DataPlane()
        plane.totals["halo_requests"] = 3
        plane.totals["halo_hits"] = 1
        with pytest.raises(InvariantViolation, match="halo totals"):
            check_plane(plane)
