"""Section checkpointing and restart-from-last-checkpoint.

The store is simulated durable (plain driver-side state outside the
machine); what the tests pin down is the contract: admission is policy-
driven, blobs round-trip through the real wire format (bit-identical by
construction, fresh objects on fetch), durable I/O is charged to the
virtual clock, and a restarted job re-runs only the uncheckpointed tail.
"""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import FaultPlan, MachineSpec, RankFailure, RankLoss
from repro.runtime import (
    BudgetExhausted,
    CheckpointConfig,
    CheckpointPolicy,
    CheckpointStore,
    FailureBudget,
    run_restartable,
    triolet_runtime,
)
from repro.testing.kernels import k_double, k_square

pytestmark = pytest.mark.recovery

MACHINE = MachineSpec(nodes=4, cores_per_node=2)
XS = np.arange(2048.0)


def _job(rt):
    h = rt.distribute(XS)
    a = tri.sum(tri.map(k_square, tri.par(h)))
    b = tri.sum(tri.map(k_double, tri.par(h)))
    return a, b


class TestPolicy:
    def test_every_n_gates_admission(self):
        p = CheckpointPolicy(every=2)
        assert p.should(0, 100) and p.should(2, 100)
        assert not p.should(1, 100) and not p.should(3, 100)

    def test_min_bytes_gates_admission(self):
        p = CheckpointPolicy(min_bytes=64)
        assert not p.should(0, 63)
        assert p.should(0, 64)

    def test_io_cost_is_latency_plus_parallel_bytes(self):
        p = CheckpointPolicy(bandwidth=1e6, latency=1e-3)
        assert p.write_seconds(1000, writers=1) == pytest.approx(2e-3)
        # Two writers stream their shares in parallel: byte term halves.
        assert p.write_seconds(1000, writers=2) == pytest.approx(1.5e-3)
        assert p.read_seconds(1000, readers=2) == pytest.approx(1.5e-3)


class TestStore:
    def test_round_trip_is_bit_identical_and_fresh(self):
        store = CheckpointStore()
        value = np.arange(17.0) * np.pi
        nbytes = store.maybe_put("job", 0, value, CheckpointPolicy())
        assert nbytes is not None and nbytes > 0
        got, blob_len = store.fetch("job", 0)
        assert blob_len == nbytes
        assert got.tobytes() == value.tobytes()
        assert got is not value  # a fresh object, never an alias
        again, _ = store.fetch("job", 0)
        assert again is not got

    def test_counters_and_last_seq(self):
        store = CheckpointStore()
        pol = CheckpointPolicy()
        store.maybe_put("job", 0, 1.5, pol)
        store.maybe_put("job", 3, 2.5, pol)
        store.maybe_put("other", 9, 3.5, pol)
        assert store.puts == 3 and len(store) == 3
        assert store.last_seq("job") == 3
        assert store.last_seq("other") == 9
        assert store.last_seq("missing") is None
        store.fetch("job", 0)
        assert store.fetches == 1 and store.bytes_read > 0
        assert store.drop_job("job") == 2
        assert store.last_seq("job") is None

    def test_unserializable_value_is_skipped_not_corrupted(self):
        store = CheckpointStore()
        assert store.maybe_put("job", 0, lambda x: x, CheckpointPolicy()) is None
        assert store.skipped == 1 and len(store) == 0
        assert store.fetch("job", 0) is None

    def test_policy_rejection_counts_as_skip(self):
        store = CheckpointStore()
        assert store.maybe_put("job", 1, 1.0, CheckpointPolicy(every=2)) is None
        assert store.skipped == 1


class TestRestart:
    def _loss_in_second_section(self):
        return FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=1),))

    def test_restart_restores_durable_sections_bit_identically(self):
        with triolet_runtime(MACHINE) as rt0:
            oracle = _job(rt0)

        store = CheckpointStore()
        plan = self._loss_in_second_section()

        def make_rt():
            return triolet_runtime(
                MACHINE, faults=plan, recovery=None,
                checkpoint=CheckpointConfig(store=store, job="t"),
            )

        value, rt, restarts = run_restartable(make_rt, _job)
        assert value == oracle  # bit-identical tuple of scalars
        assert restarts == 1
        rep = rt.recovery_report
        # The restarted run served section 0 from the durable store and
        # executed only the tail past the last checkpoint.
        assert rep.restores == 1 and rep.restored_bytes > 0
        assert rep.checkpoint_time > 0.0
        assert store.puts >= 2 and store.bytes_written > 0

    def test_restart_budget_zero_propagates(self):
        store = CheckpointStore()
        plan = self._loss_in_second_section()

        def make_rt():
            return triolet_runtime(
                MACHINE, faults=plan, recovery=None,
                checkpoint=CheckpointConfig(store=store, job="t"),
            )

        with pytest.raises((RankFailure, RuntimeError)):
            run_restartable(make_rt, _job, max_restarts=0)

    def test_checkpoint_write_cost_shows_on_the_clock(self):
        with triolet_runtime(MACHINE) as plain:
            _job(plain)
        with triolet_runtime(
            MACHINE,
            checkpoint=CheckpointConfig(store=CheckpointStore(), job="t"),
        ) as ck:
            _job(ck)
        # Durability is never free: the same job takes longer with
        # checkpoint writes charged to the virtual clock.
        assert ck.elapsed > plain.elapsed
        assert ck.recovery_report.checkpoints == 2

    def test_a_restored_section_past_the_deadline_kills_the_job(self):
        # Reading a section back is program time like computing it: the
        # job deadline is checked after a restore too.
        machine = MachineSpec(nodes=2, cores_per_node=2)
        config = CheckpointConfig(store=CheckpointStore(), job="d")

        def job(rt):
            return tri.sum(tri.map(k_square, tri.par(XS)))

        with triolet_runtime(machine, checkpoint=config) as rt:
            job(rt)
        with pytest.raises(BudgetExhausted), triolet_runtime(
            machine, checkpoint=config, budget=FailureBudget(deadline=1e-12)
        ) as rt:
            job(rt)
        assert rt.recovery_report.restores == 1
        assert rt.recovery_report.failure == "budget"


def _relax(xpad):
    return 0.5 * (xpad[:-2] + xpad[2:])


FIELD = (np.arange(512.0) * 7.0) % 23.0


class TestStencilCheckpoint:
    """Stencil sweeps are sections of the one engine: checkpointed and
    restored like pipeline sections, under the same sequence keys.  The
    *call* is the checkpoint unit, so a job that wants one every ``c``
    iterations makes ``c``-iteration calls (here mostly ``c = 1``)."""

    def _sweeps(self, rt, calls=8, iterations=1):
        h = rt.distribute(FIELD.copy())
        for _ in range(calls):
            rt.stencil(h, radius=1, kernel=_relax, iterations=iterations)
        return h.array.copy()

    def test_a_call_is_one_checkpoint_whatever_its_depth(self):
        with triolet_runtime(MACHINE) as rt0:
            oracle = self._sweeps(rt0)

        store = CheckpointStore()
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=2),))

        def make_rt():
            return triolet_runtime(
                MACHINE, faults=plan, recovery=None,
                checkpoint=CheckpointConfig(store=store, job="c"),
            )

        value, rt, restarts = run_restartable(
            make_rt, lambda rt: self._sweeps(rt, calls=4, iterations=2))
        assert restarts == 1
        assert value.tobytes() == oracle.tobytes()
        # calls 0-1 (iterations 0-3) came back, 2-3 really ran
        assert rt.recovery_report.restores == 2
        assert rt.recovery_report.checkpoints == 2 and store.puts == 4
        assert len(rt.sections) == 4

    def test_every_sweep_is_checkpointed(self):
        store = CheckpointStore()
        with triolet_runtime(
            MACHINE, checkpoint=CheckpointConfig(store=store, job="s"),
        ) as rt:
            self._sweeps(rt)
        assert rt.recovery_report.checkpoints == 8
        assert store.puts == 8 and store.last_seq("s") == 7

    def test_restart_restores_completed_sweeps_bit_identically(self):
        with triolet_runtime(MACHINE) as rt0:
            oracle = self._sweeps(rt0)

        store = CheckpointStore()
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=5),))

        def make_rt():
            return triolet_runtime(
                MACHINE, faults=plan, recovery=None,
                checkpoint=CheckpointConfig(store=store, job="s"),
            )

        value, rt, restarts = run_restartable(make_rt, self._sweeps)
        assert restarts == 1
        assert value.tobytes() == oracle.tobytes()
        rep = rt.recovery_report
        assert rep.restores == 5 and rep.restored_bytes > 0
        assert rep.checkpoints == 3 and store.puts == 8
        assert [s.kind for s in rt.sections] == ["stencil"] * 8
        # Sweeps 0-4 came back at read cost; 5-7 really executed.
        assert [s.partition == "checkpoint" for s in rt.sections] == (
            [True] * 5 + [False] * 3
        )
        assert all(s.label == "stencil-restore" for s in rt.sections[:5])
        assert all(s.makespan == s.recovery.checkpoint_time
                   for s in rt.sections[:5])
        assert all("halo r1" in s.partition for s in rt.sections[5:])

    def test_mixed_job_keeps_sequence_keys_aligned(self):
        def job(rt):
            h = rt.distribute(FIELD.copy())
            before = tri.sum(tri.map(k_square, tri.par(h)))
            for _ in range(3):
                rt.stencil(h, radius=1, kernel=_relax, iterations=1)
            after = tri.sum(tri.map(k_square, tri.par(h)))
            return before, after, h.array.copy()

        with triolet_runtime(MACHINE) as rt0:
            oracle = job(rt0)

        store = CheckpointStore()
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=4),))

        def make_rt():
            return triolet_runtime(
                MACHINE, faults=plan, recovery=None,
                checkpoint=CheckpointConfig(store=store, job="m"),
            )

        value, rt, restarts = run_restartable(make_rt, job)
        assert restarts == 1
        assert value[:2] == oracle[:2]
        assert value[2].tobytes() == oracle[2].tobytes()
        # One key per distributed section of either kind, in program order.
        assert store.puts == 5 and store.last_seq("m") == 4
        assert rt._dist_seq == 5
        assert rt.recovery_report.restores == 4
        assert [(s.kind, s.partition == "checkpoint") for s in rt.sections] == [
            ("reduce", True), ("stencil", True), ("stencil", True),
            ("stencil", True), ("reduce", False),
        ]
