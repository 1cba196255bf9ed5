"""Deterministic fault injection at the cluster layer (no recovery)."""
import numpy as np
import pytest

from repro.cluster import (
    DelaySpike,
    FaultPlan,
    MachineSpec,
    RankCrash,
    RankFailure,
    RankFailureGroup,
    RankFailureInfo,
    SendFault,
    SlowNode,
    TransientSendError,
    run_spmd,
)

MACHINE = MachineSpec(nodes=4, cores_per_node=2)


def ping(comm):
    """Rank 0 sends to 1, everyone reduces."""
    if comm.rank == 0:
        comm.send(np.arange(100.0), 1, tag=5)
    elif comm.rank == 1:
        comm.recv(0, tag=5)
    return comm.allreduce(comm.rank, op=lambda a, b: a + b)


class TestFaultPlanDeterminism:
    def test_chaos_plan_is_seeded(self):
        a = FaultPlan.chaos(nranks=4, seed=9)
        b = FaultPlan.chaos(nranks=4, seed=9)
        assert a.faults == b.faults
        assert FaultPlan.chaos(nranks=4, seed=10).faults != a.faults

    def test_chaos_never_crashes_rank_zero(self):
        for seed in range(20):
            plan = FaultPlan.chaos(nranks=4, seed=seed)
            assert all(c.rank != 0 for c in plan.crashes())

    def test_same_plan_same_virtual_timeline(self):
        plan = FaultPlan(faults=(DelaySpike(src=0, delay=0.25),))
        makespans = []
        for _ in range(3):
            plan.reset()
            res = run_spmd(MACHINE, ping, nranks=4, faults=plan)
            makespans.append(res.makespan)
        assert makespans[0] == makespans[1] == makespans[2]


class TestDelaySpike:
    def test_delay_inflates_makespan(self):
        base = run_spmd(MACHINE, ping, nranks=4).makespan
        plan = FaultPlan(faults=(DelaySpike(src=0, dst=1, tag=5, delay=0.5),))
        res = run_spmd(MACHINE, ping, nranks=4, faults=plan)
        assert res.makespan == pytest.approx(base + 0.5, rel=1e-6)
        assert res.metrics.fault_counts()["delay"] == 1

    def test_delay_event_traced(self):
        plan = FaultPlan(faults=(DelaySpike(src=0, dst=1, tag=5, delay=0.5),))
        res = run_spmd(MACHINE, ping, nranks=4, faults=plan, trace=True)
        assert len(res.trace.of_kind("delay_spike")) == 1

    def test_count_limits_firings(self):
        def chatty(comm):
            if comm.rank == 0:
                for _ in range(5):
                    comm.send(b"x", 1, tag=5)
            elif comm.rank == 1:
                for _ in range(5):
                    comm.recv(0, tag=5)

        plan = FaultPlan(faults=(DelaySpike(src=0, delay=0.1, count=2),))
        res = run_spmd(MACHINE, chatty, nranks=2, faults=plan)
        assert res.metrics.fault_counts()["delay"] == 2


class TestSendFault:
    def test_unrecovered_send_fault_raises(self):
        plan = FaultPlan(faults=(SendFault(src=0, dst=1, tag=5),))
        with pytest.raises(TransientSendError):
            run_spmd(MACHINE, ping, nranks=4, faults=plan, real_timeout=10.0)

    def test_send_fault_annotates_rank_failures(self):
        plan = FaultPlan(faults=(SendFault(src=0, dst=1, tag=5),))
        with pytest.raises(TransientSendError) as exc_info:
            run_spmd(MACHINE, ping, nranks=4, faults=plan, real_timeout=10.0)
        infos = exc_info.value.rank_failures
        assert len(infos) == 1
        assert isinstance(infos[0], RankFailureInfo)
        assert infos[0].rank == 0
        assert isinstance(exc_info.value.__cause__, RankFailureGroup)


class TestRankCrash:
    def test_crash_kills_the_named_rank(self):
        plan = FaultPlan(faults=(RankCrash(rank=2, at=0.0),))
        with pytest.raises(RankFailure) as exc_info:
            run_spmd(MACHINE, ping, nranks=4, faults=plan, real_timeout=10.0)
        assert exc_info.value.rank == 2
        infos = exc_info.value.rank_failures
        assert [i.rank for i in infos] == [2]
        assert infos[0].vtime >= 0.0

    def test_crash_fires_once_per_spec(self):
        plan = FaultPlan(faults=(RankCrash(rank=1, at=0.0),))
        with pytest.raises(RankFailure):
            run_spmd(MACHINE, ping, nranks=4, faults=plan, real_timeout=10.0)
        plan.reset()
        with pytest.raises(RankFailure):
            run_spmd(MACHINE, ping, nranks=4, faults=plan, real_timeout=10.0)

    def test_crash_traced(self):
        plan = FaultPlan(faults=(RankCrash(rank=1, at=0.0),))
        with pytest.raises(RankFailure):
            run_spmd(
                MACHINE, ping, nranks=4, faults=plan,
                real_timeout=10.0, trace=True,
            )


class TestSlowNode:
    def test_straggler_inflates_compute(self):
        def work(comm):
            comm.compute(0.01)
            return comm.clock.now

        plan = FaultPlan(faults=(SlowNode(node=0, factor=4.0),))
        res = run_spmd(MACHINE, work, nranks=4, ranks_per_node=2, faults=plan)
        base = run_spmd(MACHINE, work, nranks=4, ranks_per_node=2)
        # ranks 0,1 live on node 0 and run 4x slower
        assert res.results[0] == pytest.approx(base.results[0] * 4.0)
        assert res.results[2] == pytest.approx(base.results[2])
        assert res.metrics.fault_counts()["straggler"] == 2


class TestZeroCostWhenDisabled:
    def test_no_plan_means_identical_timeline(self):
        a = run_spmd(MACHINE, ping, nranks=4)
        b = run_spmd(MACHINE, ping, nranks=4, faults=None)
        assert a.makespan == b.makespan
        assert b.recovery is None

    def test_empty_plan_means_identical_timeline(self):
        a = run_spmd(MACHINE, ping, nranks=4)
        b = run_spmd(MACHINE, ping, nranks=4, faults=FaultPlan())
        assert a.makespan == b.makespan
        # a report is attached (all-zero) because a plan was installed
        assert b.recovery is not None
        assert b.recovery.total_faults == 0
