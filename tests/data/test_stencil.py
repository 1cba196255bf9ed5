"""The stencil/halo skeleton: ghost-cell exchange, dirty-halo reship,
and fault recovery, all differential against a sequential sweep."""
import numpy as np
import pytest

from repro.cluster import FaultPlan, MachineSpec, RankCrash, RankLoss
from repro.partition.halo import halo_bytes_bound
from repro.runtime import BudgetExhausted, FailureBudget, triolet_runtime
from repro.testing.invariants import check_plane, checking

pytestmark = [pytest.mark.views, pytest.mark.dataplane]

MACHINE = MachineSpec(nodes=4, cores_per_node=2)


def _relax(xpad):
    return 0.5 * (xpad[:-2] + xpad[2:])


def _relax_r2(xpad):
    return 0.25 * (xpad[:-4] + xpad[1:-3] + xpad[3:-1] + xpad[4:])


def _sequential(init, radius, kernel, iterations):
    x = np.array(init, copy=True)
    n = len(x)
    for _ in range(iterations):
        nxt = x.copy()
        nxt[radius:n - radius] = kernel(x)
        x = nxt
    return x


def _run(init, radius, kernel, iterations, machine=MACHINE, faults=None,
         budget=None):
    with triolet_runtime(machine, faults=faults, budget=budget) as rt:
        h = rt.distribute(np.array(init, copy=True))
        rt.stencil(h, radius=radius, kernel=kernel, iterations=iterations)
        out = np.array(h.array, copy=True)
    return out, rt


def _stencil_sections(rt):
    return [s for s in rt.sections if s.kind == "stencil"]


INIT = (np.arange(512.0) * 7.0) % 23.0


class TestBitIdentity:
    def test_matches_sequential_sweep(self):
        want = _sequential(INIT, 1, _relax, 6)
        got, rt = _run(INIT, 1, _relax, 6)
        assert got.tobytes() == want.tobytes()
        check_plane(rt.plane)

    def test_radius_two(self):
        want = _sequential(INIT, 2, _relax_r2, 4)
        got, rt = _run(INIT, 2, _relax_r2, 4)
        assert got.tobytes() == want.tobytes()

    def test_single_rank_degenerate(self):
        machine = MachineSpec(nodes=1, cores_per_node=2)
        want = _sequential(INIT, 1, _relax, 3)
        got, _rt = _run(INIT, 1, _relax, 3, machine=machine)
        assert got.tobytes() == want.tobytes()

    def test_zero_iterations_is_identity(self):
        got, _rt = _run(INIT, 1, _relax, 0)
        assert got.tobytes() == INIT.tobytes()

    def test_checker_audits_every_iteration(self):
        with checking() as ck:
            _got, rt = _run(INIT, 1, _relax, 5)
        assert ck.sections == 5
        assert len(_stencil_sections(rt)) == 5


class TestHaloTraffic:
    def test_interior_never_reships_after_first_iteration(self):
        """The acceptance bar: from iteration 2 on, only halos travel --
        every later section plans zero placement/cache bytes."""
        _got, rt = _run(INIT, 1, _relax, 6)
        sections = _stencil_sections(rt)
        first, rest = sections[0], sections[1:]
        assert first.data_plane["input_bytes"] > 0
        for s in rest:
            assert s.data_plane["input_bytes"] == 0
            assert s.data_plane["halo_bytes"] > 0  # dirty halos only

    def test_halo_stream_conserves_and_respects_ceiling(self):
        _got, rt = _run(INIT, 2, _relax_r2, 5)
        nranks = MACHINE.nodes
        bound = halo_bytes_bound(2, nranks, INIT.itemsize)
        for s in _stencil_sections(rt):
            dp = s.data_plane
            assert dp["halo_requests"] == dp["halo_hits"] + dp["halo_refreshes"]
            assert dp["halo_bytes"] <= bound
        totals = rt.plane.totals
        assert totals["halo_requests"] == (
            totals["halo_hits"] + totals["halo_refreshes"]
        )

    def test_partition_string_names_the_halo(self):
        _got, rt = _run(INIT, 2, _relax_r2, 1)
        (s,) = _stencil_sections(rt)
        assert "halo r2" in s.partition


class TestRecovery:
    def test_rank_loss_mid_run_is_bit_identical(self):
        want = _sequential(INIT, 1, _relax, 8)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=3),))
        got, rt = _run(INIT, 1, _relax, 8, faults=plan)
        assert got.tobytes() == want.tobytes()
        rep = rt.recovery_report
        assert rep.rank_losses == 1
        assert rep.lineage_replays > 0
        assert rt.plane.shrinks == 1
        check_plane(rt.plane)

    def test_transient_crash_mid_run_is_bit_identical(self):
        want = _sequential(INIT, 1, _relax, 8)
        plan = FaultPlan(faults=(RankCrash(rank=2, at=1e-6, section=2),))
        got, rt = _run(INIT, 1, _relax, 8, faults=plan)
        assert got.tobytes() == want.tobytes()
        assert rt.recovery_report.reexecuted_chunks > 0
        assert rt.plane.shrinks == 0  # transient: no elastic shrink
        check_plane(rt.plane)

    def test_loss_then_steady_state_reships_nothing(self):
        """After the shrink absorbs the loss, later iterations return to
        halo-only traffic on the new, wider blocks."""
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=2),))
        _got, rt = _run(INIT, 1, _relax, 8, faults=plan)
        clean_after = [
            s
            for s in _stencil_sections(rt)[3:]
            if s.recovery is None or s.recovery.attempts == 1
        ]
        assert clean_after, "no clean post-loss iterations recorded"
        for s in clean_after:
            assert s.data_plane["input_bytes"] == 0


@pytest.mark.recovery
class TestBudgets:
    """Sweeps run through the section engine, so the job-level
    ``FailureBudget`` bounds them like any other section."""

    def _dies(self, fault, budget):
        with triolet_runtime(MACHINE, faults=FaultPlan(faults=(fault,)),
                             budget=budget) as rt:
            h = rt.distribute(INIT.copy())
            with pytest.raises(BudgetExhausted):
                rt.stencil(h, radius=1, kernel=_relax, iterations=8)
        assert rt.recovery_report.failure == "budget"
        return rt

    def test_rank_loss_budget_exhaustion(self):
        budget = FailureBudget(max_rank_losses=0)
        rt = self._dies(RankLoss(rank=1, at=1e-6, section=3), budget)
        assert budget.rank_losses_used == 1
        assert len(_stencil_sections(rt)) == 3  # sweeps 0-2 completed

    def test_reexecution_budget_exhaustion(self):
        budget = FailureBudget(max_reexecutions=0)
        self._dies(RankCrash(rank=2, at=1e-6, section=2), budget)
        assert budget.reexecutions_used == 1

    def test_deadline_fires_after_the_sweeps_ledger_entry(self):
        _got, clean = _run(INIT, 1, _relax, 1)
        first = clean.sections[0].makespan
        budget = FailureBudget(deadline=first / 2)
        with triolet_runtime(MACHINE, budget=budget) as rt:
            h = rt.distribute(INIT.copy())
            with pytest.raises(BudgetExhausted):
                rt.stencil(h, radius=1, kernel=_relax, iterations=8)
        assert rt.recovery_report.failure == "budget"
        (only,) = rt.sections  # the killed sweep still accounts
        assert only.kind == "stencil" and only.makespan == first

    def test_sufficient_budget_is_charged_and_bit_identical(self):
        want, _rt = _run(INIT, 1, _relax, 8)
        budget = FailureBudget(max_rank_losses=1)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=3),))
        got, rt = _run(INIT, 1, _relax, 8, faults=plan, budget=budget)
        assert got.tobytes() == want.tobytes()
        assert budget.rank_losses_used == 1
        assert budget.reexecutions_used == 1
        assert rt.recovery_report.failure is None


class TestValidation:
    def test_radius_must_be_positive(self):
        with triolet_runtime(MACHINE) as rt:
            h = rt.distribute(np.arange(32.0))
            with pytest.raises(ValueError, match="radius"):
                rt.stencil(h, radius=0, kernel=_relax, iterations=1)

    def test_iterations_must_be_non_negative(self):
        with triolet_runtime(MACHINE) as rt:
            h = rt.distribute(np.arange(32.0))
            with pytest.raises(ValueError, match="iterations"):
                rt.stencil(h, radius=1, kernel=_relax, iterations=-1)

    def test_kernel_row_count_mismatch_rejected(self):
        def bad_kernel(xpad):
            return xpad  # returns padded width, not the writable window

        with triolet_runtime(MACHINE) as rt:
            h = rt.distribute(np.arange(64.0))
            with pytest.raises(ValueError, match="rows for a"):
                rt.stencil(h, radius=1, kernel=bad_kernel, iterations=1)
