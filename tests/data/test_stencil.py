"""The stencil/halo skeleton: one section per ``rt.stencil`` call -- the
ranks exchange ghost rows between its iterations, the root gathers once --
dirty-halo reship between calls, and fault recovery, all differential
against a sequential sweep.

A call is the unit of commit, recovery, budget and checkpoint.  Tests
about the *per-iteration* unit (one commit per iteration, a fault gated
to the n-th sweep) make ``calls`` one-iteration calls and keep the
numbers they had when every iteration was a section of its own."""
import time

import numpy as np
import pytest

from repro.cluster import FaultPlan, MachineSpec, RankCrash, RankLoss
from repro.obs import capture
from repro.partition.halo import exchange_rows, halo_bytes_bound
from repro.partition import block_bounds
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
         budget=None, calls=1):
    with triolet_runtime(machine, faults=faults, budget=budget) as rt:
        h = rt.distribute(np.array(init, copy=True))
        for _ in range(calls):
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
        got, rt = _run(INIT, 1, _relax, 0)
        assert got.tobytes() == INIT.tobytes()
        assert rt.sections == []  # and runs no section

    def test_checker_audits_every_iteration(self):
        """One section per call, whatever its depth, each one audited."""
        with checking() as ck:
            _got, rt = _run(INIT, 1, _relax, 5)
        assert ck.sections == 1
        assert len(_stencil_sections(rt)) == 1
        with checking() as ck:
            got, rt = _run(INIT, 1, _relax, 1, calls=5)
        assert ck.sections == 5
        assert len(_stencil_sections(rt)) == 5
        assert got.tobytes() == _got.tobytes()

    @pytest.mark.parametrize("ranks", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_k_iterations_equal_k_sequential_sweeps(self, ranks, radius):
        """Every extent (blocks narrower than the radius included) and
        depth, under the checker: bit for bit the sequential sweep, one
        section, and a one-iteration sweep posts no exchange message."""
        machine = MachineSpec(nodes=ranks, cores_per_node=1)

        def kernel(x):
            m = len(x) - 2 * radius
            return sum((j + 1) * 0.1 * x[j:j + m] for j in range(2 * radius + 1))

        for n in (1, 2, 5, 9, 16, 33):
            init = np.random.default_rng(n).random(n)
            for k in (0, 1, 2, 5):
                want = init if n <= 2 * radius else _sequential(
                    init, radius, kernel, k)
                with checking():
                    got, rt = _run(init, radius, kernel, k, machine=machine)
                assert got.tobytes() == want.tobytes(), (n, k)
                assert len(rt.sections) == (1 if k else 0)
                if k == 1:
                    nranks = rt.sections[0].nodes
                    assert rt.sections[0].messages == 2 * (nranks - 1)


class TestHaloTraffic:
    def test_interior_never_reships_after_first_iteration(self):
        """The acceptance bar: from the second call on, only halos travel
        -- every later section plans zero placement/cache bytes."""
        _got, rt = _run(INIT, 1, _relax, 1, calls=6)
        sections = _stencil_sections(rt)
        first, rest = sections[0], sections[1:]
        assert first.data_plane["input_bytes"] > 0
        assert len(rest) == 5
        for s in rest:
            assert s.data_plane["input_bytes"] == 0
            assert s.data_plane["halo_bytes"] > 0  # dirty halos only
            assert s.data_plane["exchange_bytes"] == 0  # nothing rank to rank

    def test_a_sweep_ships_its_blocks_once_and_exchanges_the_rest(self):
        """Inside a call no interior row travels at all: the section's
        halo bytes are the first ghosts the plan ships plus what the
        ranks hand each other in ``iterations - 1`` supersteps, and a
        second call finds every block resident."""
        _got, rt = _run(INIT, 1, _relax, 6, calls=2)
        first, second = (s.data_plane for s in _stencil_sections(rt))
        row = INIT.itemsize
        bounds = block_bounds(len(INIT), MACHINE.nodes)
        exchanged = exchange_rows(bounds, 1, len(INIT), 6) * row
        assert exchanged == 5 * 6 * row  # 3 interior boundaries, both ways
        assert first["input_bytes"] == (len(INIT) - bounds[0][1]) * row
        assert first["exchange_bytes"] == second["exchange_bytes"] == exchanged
        # ranks 1 and 2 get two first ghosts each, rank 3 one
        assert first["halo_bytes"] == exchanged + 5 * row
        assert second["input_bytes"] == 0
        assert second["halo_bytes"] == exchanged + 5 * row  # all dirty again
        assert rt.plane.totals["halo_bytes"] == 2 * (exchanged + 5 * row)

    def test_halo_stream_conserves_and_respects_ceiling(self):
        nranks = MACHINE.nodes
        bound = halo_bytes_bound(2, nranks, INIT.itemsize)
        for iterations, calls in ((1, 5), (5, 1)):
            _got, rt = _run(INIT, 2, _relax_r2, iterations, calls=calls)
            assert len(_stencil_sections(rt)) == calls
            for s in _stencil_sections(rt):
                dp = s.data_plane
                assert dp["halo_requests"] == (
                    dp["halo_hits"] + dp["halo_refreshes"])
                assert dp["halo_bytes"] <= iterations * bound
                assert dp["halo_bytes"] - dp["exchange_bytes"] <= bound
            totals = rt.plane.totals
            assert totals["halo_requests"] == (
                totals["halo_hits"] + totals["halo_refreshes"]
            )

    def test_single_rank_ships_no_halo(self):
        """One rank has no neighbour: no call, first or steady, moves a
        ghost row or any other byte."""
        machine = MachineSpec(nodes=1, cores_per_node=2)
        _got, rt = _run(INIT, 1, _relax, 3, machine=machine, calls=2)
        sections = _stencil_sections(rt)
        assert len(sections) == 2
        for s in sections:
            assert s.bytes_shipped == s.data_plane["halo_bytes"] == 0
            assert s.data_plane["halo_refreshes"] == 0

    def test_partition_string_names_the_halo(self):
        _got, rt = _run(INIT, 2, _relax_r2, 1)
        (s,) = _stencil_sections(rt)
        assert "halo r2" in s.partition


class TestRecovery:
    """A fault gated to the n-th *call* (``section=n``): the per-iteration
    unit, eight one-iteration calls."""

    def test_rank_loss_mid_run_is_bit_identical(self):
        want = _sequential(INIT, 1, _relax, 8)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=3),))
        got, rt = _run(INIT, 1, _relax, 1, faults=plan, calls=8)
        assert got.tobytes() == want.tobytes()
        rep = rt.recovery_report
        assert rep.rank_losses == 1
        assert rep.lineage_replays > 0
        assert rt.plane.shrinks == 1
        check_plane(rt.plane)

    def test_transient_crash_mid_run_is_bit_identical(self):
        want = _sequential(INIT, 1, _relax, 8)
        plan = FaultPlan(faults=(RankCrash(rank=2, at=1e-6, section=2),))
        got, rt = _run(INIT, 1, _relax, 1, faults=plan, calls=8)
        assert got.tobytes() == want.tobytes()
        assert rt.recovery_report.reexecuted_chunks > 0
        assert rt.plane.shrinks == 0  # transient: no elastic shrink
        check_plane(rt.plane)

    def test_loss_then_steady_state_reships_nothing(self):
        """After the shrink absorbs the loss, later calls return to
        halo-only traffic on the new, wider blocks."""
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=2),))
        _got, rt = _run(INIT, 1, _relax, 1, faults=plan, calls=8)
        clean_after = [
            s
            for s in _stencil_sections(rt)[3:]
            if s.recovery is None or s.recovery.attempts == 1
        ]
        assert clean_after, "no clean post-loss iterations recorded"
        for s in clean_after:
            assert s.data_plane["input_bytes"] == 0


def _superstep_gaps(init, iterations, machine, rank):
    """Fault-free, traced: for every superstep of the one sweep but the
    last, a virtual time (section-local) strictly after *rank*'s kernel
    of that step and before its next one -- i.e. inside its exchange."""
    with capture() as rec:
        got, rt = _run(init, 1, _relax, iterations, machine=machine)
    (section,) = rec.spans_of_kind("section")
    steps = sorted(
        (s for s in rec.spans_of_kind("kernel")
         if s.name == "stencil_kernel" and s.rank == rank),
        key=lambda s: s.attrs["step"],
    )
    assert [s.attrs["step"] for s in steps] == list(range(iterations))
    gaps = [(a.t1 + b.t0) / 2 - section.t0 for a, b in zip(steps, steps[1:])]
    return gaps, got, rt


@pytest.mark.recovery
class TestFaultBetweenSupersteps:
    """The sweep is the recovery unit: a rank that dies inside the halo
    exchange after superstep j takes the attempt with it, its neighbours
    abort in their receive at once, and the retry runs every superstep
    again on the survivors, from the master the failed attempt read."""

    K = 6

    @pytest.mark.parametrize("nodes", [3, 4])
    @pytest.mark.parametrize("fault", [RankLoss, RankCrash])
    def test_bit_identical_and_charged_once(self, nodes, fault):
        machine = MachineSpec(nodes=nodes, cores_per_node=1)
        victim = nodes - 1
        gaps, clean, clean_rt = _superstep_gaps(INIT, self.K, machine, victim)
        assert clean.tobytes() == _sequential(INIT, 1, _relax, self.K).tobytes()
        assert len(gaps) == self.K - 1
        walls = []
        for j in (0, 2, self.K - 2):
            budget = FailureBudget(max_rank_losses=1, max_reexecutions=1)
            plan = FaultPlan(faults=(fault(rank=victim, at=gaps[j]),))
            with capture() as rec, checking() as ck:
                t0 = time.perf_counter()
                got, rt = _run(INIT, 1, _relax, self.K, machine=machine,
                               faults=plan, budget=budget)
                wall = time.perf_counter() - t0
            assert got.tobytes() == clean.tobytes(), j
            (sec,) = _stencil_sections(rt)  # still one section
            assert ck.crash_sections == 1
            assert sec.recovery.attempts == 2
            permanent = fault is RankLoss
            assert rt.recovery_report.rank_losses == int(permanent)
            assert budget.reexecutions_used == 1  # charged once
            assert budget.rank_losses_used == int(permanent)
            # (a crashed rank heals for the next section, not for the retry)
            assert sec.nodes == nodes - 1
            assert sec.makespan > clean_rt.sections[0].makespan
            # The failed attempt got as far as superstep j on the victim
            # and one superstep further per rank of distance from it (a
            # survivor runs until it needs rows that can never arrive --
            # deterministically); the retry ran all K on every rank it had.
            steps = [s.attrs["step"] for s in rec.spans_of_kind("kernel")]
            failed = sum(min(self.K, j + 1 + d) for d in range(nodes))
            assert len(steps) == failed + self.K * sec.nodes
            assert steps.count(self.K - 1) == sec.nodes + sum(
                j + 1 + d >= self.K for d in range(nodes))
            walls.append(wall)
            check_plane(rt.plane)
        # Neighbours blocked on the dead rank's halo abort on its wake
        # token: a 50 ms poll (or a timeout) per blocked rank would show in
        # every one of the runs, a busy host only in some.
        assert min(walls) < 0.05

    def test_loss_meets_resident_shards_on_the_second_call(self):
        """A second call's ranks hold resident blocks; losing one there
        replays only its rows through lineage."""
        machine = MachineSpec(nodes=3, cores_per_node=1)
        gaps, _clean, _rt = _superstep_gaps(INIT, self.K, machine, 2)
        plan = FaultPlan(faults=(RankLoss(rank=2, at=gaps[1], section=1),))
        got, rt = _run(INIT, 1, _relax, self.K, machine=machine, faults=plan,
                       calls=2)
        want = _sequential(INIT, 1, _relax, 2 * self.K)
        assert got.tobytes() == want.tobytes()
        assert rt.recovery_report.rank_losses == 1
        assert rt.recovery_report.lineage_replays > 0
        assert rt.plane.shrinks == 1


@pytest.mark.recovery
class TestBudgets:
    """Sweeps run through the section engine, so the job-level
    ``FailureBudget`` bounds them like any other section."""

    def _dies(self, fault, budget):
        with triolet_runtime(MACHINE, faults=FaultPlan(faults=(fault,)),
                             budget=budget) as rt:
            h = rt.distribute(INIT.copy())
            with pytest.raises(BudgetExhausted):
                for _ in range(8):
                    rt.stencil(h, radius=1, kernel=_relax, iterations=1)
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
        _got, clean = _run(INIT, 1, _relax, 8)
        whole = clean.sections[0].makespan
        budget = FailureBudget(deadline=whole / 2)
        with triolet_runtime(MACHINE, budget=budget) as rt:
            h = rt.distribute(INIT.copy())
            with pytest.raises(BudgetExhausted):
                rt.stencil(h, radius=1, kernel=_relax, iterations=8)
        assert rt.recovery_report.failure == "budget"
        (only,) = rt.sections  # the killed sweep still accounts
        assert only.kind == "stencil" and only.makespan == whole

    def test_sufficient_budget_is_charged_and_bit_identical(self):
        want, _rt = _run(INIT, 1, _relax, 8)
        budget = FailureBudget(max_rank_losses=1)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=3),))
        got, rt = _run(INIT, 1, _relax, 1, faults=plan, budget=budget, calls=8)
        assert got.tobytes() == want.tobytes()
        assert budget.rank_losses_used == 1
        assert budget.reexecutions_used == 1
        assert rt.recovery_report.failure is None


class TestPrivateWindow:
    """A rank computes on its own copy of its rows: a kernel that writes
    its input corrupts neither the master (before the commit, where a
    retry would re-read it) nor a rank store."""

    @pytest.mark.parametrize("transport", ["sim", "local"])
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_window_shares_memory_with_nothing(self, ranks, transport):
        machine = MachineSpec(nodes=ranks, cores_per_node=1,
                              transport=transport)
        seen = []

        with triolet_runtime(machine) as rt:
            h = rt.distribute(INIT.copy())

            def scribbler(x):
                shared = np.shares_memory(x, h.array) or any(
                    np.shares_memory(x, buf)
                    for store in rt.plane._stores.values()
                    for buf in _buffers(store)
                )
                seen.append(shared)  # rank 0's verdict lands here; a forked
                assert not shared    # rank's comes home as its failure
                out = 0.5 * (x[:-2] + x[2:])
                x[:] = -1.0  # writes its input
                return out

            rt.stencil(h, radius=1, kernel=scribbler, iterations=1)
            got = h.array.copy()
        assert got.tobytes() == _sequential(INIT, 1, _relax, 1).tobytes()
        assert seen and not any(seen)
        check_plane(rt.plane)


def _buffers(store):
    yield from (ent[2] for ent in store._resident.values())
    yield from store._cached.values()


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
