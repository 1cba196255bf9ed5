"""The stencil/halo skeleton: one section per ``rt.stencil`` call -- each
rank is shipped ghost rows ``radius * iterations`` deep with its block,
runs every iteration without a message, and the root gathers once --
dirty-halo reship between calls, and fault recovery, all differential
against a sequential sweep.

A call is the unit of commit, recovery, budget and checkpoint.  Tests
about the *per-iteration* unit (one commit per iteration, a fault gated
to the n-th sweep) make ``calls`` one-iteration calls and keep the
numbers they had when every iteration was a section of its own."""
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster import FaultPlan, MachineSpec, RankCrash, RankLoss
from repro.obs import capture
from repro.partition.halo import halo_bytes_bound, halo_intervals
from repro.partition import block_bounds
from repro.runtime import BudgetExhausted, FailureBudget, triolet_runtime
from repro.runtime.section import _CHUNK_TAG
from repro.testing.invariants import check_plane, checking

pytestmark = [pytest.mark.views, pytest.mark.dataplane]

MACHINE = MachineSpec(nodes=4, cores_per_node=2)


def _relax(xpad):
    return 0.5 * (xpad[:-2] + xpad[2:])


def _relax_r2(xpad):
    return 0.25 * (xpad[:-4] + xpad[1:-3] + xpad[3:-1] + xpad[4:])


def _weighted(radius):
    """A radius-*radius* row stencil that weighs every row it reads
    differently, so a row read from the wrong place shows."""

    def kernel(x):
        m = len(x) - 2 * radius
        return sum((j + 1) * 0.1 * x[j:j + m] for j in range(2 * radius + 1))

    return kernel


def _scribbling(kernel):
    """*kernel*, then writing its input: harmless by the kernel contract."""

    def scribbler(x):
        out = kernel(x)
        x[:] = -1.0
        return out

    return scribbler


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
        section, and no sweep posts a message but its work items and its
        gather."""
        machine = MachineSpec(nodes=ranks, cores_per_node=1)
        kernel = _weighted(radius)
        for n in (1, 2, 5, 9, 16, 33):
            init = np.random.default_rng(n).random(n)
            for k in (0, 1, 2, 5):
                want = init if n <= 2 * radius else _sequential(
                    init, radius, kernel, k)
                with checking():
                    got, rt = _run(init, radius, kernel, k, machine=machine)
                assert got.tobytes() == want.tobytes(), (n, k)
                assert len(rt.sections) == (1 if k else 0)
                if k:
                    nranks = rt.sections[0].nodes
                    assert rt.sections[0].messages == 2 * (nranks - 1)


def _traced_sweep(transport, init, radius, ranks, iterations, kernel=None):
    """One sweep (of ``_weighted(radius)`` unless *kernel* is given) under
    the checker and a recorder: the value, the virtual clock, every rank's
    wire counters and the ``(rank, peer, tag)`` of every send."""
    machine = MachineSpec(nodes=ranks, cores_per_node=1, transport=transport)
    with capture() as rec, checking():
        got, rt = _run(init, radius, kernel or _weighted(radius), iterations,
                       machine=machine)
    sends = [(e["rank"], e["peer"], e["tag"]) for e in rec.events
             if e["kind"] == "send"]
    wire = [(m.bytes_sent, m.bytes_received, m.messages_sent,
             m.messages_received)
            for s in rt.sections for m in s.metrics.per_rank]
    return got, rt, sends, wire


class TestDeepGhosts:
    """A sweep's ranks are shipped ghost rows ``radius * iterations`` deep
    and never talk: on rods and plates, blocks narrower than ``radius *
    iterations`` (ghosts spanning several blocks) and blocks inside the
    fixed edges included, every value is the sequential sweep's bit for
    bit, and the only sends are one work item to and one gather from
    each member."""

    @staticmethod
    def _check(init, radius, iterations, got, rt, sends):
        n = len(init)
        want = init if n <= 2 * radius else _sequential(
            init, radius, _weighted(radius), iterations)
        assert got.tobytes() == want.tobytes()
        if not iterations:
            assert rt.sections == [] and sends == []
            return
        (sec,) = rt.sections
        members = range(1, sec.nodes)
        items = sorted((src, dst) for src, dst, tag in sends if tag == _CHUNK_TAG)
        gathers = [(src, dst, tag) for src, dst, tag in sends if tag != _CHUNK_TAG]
        assert items == [(0, m) for m in members]
        assert sorted((src, dst) for src, dst, _tag in gathers) == [
            (m, 0) for m in members]
        assert len({tag for _src, _dst, tag in gathers}) <= 1  # one gather

    @given(n=st.integers(3, 40), width=st.sampled_from([None, 1, 4]),
           ranks=st.integers(1, 8), radius=st.integers(1, 3),
           iterations=st.integers(0, 8), seed=st.integers(0, 2**16),
           scribble=st.booleans())
    def test_bit_identical_and_silent_on_sim(self, n, width, ranks, radius,
                                             iterations, seed, scribble):
        shape = (n,) if width is None else (n, width)
        init = np.random.default_rng(seed).random(shape)
        kernel = _scribbling(_weighted(radius)) if scribble else None
        got, rt, sends, _wire = _traced_sweep("sim", init, radius, ranks,
                                              iterations, kernel)
        self._check(init, radius, iterations, got, rt, sends)

    @pytest.mark.parametrize("n, width, ranks, radius, iterations", [
        (7, None, 4, 2, 3),  # 1- and 2-row blocks, ghosts 6 rows deep
        (17, 3, 3, 1, 8),  # a plate, ghosts past the next block
        (40, None, 8, 3, 5),  # edge blocks inside the fixed rows
        (33, 4, 5, 2, 1),
    ])
    def test_local_equals_sim_byte_for_byte(self, n, width, ranks, radius,
                                            iterations):
        shape = (n,) if width is None else (n, width)
        init = np.random.default_rng(n).random(shape)
        ref = _traced_sweep("sim", init, radius, ranks, iterations)
        got = _traced_sweep("local", init, radius, ranks, iterations)
        self._check(init, radius, iterations, *got[:3])
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].elapsed == ref[1].elapsed
        assert sorted(got[2]) == sorted(ref[2])
        assert got[3] == ref[3]


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
            assert s.messages == 2 * (s.nodes - 1)  # nothing rank to rank

    def test_a_sweep_ships_its_blocks_once_and_its_ghosts_k_deep(self):
        """Inside a call no interior row travels at all: the section's
        halo bytes are the ghosts the plan ships, ``radius * iterations``
        rows beyond each block edge, nothing is exchanged, and a second
        call finds every block resident."""
        _got, rt = _run(INIT, 1, _relax, 6, calls=2)
        first, second = _stencil_sections(rt)
        row = INIT.itemsize
        bounds = block_bounds(len(INIT), MACHINE.nodes)
        assert first.data_plane["input_bytes"] == (len(INIT) - bounds[0][1]) * row
        # ranks 1 and 2 get two 6-row ghosts each, rank 3 one
        ghosts = 5 * 6 * row
        assert [halo_intervals(*b, 6, len(INIT)) for b in bounds[1:]] == [
            [(122, 128), (256, 262)], [(250, 256), (384, 390)], [(378, 384)]]
        assert first.data_plane["halo_bytes"] == ghosts
        assert second.data_plane["input_bytes"] == 0
        assert second.data_plane["halo_bytes"] == ghosts  # all dirty again
        assert rt.plane.totals["halo_bytes"] == 2 * ghosts
        for s in (first, second):
            assert s.messages == 2 * (MACHINE.nodes - 1)
        # every row computed is metered: 6 x 510 written rows, and the
        # price of not talking, r*k*(k-1) = 30 rows per interior boundary
        assert rt.meter_total.visits == 2 * (6 * (len(INIT) - 2) + 3 * 30)

    def test_halo_stream_conserves_and_respects_ceiling(self):
        nranks = MACHINE.nodes
        for iterations, calls in ((1, 5), (5, 1)):
            bound = halo_bytes_bound(2 * iterations, nranks, INIT.itemsize)
            _got, rt = _run(INIT, 2, _relax_r2, iterations, calls=calls)
            assert len(_stencil_sections(rt)) == calls
            for s in _stencil_sections(rt):
                dp = s.data_plane
                assert dp["halo_requests"] == (
                    dp["halo_hits"] + dp["halo_refreshes"])
                assert 0 < dp["halo_bytes"] <= bound
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


def _kernel_midpoints(init, iterations, machine, rank):
    """Fault-free, traced: for every superstep of the one sweep, a virtual
    time (section-local) strictly inside *rank*'s kernel of that step --
    a fault scheduled there fires as the kernel's compute is charged, so
    the rank dies between that superstep and the next."""
    with capture() as rec:
        got, rt = _run(init, 1, _relax, iterations, machine=machine)
    (section,) = rec.spans_of_kind("section")
    steps = sorted(
        (s for s in rec.spans_of_kind("kernel")
         if s.name == "stencil_kernel" and s.rank == rank),
        key=lambda s: s.attrs["step"],
    )
    assert [s.attrs["step"] for s in steps] == list(range(iterations))
    assert all(s.t1 > s.t0 for s in steps)
    return [(s.t0 + s.t1) / 2 - section.t0 for s in steps], got, rt


@pytest.mark.recovery
class TestFaultBetweenSupersteps:
    """The sweep is the recovery unit: a rank that dies after superstep j
    takes the attempt with it.  Its ranks never talk, so the others run
    every superstep; the root, waiting in the gather for the dead rank,
    aborts at once, and the retry runs every superstep again on the
    survivors, from the master the failed attempt read."""

    K = 6

    @pytest.mark.parametrize("nodes", [3, 4])
    @pytest.mark.parametrize("fault", [RankLoss, RankCrash])
    def test_bit_identical_and_charged_once(self, nodes, fault):
        machine = MachineSpec(nodes=nodes, cores_per_node=1)
        victim = nodes - 1
        times, clean, clean_rt = _kernel_midpoints(INIT, self.K, machine, victim)
        assert clean.tobytes() == _sequential(INIT, 1, _relax, self.K).tobytes()
        assert len(times) == self.K
        walls = []
        for j in (0, 2, self.K - 2):
            budget = FailureBudget(max_rank_losses=1, max_reexecutions=1)
            plan = FaultPlan(faults=(fault(rank=victim, at=times[j]),))
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
            # and through all K on every other rank, which waits for no
            # row; the retry ran all K on every rank it had.
            steps = [s.attrs["step"] for s in rec.spans_of_kind("kernel")]
            failed = j + 1 + self.K * (nodes - 1)
            assert len(steps) == failed + self.K * sec.nodes
            assert steps.count(j) == nodes + sec.nodes
            assert steps.count(self.K - 1) == nodes - 1 + sec.nodes
            walls.append(wall)
            check_plane(rt.plane)
        # The root blocked on the dead rank's gather aborts on its wake
        # token: a 50 ms poll (or a timeout) would show in every one of
        # the runs, a busy host only in some.
        assert min(walls) < 0.05

    def test_loss_meets_resident_shards_on_the_second_call(self):
        """A second call's ranks hold resident blocks; losing one there
        replays only its rows through lineage."""
        machine = MachineSpec(nodes=3, cores_per_node=1)
        times, _clean, _rt = _kernel_midpoints(INIT, self.K, machine, 2)
        plan = FaultPlan(faults=(RankLoss(rank=2, at=times[1], section=1),))
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
    retry would re-read it) nor a rank store, nor the fixed edge rows its
    later iterations read again."""

    @pytest.mark.parametrize("transport", ["sim", "local"])
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_window_shares_memory_with_nothing(self, ranks, transport):
        machine = MachineSpec(nodes=ranks, cores_per_node=1,
                              transport=transport)
        for iterations in (1, 2, 3):
            seen = []

            with triolet_runtime(machine) as rt:
                h = rt.distribute(INIT.copy())

                def scribbler(x):
                    shared = np.shares_memory(x, h.array) or any(
                        np.shares_memory(x, buf)
                        for store in rt.plane._stores.values()
                        for buf in _buffers(store)
                    )
                    seen.append(shared)  # rank 0's verdict lands here; a
                    assert not shared    # forked rank's comes home as its failure
                    out = 0.5 * (x[:-2] + x[2:])
                    x[:] = -1.0  # writes its input
                    return out

                rt.stencil(h, radius=1, kernel=scribbler,
                           iterations=iterations)
                got = h.array.copy()
            want = _sequential(INIT, 1, _relax, iterations)
            assert got.tobytes() == want.tobytes(), iterations
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
