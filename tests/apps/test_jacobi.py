"""jacobi (1-D rod and 2-D plate heat relaxation) on the stencil
skeleton: bit-identity against the sequential solver and the halo-only
steady state the views PR promises."""
import numpy as np
import pytest

from repro.apps.jacobi import (
    jacobi_plate,
    jacobi_rod,
    kernel_for,
    make_problem,
    run_triolet,
    solve_ref,
)
from repro.cluster import FaultPlan, MachineSpec, RankLoss

pytestmark = pytest.mark.views

MACHINE = MachineSpec(nodes=4, cores_per_node=2)


class TestProblem:
    def test_boundaries_are_pinned(self):
        p = make_problem(n=64, seed=1)
        assert p.init[0] == 1.0 and p.init[-1] == 0.0

    def test_seed_reproducible(self):
        a, b = make_problem(seed=9), make_problem(seed=9)
        assert np.array_equal(a.init, b.init)
        assert not np.array_equal(a.init, make_problem(seed=10).init)

    def test_plate_shape(self):
        p = make_problem(n=24, width=8)
        assert p.is_2d and p.init.shape == (24, 8)
        assert p.row_nbytes == 8 * p.init.itemsize

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(n=2)
        with pytest.raises(ValueError):
            make_problem(width=1)
        with pytest.raises(ValueError):
            make_problem(iterations=-1)


class TestKernels:
    def test_rod_kernel_width(self):
        xpad = np.arange(10.0)
        assert len(jacobi_rod(xpad)) == 8

    def test_plate_kernel_preserves_side_columns(self):
        xpad = np.arange(40.0).reshape(8, 5)
        out = jacobi_plate(xpad)
        assert out.shape == (6, 5)
        # Side columns are Dirichlet in the width direction.
        assert np.array_equal(out[:, 0], xpad[1:-1, 0])
        assert np.array_equal(out[:, -1], xpad[1:-1, -1])

    def test_kernel_for_dispatches(self):
        assert kernel_for(make_problem(n=16)) is jacobi_rod
        assert kernel_for(make_problem(n=16, width=4)) is jacobi_plate


class TestBitIdentity:
    def test_rod_matches_reference(self):
        p = make_problem(n=192, iterations=7, seed=2)
        run = run_triolet(p, MACHINE)
        assert run.ok
        assert run.value.tobytes() == solve_ref(p).tobytes()

    def test_plate_matches_reference(self):
        p = make_problem(n=96, width=12, iterations=5, seed=3)
        run = run_triolet(p, MACHINE)
        assert run.value.tobytes() == solve_ref(p).tobytes()

    def test_two_rank_loss_recovery_stays_identical(self):
        """The relaxation is one section: a rank lost part-way through it
        retries the whole sweep on the survivors."""
        p = make_problem(n=128, iterations=8, seed=4)
        clean = run_triolet(p, MACHINE)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=0.6 * clean.elapsed),))
        run = run_triolet(p, MACHINE, faults=plan)
        assert run.value.tobytes() == solve_ref(p).tobytes()
        assert run.detail["recovery"].rank_losses == 1
        assert run.detail["recovery"].attempts == 2
        assert clean.elapsed < run.elapsed < 2.5 * clean.elapsed


class TestDetail:
    def test_sections_expose_halo_steady_state(self):
        """One section for the whole relaxation: the blocks ship once,
        and from the second iteration on only ghost rows move -- rank to
        rank, two per interior boundary per iteration."""
        p = make_problem(n=192, iterations=6, seed=5)
        run = run_triolet(p, MACHINE)
        (s,) = run.detail["sections"]
        assert s["input_bytes"] == (192 - 48) * p.row_nbytes
        steady = 2 * (MACHINE.nodes - 1) * p.row_nbytes
        assert s["exchange_bytes"] == (p.iterations - 1) * steady
        assert 0 < s["halo_bytes"] - s["exchange_bytes"] <= steady
        assert steady < 0.1 * s["input_bytes"]

    def test_data_plane_totals_present(self):
        p = make_problem(n=64, iterations=2, seed=6)
        run = run_triolet(p, MACHINE)
        dp = run.detail["data_plane"]
        assert dp["sections"] == 1
        assert dp["halo_requests"] == dp["halo_hits"] + dp["halo_refreshes"]
        assert dp["halo_bytes"] == run.detail["sections"][0]["halo_bytes"]
