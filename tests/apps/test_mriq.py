"""mri-q correctness and behaviour tests."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.mriq import (
    make_problem,
    run_cmpi_app,
    run_eden,
    run_triolet,
    solve_ref,
)
from repro.apps.mriq.kernel import TWO_PI, _cos_sin_turns, ftcoeff, q_for_pixels
from repro.baselines.eden.runtime import StragglerModel
from repro.bench.calibrate import costs_for
from repro.cluster.machine import MachineSpec
from repro.core import meter
from repro.core.engine import use_vectorization

MACHINE = MachineSpec(nodes=4, cores_per_node=4)


@pytest.fixture(scope="module")
def problem():
    return make_problem(npix=257, nk=33, seed=3)


@pytest.fixture(scope="module")
def reference(problem):
    return solve_ref(problem)


@pytest.fixture(scope="module")
def costs(problem):
    return costs_for("mriq", "triolet", problem)


class TestKernel:
    def test_scalar_matches_bulk(self, problem):
        p = problem
        scalar = sum(
            ftcoeff(p.kx[k], p.ky[k], p.kz[k], p.mag[k], p.x[0], p.y[0], p.z[0])
            for k in range(p.nk)
        )
        bulk = q_for_pixels(p.x[:1], p.y[:1], p.z[:1], p.kx, p.ky, p.kz, p.mag)
        assert bulk[0] == pytest.approx(scalar, rel=1e-10)

    def test_ref_visit_accounting(self, problem):
        with meter.metered() as m:
            solve_ref(problem)
        assert m.visits == problem.npix * problem.nk

    def test_zero_frequency_sample(self):
        # A k=0 sample contributes its magnitude with zero phase.
        q = q_for_pixels(
            np.array([0.3]),
            np.array([0.1]),
            np.array([-0.2]),
            np.zeros(1),
            np.zeros(1),
            np.zeros(1),
            np.array([2.5]),
        )
        assert q[0] == pytest.approx(2.5 + 0j)


class TestPhaseInTurns:
    """Every form reduces its phase to one turn, exactly, before the trig."""

    @given(st.floats(min_value=-(2.0**52), max_value=2.0**52,
                     exclude_min=True, exclude_max=True))
    def test_the_reduction_is_exact(self, t):
        r = t - np.rint(t)
        assert r + np.rint(t) == t
        assert abs(r) <= 0.5

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is no wider than float64 here")
    def test_reduced_trig_is_accurate_on_the_dense_problem(self):
        """On the seeded DENSE mri-q problem (npix 6,144, nk 64, seed 7;
        phases up to 77 turns) the reduced ``cos`` / ``sin(2πt)`` are
        within 1e-15 of a long-double evaluation.  The unreduced formula,
        ``cos(2π·t)``, reads 4.5e-14 (cos and sin alike) here."""
        p = make_problem(npix=6144, nk=64, seed=7)
        t = np.outer(p.x, p.kx) + np.outer(p.y, p.ky) + np.outer(p.z, p.kz)
        exact = 2 * np.arccos(np.longdouble(-1)) * t.astype(np.longdouble)
        c, s = _cos_sin_turns(t.copy(), 1.0)
        assert np.abs(c - np.cos(exact)).max() <= 1e-15
        assert np.abs(s - np.sin(exact)).max() <= 1e-15
        assert np.abs(np.cos(TWO_PI * t) - np.cos(exact)).max() > 1e-14


class TestFrameworks:
    """One set of bits across every mri-q path: the frameworks differ in
    distribution, not arithmetic."""

    def test_triolet_matches_reference(self, problem, reference, costs):
        with use_vectorization(True):
            run = run_triolet(problem, MACHINE, costs)
        assert np.array_equal(run.value, reference)

    def test_scalar_triolet_matches_reference(self, problem, reference, costs):
        with use_vectorization(False):
            run = run_triolet(problem, MACHINE, costs)
        assert np.array_equal(run.value, reference)

    def test_eden_matches_reference(self, problem, reference, costs):
        run = run_eden(problem, MACHINE, costs)
        assert np.array_equal(run.value, reference)

    def test_cmpi_matches_reference(self, problem, reference, costs):
        run = run_cmpi_app(problem, MACHINE, costs)
        assert np.array_equal(run.value, reference)

    def test_single_node_machines(self, problem, reference, costs):
        tiny = MachineSpec(nodes=1, cores_per_node=2)
        for runner in (run_triolet, run_eden, run_cmpi_app):
            run = runner(problem, tiny, costs)
            assert np.array_equal(run.value, reference)

    def test_triolet_ships_pixel_slices_not_everything(self, problem, costs):
        run = run_triolet(problem, MACHINE, costs)
        # Shipped bytes ~ coordinate slices + replicated k-space + results,
        # not nodes x whole-problem.
        whole = (3 * problem.npix + 4 * problem.nk) * 8
        assert run.bytes_shipped < 3 * whole + MACHINE.nodes * 5 * problem.nk * 8

    def test_eden_straggler_changes_time_not_value(self, problem, reference, costs):
        calm = run_eden(problem, MACHINE, costs, straggler=StragglerModel())
        stormy = run_eden(
            problem,
            MACHINE,
            costs,
            straggler=StragglerModel(probability=0.5, min_factor=3, max_factor=4),
        )
        np.testing.assert_allclose(calm.value, stormy.value)
        assert stormy.elapsed > calm.elapsed

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            make_problem(npix=0)

    def test_scales(self, problem):
        assert problem.compute_scale > 1
        assert problem.wire_scale > 1
