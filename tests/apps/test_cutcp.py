"""cutcp correctness and behaviour tests."""
import numpy as np
import pytest

from repro.apps.cutcp import (
    make_problem,
    run_cmpi_app,
    run_eden,
    run_triolet,
    solve_ref,
)
from repro.apps.cutcp import kernel
from repro.apps.cutcp.kernel import atom_contribution
from repro.apps.cutcp.triolet import _contrib
from repro.bench.calibrate import costs_for
from repro.cluster.machine import MachineSpec
from repro.core.meter import metered
from repro.runtime import triolet_runtime
from repro.serial import closure
from repro.testing.invariants import check_plane
import repro.triolet as tri

MACHINE = MachineSpec(nodes=4, cores_per_node=4)


@pytest.fixture(scope="module")
def problem():
    return make_problem(na=60, grid=(12, 12, 12), cutoff=3.0, seed=3)


@pytest.fixture(scope="module")
def reference(problem):
    return solve_ref(problem)


@pytest.fixture(scope="module")
def costs(problem):
    return costs_for("cutcp", "triolet", problem)


class TestKernel:
    def test_contribution_respects_cutoff(self, problem):
        p = problem
        nz, ny, nx = p.grid_dim
        atom = p.atoms[0]
        flat, s = atom_contribution(atom, p.grid_dim, p.spacing, p.cutoff)
        gz = flat // (ny * nx)
        gy = (flat // nx) % ny
        gx = flat % nx
        r = np.sqrt(
            (gz * p.spacing - atom[0]) ** 2
            + (gy * p.spacing - atom[1]) ** 2
            + (gx * p.spacing - atom[2]) ** 2
        )
        assert np.all(r < p.cutoff)
        assert np.all(r > 0)

    def test_potential_formula(self):
        # One atom at the origin with q=2, grid point at distance 1, c=2.
        atom = np.array([0.0, 0.0, 0.0, 2.0])
        flat, s = atom_contribution(atom, (2, 2, 2), 1.0, 2.0)
        idx = list(flat)
        # grid point (0,0,1) -> flat 1, r=1: s = 2 * (1/1) * (1 - 1/4)^2
        assert 1 in idx
        val = s[idx.index(1)]
        assert val == pytest.approx(2.0 * (1 - 0.25) ** 2)

    def test_atom_outside_box_contributes_nothing(self):
        atom = np.array([100.0, 100.0, 100.0, 1.0])
        flat, s = atom_contribution(atom, (4, 4, 4), 1.0, 2.0)
        assert len(flat) == 0 and len(s) == 0

    def test_indices_within_grid(self, problem):
        for atom in problem.atoms[:20]:
            flat, _ = atom_contribution(
                atom, problem.grid_dim, problem.spacing, problem.cutoff
            )
            assert np.all(flat >= 0) and np.all(flat < problem.grid_size)


def _seeded_case(seed):
    """A grid, spacing, cutoff and 0-199 atoms, some off the grid (their
    box is empty or clipped) and some exactly on grid points (r == 0)."""
    rng = np.random.default_rng(seed)
    grid = tuple(int(n) for n in rng.integers(1, 20, size=3))
    spacing = float(rng.uniform(0.5, 1.3))
    cutoff = float(rng.uniform(0.3, 4.0))
    na = int(rng.integers(0, 200))
    extent = spacing * (np.array(grid) - 1)
    pos = rng.uniform(-cutoff - 1.0, extent + cutoff + 1.0, size=(na, 3))
    on_grid = rng.random(na) < 0.2
    pos[on_grid] = spacing * np.round(pos[on_grid] / spacing)
    atoms = np.column_stack([pos, rng.standard_normal(na)])
    return atoms, grid, spacing, cutoff


class TestBulkForm:
    """``atoms_contribution_bulk`` against its definition, one
    ``atom_contribution`` call per atom: indices, floats, segment lengths
    and visits equal byte for byte, whatever the block size."""

    @pytest.mark.parametrize("budget", [1 << 22, 5000, 200])
    def test_seeded_parity_sweep(self, monkeypatch, budget):
        monkeypatch.setattr(kernel, "_BULK_BUDGET", budget)
        for seed in range(40):
            atoms, grid, spacing, cutoff = _seeded_case(seed)
            with metered() as bulk_meter:
                (flat, s), lengths = kernel.atoms_contribution_bulk(
                    atoms, grid, spacing, cutoff)
            with metered() as ref_meter:
                ref = [atom_contribution(a, grid, spacing, cutoff) for a in atoms]
            ref_flat = np.concatenate([f for f, _ in ref] or [flat[:0]])
            ref_s = np.concatenate([v for _, v in ref] or [s[:0]])
            case = (seed, grid, spacing, cutoff, len(atoms))
            assert flat.dtype == ref_flat.dtype == np.int64, case
            assert flat.tobytes() == ref_flat.tobytes(), case
            assert s.tobytes() == ref_s.tobytes(), case
            assert lengths.tolist() == [len(f) for f, _ in ref], case
            assert bulk_meter == ref_meter, case


class TestFrameworks:
    @pytest.mark.parametrize("runner", [run_triolet, run_eden, run_cmpi_app])
    def test_matches_reference(self, runner, problem, reference, costs):
        run = runner(problem, MACHINE, costs)
        assert run.ok
        np.testing.assert_allclose(run.value, reference, rtol=1e-9, atol=1e-12)

    def test_superposition(self, costs):
        """Potentials add: two atoms = sum of single-atom grids."""
        base = make_problem(na=2, grid=(10, 10, 10), cutoff=3.0, seed=5)
        both = solve_ref(base)
        from dataclasses import replace

        one = solve_ref(replace(base, atoms=base.atoms[:1]))
        two = solve_ref(replace(base, atoms=base.atoms[1:]))
        np.testing.assert_allclose(both, one + two, rtol=1e-10)

    def test_triolet_gc_time_reported(self, problem, costs):
        run = run_triolet(problem, MACHINE, costs)
        assert run.detail["gc_time"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(na=0)
        with pytest.raises(ValueError):
            make_problem(grid=(1, 4, 4))


class TestSlabSweeps:
    """Base / offset / offset-again sweeps of three slab views over one
    resident atom array.  Each sweep yields the full potential grid.
    Re-running a decomposition already seen is free; shifting it ships
    only the rows that changed rank."""

    @pytest.fixture(scope="class")
    def sweeps(self, problem, reference):
        p = problem
        third = p.na // 3
        base = [0, third, 2 * third, p.na]
        offset = [0, third + third // 2, 2 * third + third // 2, p.na]
        contrib = closure(_contrib, list(p.grid_dim), p.spacing, p.cutoff)
        per_sweep = []
        with triolet_runtime(MACHINE) as rt:
            atoms = rt.distribute(p.atoms)
            for cuts in (base, offset, offset):
                before = dict(rt.plane.totals)
                grid = np.zeros(p.grid_size)
                for lo, hi in zip(cuts, cuts[1:]):
                    slab = tri.slice_view(atoms, lo, hi)
                    grid += tri.histogram(
                        p.grid_size, tri.map(contrib, tri.par(slab))
                    )
                np.testing.assert_allclose(
                    grid.reshape(p.grid_dim), reference, rtol=1e-9, atol=1e-12
                )
                per_sweep.append(
                    {k: v - before[k] for k, v in rt.plane.totals.items()}
                )
        check_plane(rt.plane)
        return per_sweep

    def test_repeat_sweep_is_served_from_residents_and_cache(self, sweeps):
        _base, _offset, repeat = sweeps
        assert repeat["requests"] > 0
        assert repeat["resident_hits"] + repeat["cache_hits"] == repeat["requests"]
        assert repeat["input_bytes"] == repeat["placements"] == 0

    def test_offset_sweep_ships_less_than_base(self, sweeps):
        base, offset, _repeat = sweeps
        assert 0 < offset["input_bytes"] < base["input_bytes"]
