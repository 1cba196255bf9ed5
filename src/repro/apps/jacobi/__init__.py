"""jacobi: iterative heat relaxation via the ``stencil`` skeleton.

Not a paper benchmark -- the paper's four apps are all single-pass
pipelines -- but the canonical exercise for the halo machinery: a
radius-1 Jacobi sweep re-reads every rank's block each iteration, so
*only* ghost rows may move once the blocks are placed (zero interior
bytes; a sweep's are shipped with its blocks, as deep as it has
iterations) for the skeleton to be worth having.  Both the
1-D rod and the 2-D plate run as row stencils; the plate's column
neighbours live inside each row, so rows stay the halo unit.
"""
from repro.apps.jacobi.data import JacobiProblem, make_problem
from repro.apps.jacobi.kernel import jacobi_plate, jacobi_rod, kernel_for
from repro.apps.jacobi.ref import solve_ref
from repro.apps.jacobi.triolet import run_triolet

__all__ = [
    "JacobiProblem",
    "make_problem",
    "jacobi_rod",
    "jacobi_plate",
    "kernel_for",
    "solve_ref",
    "run_triolet",
]
