"""sgemm kernels shared by the frameworks."""
from __future__ import annotations

import numpy as np

from repro.core import meter


def block_product(
    a_rows: np.ndarray, bt_rows: np.ndarray, alpha: float
) -> np.ndarray:
    """alpha * (rows of A) @ (rows of B^T)^T for one output block.

    Both operands are row-major slices so the inner loop streams
    contiguous memory -- the reason all versions transpose B first.
    Tallies one visit per multiply-accumulate.
    """
    out = alpha * (a_rows @ bt_rows.T)
    meter.tally_visits(a_rows.shape[0] * bt_rows.shape[0] * a_rows.shape[1])
    return out


def row_dot(u: np.ndarray, v: np.ndarray, alpha: float) -> float:
    """One output element (the Triolet element function).

    ``np.sum`` over the elementwise product (not BLAS ``@``) so the
    batched form is bit-identical per row.
    """
    meter.tally_inner(len(u))
    return float(alpha * np.sum(u * v))


def row_dots_bulk(us: np.ndarray, vs: np.ndarray, alpha: float) -> np.ndarray:
    """Batched :func:`row_dot` over paired rows; meters identically."""
    us = np.asarray(us)
    meter.tally_uniform(len(us), max(us.shape[1] - 1 if us.ndim == 2 else 0, 0))
    return alpha * np.sum(us * vs, axis=1)


def transpose_elements(B: np.ndarray) -> np.ndarray:
    """Materialize B^T, tallying one visit per element moved."""
    out = np.ascontiguousarray(B.T)
    meter.tally_visits(B.size)
    return out
