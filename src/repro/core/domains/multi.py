"""Multidimensional iteration helpers (paper §2, §3.3).

* ``rows(A)`` -- "reinterpret the two-dimensional array A as a
  one-dimensional iterator over array rows"; slicing it ships only the
  selected rows.
* ``outerproduct(u, v)`` -- "creates a 2D iterator pairing rows of A with
  rows of BT"; a 2-D block slice ships only the rows covering the block.
* ``array_range(lo, hi)`` -- the multidimensional index space iterator
  used by e.g. matrix transposition (§3.3).
* ``domain(x)`` / ``indices(d)`` -- the Fig. 6 helpers.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.domains.base import Domain
from repro.core.domains.dim2 import Dim2, Dim3
from repro.core.domains.seq import Seq
from repro.core.encodings.indexer import (
    array_indexer,
    index_indexer,
    outer_product_idx,
)
from repro.core.iterators.iter_type import IdxFlat, Iter
from repro.core.iterators.transforms import iterate


def rows(A: np.ndarray) -> Iter:
    """Iterate over the rows of a 2-D (or higher) array.

    Each element is a row (a numpy view); the iterator's source slices by
    rows, so a distributed task receives exactly its rows.
    """
    if hasattr(A, "__triolet_idx__"):
        if A.ndim < 2:
            raise ValueError(f"rows() needs a >=2-D array, got {A.ndim}-D")
        return IdxFlat(A.__triolet_idx__())
    A = np.asarray(A)
    if A.ndim < 2:
        raise ValueError(f"rows() needs a >=2-D array, got {A.ndim}-D")
    return IdxFlat(array_indexer(A))


def cols(A: np.ndarray) -> Iter:
    """Iterate over the columns of a 2-D array (transposes a view)."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"cols() needs a 2-D array, got {A.ndim}-D")
    return IdxFlat(array_indexer(A.T))


def outerproduct(u: Any, v: Any) -> Iter:
    """All pairs ``(u[i], v[j])`` as a Dim2 iterator (paper §2's sgemm)."""
    ui, vi = iterate(u), iterate(v)
    if not (isinstance(ui, IdxFlat) and isinstance(vi, IdxFlat)):
        raise TypeError(
            "outerproduct requires indexable (random-access) operands; "
            "variable-length iterators cannot form a 2-D block grid"
        )
    return IdxFlat(outer_product_idx(ui.idx, vi.idx))


def array_range(lo: tuple | int, hi: tuple | int | None = None) -> Iter:
    """Iterate over all indices of a (possibly multidimensional) range.

    ``array_range((0, 0), (h, w))`` yields ``(y, x)`` pairs in row-major
    order, as in the paper's transposition example.  Only zero-based
    ranges are supported (the paper's examples use no other kind).
    """
    if hi is None:
        hi = lo
        lo = 0 if isinstance(hi, int) else tuple(0 for _ in hi)
    lo_t = (lo,) if isinstance(lo, int) else tuple(lo)
    hi_t = (hi,) if isinstance(hi, int) else tuple(hi)
    if len(lo_t) != len(hi_t):
        raise ValueError(f"rank mismatch: {lo_t} vs {hi_t}")
    if any(l != 0 for l in lo_t):
        raise NotImplementedError("array_range supports zero-based ranges")
    extents = tuple(max(0, h) for h in hi_t)
    if len(extents) == 1:
        dom: Domain = Seq(extents[0])
    elif len(extents) == 2:
        dom = Dim2(*extents)
    elif len(extents) == 3:
        dom = Dim3(*extents)
    else:
        raise NotImplementedError(f"{len(extents)}-D domains not supported")
    return IdxFlat(index_indexer(dom))


def domain(x: Any) -> Domain:
    """The index space of an array or iterator (Fig. 6's ``domain``)."""
    if isinstance(x, Domain):
        return x
    if isinstance(x, np.ndarray):
        return Seq(len(x))
    if isinstance(x, Iter):
        return x.domain
    if hasattr(x, "__triolet_idx__"):
        return x.__triolet_idx__().domain
    if isinstance(x, (list, tuple)):
        return Seq(len(x))
    raise TypeError(f"no domain for {type(x).__name__}")


def indices(d: Domain | Any) -> Iter:
    """Iterate over a domain's indices (Fig. 6's ``indices(domain(..))``)."""
    return IdxFlat(index_indexer(domain(d)))
