"""tpacf scoring kernel shared by the frameworks.

``score``/``row_bins`` map pairs of sky positions to angular bins.
Parboil uses logarithmic arcminute bins; the bin edges here are uniform
in angle -- a monotone relabeling that preserves the computation's shape
(dot product, arccos, binning) and cost exactly.

The 3-term dot products are written as explicit component sums (not
BLAS ``@``) so the scalar, row, and batched-row forms perform the exact
same float operations in the same order: the vectorized engine's bulk
forms (``*_bulk``, ``*_batch``) are bit-identical to per-element
evaluation, and make a fixed number of NumPy calls per block of
``_BULK_BUDGET`` pairs, not per element of their batch, and tally per
element of it (the engine's call-count and tally rules, see
:mod:`repro.core.engine.bulk_forms`).
"""
from __future__ import annotations

import numpy as np

from repro.core import meter

#: Pairs the cross and set-granular forms score per block (of rows, of
#: whole sets), however many the engine hands them.  Bounds their float
#: temporaries at 256 KiB each: from 2^16 up a cold allocator page-faults
#: every block's temporaries in again (EXPERIMENTS.md).
_BULK_BUDGET = 1 << 15


def score(nbins: int, u: np.ndarray, v: np.ndarray) -> int:
    """Angular bin of one pair (the paper's Fig. 6 ``score``)."""
    cosang = float(np.clip(u[0] * v[0] + u[1] * v[1] + u[2] * v[2], -1.0, 1.0))
    ang = np.arccos(cosang)
    return min(nbins - 1, int(nbins * ang / np.pi))


def row_bins(nbins: int, u: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Bins of *u* against every row of *vs* (vectorized inner loop).

    Tallies one visit per pair, minus the one the caller's library counts
    for the row element itself.
    """
    if len(vs) == 0:
        meter.tally_inner(1)
        return np.empty(0, dtype=np.int64)
    cosang = np.clip(vs[:, 0] * u[0] + vs[:, 1] * u[1] + vs[:, 2] * u[2], -1.0, 1.0)
    ang = np.arccos(cosang)
    bins = np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64))
    meter.tally_inner(len(vs))
    return bins


def _pair_cos_matrix(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """cos(angle) of every (us row, vs row) pair; row *i* performs the
    same component products and sums as ``row_bins(nbins, us[i], vs)``.
    Leading axes (a stack of sets) broadcast: one matrix per set."""
    return (
        vs[..., None, :, 0] * us[..., :, None, 0]
        + vs[..., None, :, 1] * us[..., :, None, 1]
        + vs[..., None, :, 2] * us[..., :, None, 2]
    )


def _angle_bins(nbins: int, cos: np.ndarray) -> np.ndarray:
    """Bins of an array of pair cosines: ``row_bins``'s clip, arccos and
    binning, element for element."""
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    return np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64))


def self_pairs_bins_bulk(
    nbins: int, rand: np.ndarray, i_arr: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched triangular pair bins: rows ``i`` of *rand* against rows
    ``i+1:``, concatenated in row order (segmented bulk form).

    Meters exactly like ``len(us)`` calls of ``row_bins``.
    """
    n = len(rand)
    if len(us) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keep = np.arange(n) > np.asarray(i_arr)[:, None]
    vals = _angle_bins(nbins, _pair_cos_matrix(us, rand)[keep])
    lengths = np.maximum(n - 1 - np.asarray(i_arr), 0).astype(np.int64)
    meter.tally_each(np.maximum(lengths - 1, 0))
    return vals, lengths


def _by_blocks(block_bins, items: np.ndarray, pairs_per_item: int) -> np.ndarray:
    """``block_bins`` over *items* (rows, or whole sets) in blocks of
    ``_BULK_BUDGET`` pairs, raveled and concatenated."""
    step = max(1, _BULK_BUDGET // pairs_per_item)
    return np.concatenate(
        [block_bins(items[lo : lo + step]).ravel() for lo in range(0, len(items), step)]
    )


def _cross_rows_bins(nbins: int, other: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Bins of every *us* row against all of *other*, in row order: what
    the row-level and the set-level cross forms share (the pair matrix,
    its blocking); each tallies for its own elements."""
    if len(us) == 0 or len(other) == 0:
        return np.empty(0, dtype=np.int64)
    return _by_blocks(
        lambda rows: _angle_bins(nbins, _pair_cos_matrix(rows, other)),
        us,
        len(other),
    )


def cross_pairs_bins_bulk(
    nbins: int, other: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched cross pair bins: every *us* row against all of *other*."""
    m = len(other)
    meter.tally_uniform(len(us), max(m - 1, 0))
    return _cross_rows_bins(nbins, other, us), np.full(len(us), m, dtype=np.int64)


def _per_set(set_bins, sets) -> tuple[np.ndarray, np.ndarray]:
    """The batch forms' fallback for sets that are not the ``(k, n, 3)``
    array slice the engine passes (a ragged list): the scalar form on
    each under a meter of its own, so identical by construction and
    tallied per set."""
    vals, visits = [], []
    for rand in sets:
        with meter.metered() as m:
            vals.append(set_bins(rand))
        visits.append(m.visits)
    meter.tally_each(np.array(visits, dtype=np.int64))
    lengths = np.array([len(v) for v in vals], dtype=np.int64)
    return (np.concatenate(vals) if vals else np.empty(0, dtype=np.int64)), lengths


def cross_set_bins(nbins: int, other: np.ndarray, rand: np.ndarray) -> np.ndarray:
    """All pair bins of one random set against *other*, concatenated.

    The set-granular scalar form: calls ``row_bins`` per row, so its
    float operations and meter tallies are exactly the per-row loop's.
    """
    if len(rand) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [row_bins(nbins, rand[j], other) for j in range(len(rand))]
    )


def cross_set_bins_batch(
    nbins: int, other: np.ndarray, stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented batch form of :func:`cross_set_bins` over a stack of
    sets: one segment (and one length) per set.  Bit- and meter-identical
    to ``len(stack)`` scalar calls.

    A ``(k, n, 3)`` stack is its ``k*n`` rows to
    :func:`cross_pairs_bins_bulk`: row ``s*n + j`` of the pair matrix is
    ``row_bins(nbins, stack[s, j], other)``.
    """
    if not (isinstance(stack, np.ndarray) and stack.ndim == 3):
        return _per_set(lambda rand: cross_set_bins(nbins, other, rand), stack)
    k, n, width = stack.shape
    meter.tally_uniform(k, n * max(len(other) - 1, 0))
    vals = _cross_rows_bins(nbins, other, stack.reshape(k * n, width))
    return vals, np.full(k, n * len(other), dtype=np.int64)


def self_set_bins(nbins: int, rand: np.ndarray) -> np.ndarray:
    """All unique-pair bins of one set (rows i vs i+1:), concatenated."""
    if len(rand) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [row_bins(nbins, rand[i], rand[i + 1 :]) for i in range(len(rand))]
    )


def self_set_bins_batch(
    nbins: int, stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented batch form of :func:`self_set_bins` over a stack of sets.

    A ``(k, n, 3)`` stack is scored as one ``(k, n, n)`` pair cube per
    block of sets, cut to the strict upper triangle -- rows ``i`` against
    rows ``i+1:``, in row order -- before the clip and arccos.
    """
    if not (isinstance(stack, np.ndarray) and stack.ndim == 3):
        return _per_set(lambda rand: self_set_bins(nbins, rand), stack)
    k, n = len(stack), stack.shape[1]
    lengths = np.full(k, n * (n - 1) // 2, dtype=np.int64)
    if k == 0 or n < 2:
        return np.empty(0, dtype=np.int64), lengths
    keep = np.arange(n) > np.arange(n)[:, None]
    vals = _by_blocks(
        lambda sets: _angle_bins(nbins, _pair_cos_matrix(sets, sets)[:, keep]),
        stack,
        n * n,
    )
    meter.tally_uniform(k, (n - 1) * (n - 2) // 2)
    return vals, lengths


def correlate_cross(
    nbins: int, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Histogram of all pairs (a_i, b_j); tallies ``len(a)*len(b)``."""
    hist = np.zeros(nbins)
    for i in range(len(a)):
        bins = row_bins(nbins, a[i], b)
        np.add.at(hist, bins, 1.0)
        meter.tally_visits(1)  # the outer-row visit row_bins left to us
    return hist


def correlate_self(nbins: int, a: np.ndarray) -> np.ndarray:
    """Histogram of all unique pairs (a_i, a_j), j > i."""
    hist = np.zeros(nbins)
    for i in range(len(a)):
        bins = row_bins(nbins, a[i], a[i + 1 :])
        np.add.at(hist, bins, 1.0)
        meter.tally_visits(1)
    return hist
