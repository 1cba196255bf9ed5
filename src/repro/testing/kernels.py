"""The fuzzer's kernel zoo: registered scalar functions + bulk forms.

Every kernel is registered for serialization (so it survives the wire to
simulated ranks) and carries an ELEMENTWISE or SEGMENTED bulk form (so
the vectorized engine genuinely vectorizes the generated pipelines
instead of falling back to the scalar loop).

All kernels preserve integrality: inputs are small integers stored as
float64, and every output stays an exact integer far below 2**53.  That
is what makes "bit-identical across every partitioning" a theorem rather
than a tolerance -- float addition of exact integers is associative.

Scalar and bulk forms are written against the same arithmetic
expressions; any divergence between them is exactly the class of bug the
differential runner exists to catch.
"""
from __future__ import annotations

import numpy as np

from repro.core import meter
from repro.core.engine.bulk_forms import SEGMENTED, register_bulk
from repro.serial import register_function
from repro.serial.closures import closure

# -- num -> num maps ---------------------------------------------------------


@register_function
def k_square(x):
    return x * x


register_bulk(k_square, lambda b: b * b)


@register_function
def k_add3(x):
    return x + 3.0


register_bulk(k_add3, lambda b: b + 3.0)


@register_function
def k_double(x):
    return x * 2.0


register_bulk(k_double, lambda b: b * 2.0)


@register_function
def k_neg(x):
    return -x


register_bulk(k_neg, lambda b: -b)


@register_function
def k_addc(c, x):
    return x + c


register_bulk(k_addc, lambda c, b: b + c)


@register_function
def k_scalec(c, x):
    return x * c


register_bulk(k_scalec, lambda c, b: b * c)


# -- pair -> num maps (zip / outerproduct elements) --------------------------


@register_function
def k_pair_sum(p):
    return p[0] + p[1]


register_bulk(k_pair_sum, lambda t: t[0] + t[1])


@register_function
def k_pair_prod(p):
    return p[0] * p[1]


register_bulk(k_pair_prod, lambda t: t[0] * t[1])


@register_function
def k_pair_diff(p):
    return p[0] - p[1]


register_bulk(k_pair_diff, lambda t: t[0] - t[1])


# -- row -> num maps (rows() elements) ---------------------------------------


@register_function
def k_row_sum(r):
    return np.sum(r)


register_bulk(k_row_sum, lambda b: np.sum(b, axis=1))


@register_function
def k_row_ssq(r):
    return np.sum(r * r)


register_bulk(k_row_ssq, lambda b: np.sum(b * b, axis=1))


# -- predicates --------------------------------------------------------------


@register_function
def p_even(x):
    return x % 2.0 == 0.0


register_bulk(p_even, lambda b: b % 2.0 == 0.0)


@register_function
def p_div3(x):
    return x % 3.0 == 0.0


register_bulk(p_div3, lambda b: b % 3.0 == 0.0)


@register_function
def p_lt(c, x):
    return x < c


register_bulk(p_lt, lambda c, b: b < c)


@register_function
def p_ge(c, x):
    return x >= c


register_bulk(p_ge, lambda c, b: b >= c)


@register_function
def p_pair_lt(p):
    return p[0] < p[1]


register_bulk(p_pair_lt, lambda t: t[0] < t[1])


@register_function
def p_pair_ne(p):
    return p[0] != p[1]


register_bulk(p_pair_ne, lambda t: t[0] != t[1])


# -- expanders (concatMap bodies): num -> float64 segment --------------------


@register_function
def e_iota(x):
    # x -> [0, 1, ..., (int(x) % 4) - 1]
    return np.arange(int(x) % 4, dtype=np.float64)


def _e_iota_bulk(b):
    b = np.asarray(b)
    ks = b.astype(np.int64) % 4
    total = int(ks.sum())
    if total == 0:
        return np.empty(0, dtype=np.float64), ks
    starts = np.repeat(np.cumsum(ks) - ks, ks)
    return np.arange(total, dtype=np.float64) - starts, ks


register_bulk(e_iota, _e_iota_bulk, SEGMENTED)


@register_function
def e_pairup(x):
    return np.array([x, x + 1.0])


def _e_pairup_bulk(b):
    b = np.asarray(b, dtype=np.float64)
    values = np.column_stack((b, b + 1.0)).reshape(-1)
    return values, np.full(len(b), 2, dtype=np.int64)


register_bulk(e_pairup, _e_pairup_bulk, SEGMENTED)


@register_function
def e_evens(x):
    if int(x) % 2 == 0:
        return np.array([x], dtype=np.float64)
    return np.empty(0, dtype=np.float64)


def _e_evens_bulk(b):
    b = np.asarray(b, dtype=np.float64)
    mask = b.astype(np.int64) % 2 == 0
    return b[mask], mask.astype(np.int64)


register_bulk(e_evens, _e_evens_bulk, SEGMENTED)


# -- set -> int64 segment: the inner loop of a nest fused into one level -------


@register_function
def e_rowbins(nbins, rows):
    """Bin of every row of one set (its sum mod *nbins*): what a nested
    list ``[bin(r) for s in sets for r in s]`` does per ``s``.  Tallies a
    visit per row, like the loop it stands for."""
    for _ in rows:
        meter.tally_visits()
    return np.sum(rows, axis=1).astype(np.int64) % nbins


def _e_rowbins_bulk(nbins, stack):
    k, n = stack.shape[:2]
    meter.tally_uniform(k, n)
    bins = np.sum(stack, axis=2).astype(np.int64) % nbins
    return bins.ravel(), np.full(k, n, dtype=np.int64)


register_bulk(e_rowbins, _e_rowbins_bulk, SEGMENTED)


# -- consumer helpers --------------------------------------------------------


@register_function
def k_binmod(nbins, x):
    # histogram bin index: truncate toward zero, then a nonnegative mod
    return int(x) % nbins


register_bulk(k_binmod, lambda nbins, b: b.astype(np.int64) % nbins)


@register_function
def k_fold(acc, x):
    return acc + 2.0 * x


@register_function
def k_fold_bulk(values):
    return np.sum(2.0 * np.asarray(values))


@register_function
def k_merge(a, b):
    return a + b


# -- draw helpers: (callable-or-closure, python reference, label) ------------


def draw_num_map(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return k_square, (lambda x: x * x), "square"
    if pick == 1:
        return k_add3, (lambda x: x + 3.0), "add3"
    if pick == 2:
        return k_double, (lambda x: x * 2.0), "double"
    if pick == 3:
        return k_neg, (lambda x: -x), "neg"
    if pick == 4:
        c = float(rng.randrange(1, 7))
        return closure(k_addc, c), (lambda x, c=c: x + c), f"addc[{c:g}]"
    c = float(rng.randrange(2, 5))
    return closure(k_scalec, c), (lambda x, c=c: x * c), f"scalec[{c:g}]"


def draw_pair_map(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return k_pair_sum, (lambda p: p[0] + p[1]), "pair_sum"
    if pick == 1:
        return k_pair_prod, (lambda p: p[0] * p[1]), "pair_prod"
    return k_pair_diff, (lambda p: p[0] - p[1]), "pair_diff"


def draw_row_map(rng):
    if rng.randrange(2) == 0:
        return k_row_sum, (lambda r: np.sum(r)), "row_sum"
    return k_row_ssq, (lambda r: np.sum(r * r)), "row_ssq"


def draw_num_pred(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return p_even, (lambda x: x % 2.0 == 0.0), "even"
    if pick == 1:
        return p_div3, (lambda x: x % 3.0 == 0.0), "div3"
    if pick == 2:
        c = float(rng.randrange(1, 9))
        return closure(p_lt, c), (lambda x, c=c: x < c), f"lt[{c:g}]"
    c = float(rng.randrange(1, 9))
    return closure(p_ge, c), (lambda x, c=c: x >= c), f"ge[{c:g}]"


def draw_pair_pred(rng):
    if rng.randrange(2) == 0:
        return p_pair_lt, (lambda p: p[0] < p[1]), "pair_lt"
    return p_pair_ne, (lambda p: p[0] != p[1]), "pair_ne"


def draw_expander(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return e_iota, (lambda x: np.arange(int(x) % 4, dtype=np.float64)), "iota"
    if pick == 1:
        return (
            e_pairup,
            (lambda x: np.array([x, x + 1.0])),
            "pairup",
        )
    return (
        e_evens,
        (
            lambda x: np.array([x], dtype=np.float64)
            if int(x) % 2 == 0
            else np.empty(0, dtype=np.float64)
        ),
        "evens",
    )


def bin_kernel(nbins: int):
    """The histogram bin map: num -> int in [0, nbins)."""
    return (
        closure(k_binmod, nbins),
        (lambda x, n=nbins: int(x) % n),
        f"binmod[{nbins}]",
    )
