"""Extended skeleton library beyond the paper's Fig. 2 core.

These are the operations a production skeleton library grows around the
four fundamental transforms, all built on the same constructor-dispatch
machinery so they fuse and (where semantics allow) parallelize:

* ``enumerate_iter``, ``take``, ``drop``, ``append`` -- structural;
* ``scan`` -- sequential fused prefix reduction; ``prefix_sum`` -- the
  *multipass parallel* scan of §3.1 ("because parallel scan is a
  multipass algorithm, fusion is impossible"), used by the fusion
  ablation to show exactly that;
* ``any_match`` / ``all_match`` / ``find_first`` -- short-circuiting
  consumers (driven through steppers, the encoding that can stop);
* ``group_reduce`` -- reduce-by-key with dict-monoid partials (fully
  parallelizable);
* ``mean_variance`` -- Welford-mergeable statistics (a non-trivial
  monoid exercising the same reduce tree);
* ``argmin``/``argmax``.
"""
from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core import meter
from repro.core.encodings.indexer import as_closure
from repro.core.encodings.stepper import Step, yield_, skip, DONE
from repro.core.iterators.executor import ConsumeSpec, dispatch
from repro.core.iterators.iter_type import IdxFlat, Iter, StepFlat
from repro.core.iterators.reductions import treduce
from repro.core.iterators.transforms import iterate, to_step, tzip
from repro.serial import Closure, closure, register_function


# ---------------------------------------------------------------------------
# Structural combinators


def enumerate_iter(it: Any) -> Iter:
    """Pair each element with its position: ``(i, x)``.

    Flat indexers keep random access (zip with the index iterator);
    variable-length iterators get a counting stepper.
    """
    it = iterate(it)
    if isinstance(it, IdxFlat):
        from repro.core.domains.multi import indices

        return tzip(indices(it.domain), it)
    st = to_step(it)
    return StepFlat(Step((st.state0, 0), closure(_step_enum, st.stepf)))


@register_function
def _step_enum(inner, state):
    inner_state, i = state
    tag, value, inner_state2 = inner(inner_state)
    if tag == 0:  # Yield
        return yield_((i, value), (inner_state2, i + 1))
    if tag == 1:  # Skip
        return skip((inner_state2, i))
    return DONE


def take(n: int, it: Any) -> Iter:
    """The first *n* elements."""
    if n < 0:
        raise ValueError(f"take needs n >= 0, got {n}")
    it = iterate(it)
    if isinstance(it, IdxFlat):
        hi = min(n, it.domain.outer_extent)
        return IdxFlat(it.idx.slice(0, hi), it.hint)
    st = to_step(it)
    return StepFlat(Step((st.state0, 0), closure(_step_take, st.stepf, n)))


@register_function
def _step_take(inner, n, state):
    inner_state, taken = state
    if taken >= n:
        return DONE
    tag, value, inner_state2 = inner(inner_state)
    if tag == 0:
        return yield_(value, (inner_state2, taken + 1))
    if tag == 1:
        return skip((inner_state2, taken))
    return DONE


def drop(n: int, it: Any) -> Iter:
    """All but the first *n* elements."""
    if n < 0:
        raise ValueError(f"drop needs n >= 0, got {n}")
    it = iterate(it)
    if isinstance(it, IdxFlat):
        extent = it.domain.outer_extent
        lo = min(n, extent)
        return IdxFlat(it.idx.slice(lo, extent), it.hint)
    st = to_step(it)
    return StepFlat(Step((st.state0, 0), closure(_step_drop, st.stepf, n)))


@register_function
def _step_drop(inner, n, state):
    inner_state, dropped = state
    tag, value, inner_state2 = inner(inner_state)
    if tag == 0:
        if dropped < n:
            return skip((inner_state2, dropped + 1))
        return yield_(value, (inner_state2, n))
    if tag == 1:
        return skip((inner_state2, dropped))
    return DONE


def append(a: Any, b: Any) -> Iter:
    """Concatenate two iterators (sequential stepper form)."""
    sa, sb = to_step(iterate(a)), to_step(iterate(b))
    return StepFlat(
        Step((0, sa.state0), closure(_step_append, sa.stepf, sb.stepf, sb.state0))
    )


@register_function
def _step_append(first, second, second_state0, state):
    which, inner_state = state
    stepf = first if which == 0 else second
    tag, value, inner_state2 = stepf(inner_state)
    if tag == 0:
        return yield_(value, (which, inner_state2))
    if tag == 1:
        return skip((which, inner_state2))
    if which == 0:
        return skip((1, second_state0))
    return DONE


# ---------------------------------------------------------------------------
# Scans


def scan(op: Callable | Closure, init: Any, it: Any) -> Iter:
    """Fused sequential inclusive prefix reduction.

    Scans are inherently order-dependent, so the result is a stepper
    (sequential) regardless of the input's shape -- fusion survives,
    parallelism does not.  For a parallel prefix sum see
    :func:`prefix_sum`.
    """
    st = to_step(iterate(it))
    opc = as_closure(op)
    return StepFlat(Step((st.state0, init), closure(_step_scan, opc, st.stepf)))


@register_function
def _step_scan(op, inner, state):
    inner_state, acc = state
    tag, value, inner_state2 = inner(inner_state)
    if tag == 0:
        acc2 = op(acc, value)
        return yield_(acc2, (inner_state2, acc2))
    if tag == 1:
        return skip((inner_state2, acc))
    return DONE


def prefix_sum(xs: np.ndarray, nblocks: int = 16) -> np.ndarray:
    """Block-parallel inclusive prefix sum -- deliberately multipass.

    §3.1: "The usual solution is to precompute the necessary index
    information using a parallel scan, but because parallel scan is a
    multipass algorithm, fusion is impossible; all temporary values have
    to be saved to memory at some point."

    Pass 1 reduces each block to a sum; the block offsets are scanned;
    pass 2 re-reads the data to produce the local prefixes.  The meter
    records two full passes and the materialized block sums, which is
    exactly what the fusion ablation contrasts with the hybrid
    iterators' single fused pass.
    """
    from repro.partition import block_bounds
    from repro.serial.sizeof import transitive_size

    if nblocks < 1:
        raise ValueError(f"need at least one block, got {nblocks}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return xs.copy()
    bounds = block_bounds(len(xs), min(nblocks, len(xs)))
    # Pass 1: per-block sums (parallelizable; temporaries materialize).
    block_sums = np.array([xs[lo:hi].sum() for lo, hi in bounds])
    meter.tally_uniform(xs.size, 1)
    meter.tally_pass()
    meter.tally_materialization(transitive_size(block_sums))
    offsets = np.concatenate([[0.0], np.cumsum(block_sums)[:-1]])
    # Pass 2: per-block local scans shifted by their offsets.
    out = np.empty_like(xs)
    for (lo, hi), base in zip(bounds, offsets):
        out[lo:hi] = base + np.cumsum(xs[lo:hi])
    meter.tally_uniform(xs.size, 1)
    meter.tally_pass()
    return out


# ---------------------------------------------------------------------------
# Short-circuiting consumers (steppers are the encoding that can stop)


def find_first(pred: Callable, it: Any, default: Any = None) -> Any:
    """The first element satisfying *pred*, without visiting the rest."""
    st = to_step(iterate(it))
    state = st.state0
    stepf = st.stepf
    while True:
        meter.tally_steps()
        tag, value, state = stepf(state)
        if tag == 0:
            meter.tally_visits()
            if pred(value):
                return value
        elif tag == 2:
            return default


_SENTINEL = object()


def any_match(pred: Callable, it: Any) -> bool:
    return find_first(pred, it, default=_SENTINEL) is not _SENTINEL


def all_match(pred: Callable, it: Any) -> bool:
    return find_first(lambda x: not pred(x), it, default=_SENTINEL) is _SENTINEL


# ---------------------------------------------------------------------------
# Keyed and statistical reductions (parallelizable monoids)


@register_function
def _group_insert(key_fn, op, acc: dict, x):
    k = key_fn(x)
    if k in acc:
        acc[k] = op(acc[k], x)
    else:
        acc[k] = x
    return acc


@register_function
def _merge_dicts(op, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = op(out[k], v) if k in out else v
    return out


def group_reduce(key_fn: Callable | Closure, op: Callable | Closure, it: Any) -> dict:
    """Reduce elements sharing a key: ``{k: op-fold of elements}``.

    Dict partials merge associatively, so a ``par`` input distributes
    like any histogram.
    """
    kc, opc = as_closure(key_fn), as_closure(op)
    from repro.core.iterators.reductions import _seq_reduce

    it = iterate(it)
    spec = ConsumeSpec(
        kind="reduce",
        seq_fn=closure(_seq_group, kc, opc),
        combine=closure(_merge_dicts, opc),
    )
    return dispatch(it, spec)


@register_function
def _seq_group(key_fn, op, it: Iter) -> dict:
    from repro.core.iterators.reductions import _seq_reduce

    return _seq_reduce(
        closure(_group_insert, key_fn, op),
        closure(_merge_dicts, op),
        {},
        None,
        it,
    )


@register_function
def _welford_insert(acc, x):
    n, total, m2 = acc
    n2 = n + 1
    delta = x - (total / n if n else 0.0)
    total2 = total + x
    mean2 = total2 / n2
    m2b = m2 + delta * (x - mean2)
    return (n2, total2, m2b)


@register_function
def _welford_merge(a, b):
    na, ta, m2a = a
    nb, tb, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = tb / nb - ta / na
    return (n, ta + tb, m2a + m2b + delta * delta * na * nb / n)


def mean_variance(it: Any) -> tuple[float, float]:
    """Streaming mean and population variance (Chan/Welford merge).

    The partial ``(count, sum, M2)`` is a true monoid, so ``par`` inputs
    reduce tree-wise without precision loss from naive sum-of-squares.
    """
    it = iterate(it)
    from repro.core.iterators.reductions import _seq_reduce

    spec = ConsumeSpec(
        kind="reduce",
        seq_fn=closure(_seq_welford),
        combine=closure(_welford_merge),
    )
    n, total, m2 = dispatch(it, spec)
    if n == 0:
        raise ValueError("mean_variance of an empty iterator")
    return total / n, m2 / n


@register_function
def _seq_welford(it: Iter):
    from repro.core.iterators.reductions import _seq_reduce

    return _seq_reduce(
        closure(_welford_insert), closure(_welford_merge), (0, 0.0, 0.0), None, it
    )


@register_function
def _argbest_op(better, acc, ix):
    i, x = ix
    if acc is None:
        return (i, x)
    if better(x, acc[1]):
        return (i, x)
    return acc


@register_function
def _argbest_merge(better, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return b if better(b[1], a[1]) else a


def _argbest(better: Closure, it: Any) -> tuple:
    pairs = enumerate_iter(iterate(it))
    out = treduce(
        closure(_argbest_op, better),
        None,
        pairs,
        combine=closure(_argbest_merge, better),
    )
    if out is None:
        raise ValueError("arg reduction over an empty iterator")
    return out


@register_function
def _lt(a, b):
    return a < b


@register_function
def _gt(a, b):
    return a > b


def argmin(it: Any) -> int:
    """Index of the smallest element (first on ties)."""
    return _argbest(closure(_lt), it)[0]


def argmax(it: Any) -> int:
    """Index of the largest element (first on ties)."""
    return _argbest(closure(_gt), it)[0]
