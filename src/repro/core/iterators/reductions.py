"""Iterator consumers: reductions, histograms, builds (paper Fig. 2).

"Functions that consume iterators, like collect and sum, transform each
level of nesting into a loop."  Every consumer here follows the same
recipe: a *sequential* constructor-dispatched loop (the Fig. 2 equations
for ``sum`` and ``collect``), wrapped in a :class:`ConsumeSpec` and routed
through :func:`repro.core.iterators.executor.dispatch`, which consults
the parallelism hint.

Partials are always monoidal (reduce with identity ``empty``), so the
same code yields the per-thread / per-node / cluster-level aggregation
tree of §2's ``dot`` walkthrough: "Each thread computes its own private
sum, and these are summed on each node, producing a single value per node
that is sent back to the main thread."
"""
from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core import meter
from repro.core.domains import Dim2
from repro.core.encodings.indexer import as_closure
from repro.core.encodings.stepper import fold_step
from repro.core.engine import execute as _engine
from repro.core.iterators.executor import ConsumeSpec, dispatch
from repro.core.iterators.iter_type import (
    IdxFlat,
    IdxNest,
    Iter,
    StepFlat,
    StepNest,
)
from repro.core.iterators.transforms import iterate
from repro.serial import Closure, bind, closure, register_function

# ---------------------------------------------------------------------------
# Generic monoidal reduce


@register_function
def _seq_reduce(op, combine, init, bulk_consume, it: Iter):
    """The fused sequential reduction loop (Fig. 2 ``sum``, generalized).

    *op* folds one element into the accumulator; *combine* merges two
    partial accumulators (they coincide for ``sum`` but differ for e.g.
    ``count``); *bulk_consume* turns a whole ndarray of values into one
    partial for the vectorized fast path.
    """
    if isinstance(it, IdxFlat):
        idx = it.idx
        if bulk_consume is not None and idx.bulk is not None:
            values = idx.eval_all()
            return combine(init, bulk_consume(values))
        handled, out = _engine.try_reduce(it, op, combine, init, bulk_consume)
        if handled:
            return out
        ctx = idx.source.context()
        acc = init
        if idx.domain.size:  # an empty slice binds nothing: it was shipped no shards
            op, extract = bind(op), bind(idx.extract)
        for span in meter.task_spans(idx.domain):
            for i in span:
                acc = op(acc, extract(ctx, i))
        return acc
    if isinstance(it, StepFlat):
        return fold_step(op, init, it.step)
    if isinstance(it, IdxNest):
        handled, out = _engine.try_reduce(it, op, combine, init, bulk_consume)
        if handled:
            return out
        idx = it.idx
        ctx = idx.source.context()
        acc = init
        if idx.domain.size:
            op, extract = bind(op), bind(idx.extract)  # the bound op goes down the nest
        for span in meter.task_spans(idx.domain, visits=False):
            for i in span:
                acc = _seq_reduce(op, combine, acc, bulk_consume, extract(ctx, i))
        return acc
    if isinstance(it, StepNest):
        state = it.step.state0
        stepf = bind(it.step.stepf)
        acc = init
        while True:
            meter.tally_steps()
            tag, inner, state = stepf(state)
            if tag == 0:  # Yield
                acc = _seq_reduce(op, combine, acc, bulk_consume, inner)
            elif tag == 2:  # Done
                return acc
    raise TypeError(f"not an iterator: {type(it).__name__}")


def treduce(
    op: Callable | Closure,
    init: Any,
    it: Any,
    bulk: Callable | Closure | None = None,
    combine: Callable | Closure | None = None,
) -> Any:
    """``reduce``: monoidal reduction with identity *init*.

    ``bulk`` optionally reduces a whole ndarray of values at once (e.g.
    ``np.sum``) on the indexer fast path; ``combine`` merges two partial
    accumulators and defaults to *op* (correct whenever elements and
    accumulators share a type, as in ``sum``).
    """
    it = iterate(it)
    opc = as_closure(op)
    cc = as_closure(combine) if combine is not None else opc
    bc = as_closure(bulk) if bulk is not None else None
    spec = ConsumeSpec(
        kind="reduce",
        seq_fn=closure(_seq_reduce, opc, cc, init, bc),
        combine=cc,
    )
    return dispatch(it, spec)


@register_function
def _add(a, b):
    return a + b


@register_function
def _np_sum(values):
    # Sum along the element axis only: elements may themselves be arrays
    # (e.g. summing rows), and ``a + b`` semantics are elementwise.
    return np.sum(values, axis=0)


def tsum(it: Any, zero: Any = 0.0) -> Any:
    """``sum`` (Fig. 2): works on numbers and on numpy-array elements."""
    return treduce(_add, zero, it, bulk=_np_sum)


def tmin(it: Any, top: Any = np.inf) -> Any:
    return treduce(min, top, it, bulk=closure(_np_min))


def tmax(it: Any, bottom: Any = -np.inf) -> Any:
    return treduce(max, bottom, it, bulk=closure(_np_max))


@register_function
def _np_min(values):
    return np.min(values) if len(values) else np.inf


@register_function
def _np_max(values):
    return np.max(values) if len(values) else -np.inf


def count(it: Any) -> int:
    """Number of innermost elements."""
    return treduce(_count_op, 0, it, bulk=_count_bulk, combine=_add)


@register_function
def _count_op(acc, _x):
    return acc + 1


@register_function
def _count_bulk(values):
    return len(values)


# ---------------------------------------------------------------------------
# Histogramming (a collector consumer; paper §3.1, §4.4, §4.5)


@register_function
def _hist_scatter(hist, value):
    """Accumulate one histogram contribution; see ``histogram`` for forms.

    Visit accounting is the producer's job (the reduction loop tallies one
    visit per element; vectorized element kernels tally their inner counts
    with ``tally_inner``), so scattering tallies nothing extra.
    """
    if isinstance(value, tuple):
        b, w = value
        if isinstance(b, np.ndarray):
            np.add.at(hist, b, w)
        else:
            hist[b] += w
    else:
        if isinstance(value, np.ndarray):
            # Unweighted counts: per-bin totals are small integers, so
            # float accumulation is exact under any grouping and the
            # (much faster) bincount sum equals element-order np.add.at
            # bit for bit.  Weighted scatters above must keep np.add.at:
            # regrouping float weights would change the rounding.
            if value.size:
                hist += np.bincount(value, minlength=len(hist)).astype(
                    hist.dtype, copy=False
                )
        else:
            hist[value] += 1
    return hist


@register_function
def _seq_histogram(nbins, dtype_str, it: Iter):
    hist = np.zeros(nbins, dtype=np.dtype(dtype_str))
    scatter = closure(_hist_scatter)
    if isinstance(it, (IdxFlat, IdxNest)):
        # The scatter is order-equivalent over a whole chunk (np.add.at
        # performs the per-element additions in element order), so the
        # engine consumes entire chunks with one scatter call.
        handled, out = _engine.try_reduce(
            it, scatter, closure(_add), hist, None, chunk_op=scatter
        )
        if handled:
            return out
    return _seq_reduce(scatter, closure(_add), hist, None, it)


def histogram(nbins: int, it: Any, dtype=np.float64) -> np.ndarray:
    """``histogram``: collect elements into *nbins* counters.

    Elements may be: a bin index (count 1), a ``(bin, weight)`` pair, or
    -- for vectorized inner loops -- a pair of ndarrays ``(bins,
    weights)`` / an ndarray of bins, scattered with ``np.add.at``.

    Under a PAR/LOCAL hint each task builds a private histogram and the
    runtime adds them pairwise: "a distributed-parallel histogram performs
    a distributed reduction, which performs one threaded reduction per
    node, which sequentially builds one histogram per thread" (§3.4).
    """
    it = iterate(it)
    spec = ConsumeSpec(
        kind="reduce",
        seq_fn=closure(_seq_histogram, nbins, np.dtype(dtype).str),
        combine=closure(_add),
    )
    return dispatch(it, spec)


# ---------------------------------------------------------------------------
# Builds: materializing an iterator into an array / list


@register_function
def _append(acc: list, x):
    acc.append(x)
    return acc


@register_function
def _seq_collect(it: Iter) -> list:
    """Flatten into a list (the pack-into-array collector consumer)."""
    if isinstance(it, IdxFlat):
        if it.idx.bulk is None:
            handled, out = _engine.try_collect(it)
            if handled:
                return out
        values = it.idx.eval_all()
        return list(values)
    if isinstance(it, IdxNest):
        handled, out = _engine.try_collect(it)
        if handled:
            return out
    return _seq_reduce(closure(_append), closure(_add), [], None, it)


def collect_list(it: Any) -> list:
    """Materialize all innermost elements, in order, as a list."""
    it = iterate(it)
    if it.hint.value:  # parallel collect routes through the runtime
        spec = ConsumeSpec(
            kind="reduce",
            seq_fn=closure(_seq_collect),
            combine=closure(_add),
            ordered=True,  # list concat: associative, not commutative
        )
        return dispatch(it, spec)
    return _seq_collect(it)


@register_function
def _seq_build(it: Iter):
    """Materialize an iterator as a numpy array shaped by its domain."""
    if isinstance(it, IdxFlat):
        dom = it.idx.domain
        if it.idx.bulk is None:
            handled, out = _engine.try_build(it)
            if handled:
                return out
        values = it.idx.eval_all()
        arr = np.asarray(values)
        if isinstance(dom, Dim2) and arr.ndim >= 1 and arr.shape[0] == dom.size:
            # Row-major evaluation of a Dim2 domain: restore the 2-D shape
            # (trailing dims belong to the element values themselves).
            return arr.reshape(dom.h, dom.w, *arr.shape[1:])
        return arr
    return np.asarray(_seq_collect(it))


def build(it: Any) -> np.ndarray:
    """``build``: evaluate into a dense array (2-D for Dim2 domains).

    This is the comprehension consumer: ``[f(x) for x in xs]`` desugars to
    ``build(map(f, xs))``.
    """
    it = iterate(it)
    spec = ConsumeSpec(kind="build", seq_fn=closure(_seq_build))
    return dispatch(it, spec)
