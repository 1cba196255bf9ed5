"""Constructor-dispatched skeleton transforms (paper Fig. 2).

Each function inspects its input iterator's constructor ("what loop
structure was passed in") and executes the equation from Fig. 2 for that
constructor.  "A function's output loop structure is always determined
solely by its input loop structure", so pipelines of these calls always
reduce to a statically known nest of indexers and steppers -- which is
the whole fusion story.

Where the paper's compiler performs constructor-aware *inlining*, Python
performs constructor dispatch at iterator-construction time; the result
is the same fused structure, observable with
:func:`repro.core.fusion.report.analyze`.
"""
from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.encodings.indexer import (
    Idx,
    array_indexer,
    as_closure,
    map_idx,
    whole_list_indexer,
    zip_idx,
)
from repro.core.encodings.stepper import (
    Step,
    concat_map_step,
    filter_step,
    map_step,
    unit_stepper,
    zip_step,
)
from repro.core.encodings.conversions import idx_to_step
from repro.core.iterators.iter_type import (
    IdxFlat,
    IdxNest,
    Iter,
    ParHint,
    StepFlat,
    StepNest,
)
from repro.serial import Closure, bind, binds, closure, register_function


def iterate(source: Any) -> Iter:
    """Coerce a value to an iterator.

    Arrays become partitionable indexer iterators; plain Python lists
    become whole-object iterators (they have no sliceable buffer); Iters
    pass through; other iterables are materialized first.
    """
    if isinstance(source, Iter):
        return source
    if isinstance(source, Idx):
        return IdxFlat(source)
    if isinstance(source, Step):
        return StepFlat(source)
    if hasattr(source, "__triolet_idx__"):
        # Data-plane handles (and anything else indexer-shaped) supply
        # their own indexer, whose source resolves on the executing rank.
        return IdxFlat(source.__triolet_idx__())
    if isinstance(source, np.ndarray):
        return IdxFlat(array_indexer(source))
    if isinstance(source, range):
        from repro.core.encodings.indexer import range_indexer

        return IdxFlat(range_indexer(len(source), source.start, source.step))
    if isinstance(source, list):
        return IdxFlat(whole_list_indexer(source))
    if hasattr(source, "__iter__"):
        return IdxFlat(whole_list_indexer(list(source)))
    raise TypeError(f"cannot iterate over {type(source).__name__}")


# ---------------------------------------------------------------------------
# Registered inner-iterator combinators (the library's "program image")


@register_function
def _map_inner(f, inner: Iter) -> Iter:
    return tmap(f, inner)


@register_function
def _filter_unit(pred, x) -> Iter:
    # filter over one element: a stepper yielding x or nothing.
    return StepFlat(filter_step(pred, unit_stepper(x)))


@register_function
def _filter_inner(pred, inner: Iter) -> Iter:
    return tfilter(pred, inner)


@register_function
def _concat_elem(f, x) -> Iter:
    return iterate(f(x))


@binds(_concat_elem)
def _bind_concat_elem(f):
    f = bind(f)  # only ever called here, never handed on as data
    return lambda x: iterate(f(x))


@register_function
def _concat_inner(f, inner: Iter) -> Iter:
    return concat_map(f, inner)


@register_function
def _to_step_fn(it: Iter) -> Step:
    return to_step(it)


# ---------------------------------------------------------------------------
# Fig. 2 functions


def to_step(it: Iter) -> Step:
    """``toStep``: flatten any iterator into a sequential stepper."""
    if isinstance(it, IdxFlat):
        return idx_to_step(it.idx)
    if isinstance(it, StepFlat):
        return it.step
    if isinstance(it, IdxNest):
        return concat_map_step(closure(_to_step_fn), idx_to_step(it.idx))
    if isinstance(it, StepNest):
        return concat_map_step(closure(_to_step_fn), it.step)
    raise TypeError(f"not an iterator: {type(it).__name__}")


def tmap(f: Callable | Closure, it: Iter, bulk: Callable | Closure | None = None) -> Iter:
    """``map``: apply *f* to every innermost element.

    ``bulk`` optionally supplies the vectorized form of *f* (ndarray ->
    ndarray) used on the indexer fast path.
    """
    it = iterate(it)
    fc = as_closure(f)
    if isinstance(it, IdxFlat):
        return IdxFlat(map_idx(fc, it.idx, f_bulk=bulk), it.hint)
    if isinstance(it, StepFlat):
        return StepFlat(map_step(fc, it.step), it.hint)
    inner = closure(_map_inner, fc)
    if isinstance(it, IdxNest):
        return IdxNest(map_idx(inner, it.idx), it.hint)
    return StepNest(map_step(inner, it.step), it.hint)


def tzip(*its: Any) -> Iter:
    """``zip``: lockstep pairing (Fig. 2's two-equation dispatch).

    Flat indexers zip into a flat indexer, preserving parallelism; any
    variable-length operand forces a sequential stepper zip.
    """
    its = [iterate(x) for x in its]
    if len(its) < 2:
        raise ValueError("zip needs at least two iterators")
    if all(isinstance(it, IdxFlat) for it in its):
        hint = max((it.hint for it in its), default=ParHint.SEQ)
        return IdxFlat(zip_idx(*(it.idx for it in its)), hint)
    steps = [to_step(it) for it in its]
    zipped = steps[0]
    for s in steps[1:]:
        zipped = zip_step(zipped, s)
    if len(steps) > 2:
        zipped = map_step(closure(_flatten_pairs), zipped)
    return StepFlat(zipped)


@register_function
def _flatten_pairs(nested):
    # ((..(a, b), c), d) -> (a, b, c, d)
    out = []
    cur = nested
    while isinstance(cur, tuple) and len(cur) == 2 and isinstance(cur[0], tuple):
        out.append(cur[1])
        cur = cur[0]
    if isinstance(cur, tuple):
        out.extend(reversed(cur))
    else:
        out.append(cur)
    out.reverse()
    return tuple(out)


def tfilter(pred: Callable | Closure, it: Any) -> Iter:
    """``filter``: keep elements satisfying *pred* (Fig. 2).

    On an indexable input, filtering does **not** reassign indices: it
    produces zero-or-one-element inner steppers under a random-access
    outer level (``IdxNest``), keeping the outer loop partitionable.
    """
    it = iterate(it)
    pc = as_closure(pred)
    if isinstance(it, IdxFlat):
        return IdxNest(map_idx(closure(_filter_unit, pc), it.idx), it.hint)
    if isinstance(it, StepFlat):
        return StepFlat(filter_step(pc, it.step), it.hint)
    if isinstance(it, IdxNest):
        return IdxNest(map_idx(closure(_filter_inner, pc), it.idx), it.hint)
    return StepNest(map_step(closure(_filter_inner, pc), it.step), it.hint)


def concat_map(f: Callable | Closure, it: Any) -> Iter:
    """``concatMap``: map *f* (element -> collection) and flatten (Fig. 2).

    Adds exactly one level of loop nesting, preserving outer-loop
    parallelism for indexable inputs.
    """
    it = iterate(it)
    fc = as_closure(f)
    if isinstance(it, IdxFlat):
        return IdxNest(map_idx(closure(_concat_elem, fc), it.idx), it.hint)
    if isinstance(it, StepFlat):
        return StepNest(map_step(closure(_concat_elem, fc), it.step), it.hint)
    if isinstance(it, IdxNest):
        return IdxNest(map_idx(closure(_concat_inner, fc), it.idx), it.hint)
    return StepNest(map_step(closure(_concat_inner, fc), it.step), it.hint)
