"""Ordered indexed streams and their merge algebra.

An :class:`IndexedIter` is a flat iterator over ``(index, value)`` pairs
whose index set is strictly increasing.  Following "Fast Collection
Operations from Indexed Stream Fusion", keeping the index set ordered
makes the relational combinators -- :func:`intersect`,
:func:`union_merge`, :func:`lookup` -- expressible inside the same
constructor algebra as ``map``/``zip``: each one computes *position*
arrays with a sorted-merge kernel (:mod:`repro.core.engine.merge_kernels`)
and defers all value movement to a lazy gather indexer
(:func:`~repro.core.encodings.indexer.gather_idx`).

Structurally an ``IndexedIter`` is always ``zip_idx(key_idx, value_idx)``
wrapped in its own ``Iter`` subclass:

* it *is* an ``IdxFlat``, so every existing consumer, the fusion
  planner, the vectorizing engine, and the distributed driver handle it
  unchanged (the subclass only refines the structural plan key);
* slicing the zip slices keys and values in lockstep, and slicing a
  gathered value stream ships only the touched base span -- which is
  what makes merged streams partition like dense ones.

Duplicate indices in source pairs are canonicalized at construction with
last-occurrence-wins (dict ``update`` semantics), again as a lazy
position gather.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.domains import Seq
from repro.core.encodings.indexer import (
    Idx,
    _extract_array,
    _extract_gather,
    _extract_index,
    _extract_range,
    _extract_zip,
    array_indexer,
    as_closure,
    gather_idx,
    index_indexer,
    map_idx,
    zip_idx,
)
from repro.core.engine.bulk_forms import ELEMENTWISE, bulk_form_of, register_bulk
from repro.core.engine.merge_kernels import (
    as_index_array,
    canonical_positions,
    check_strictly_increasing,
    intersect_positions,
    union_positions,
)
from repro.core.iterators.iter_type import IdxFlat, Iter, ParHint
from repro.core.iterators.transforms import iterate
from repro.serial import Closure, bind, closure, register_function
from repro.serial.closures import _FUNC_TO_ID, resolve_env
from repro.serial.serializer import serializable


@serializable
@dataclass(frozen=True)
class IndexedIter(IdxFlat):
    """A flat iterator over ordered ``(index, value)`` pairs.

    Invariant: ``idx`` is ``zip_idx(key_idx, value_idx)`` over a common
    ``Seq`` domain, with ``key_idx`` enumerating a strictly increasing
    ``int64`` index set.  Everything an ``IdxFlat`` can do (slice, fuse,
    vectorize, partition) applies unchanged; the subclass carries the
    ordering contract and the merge algebra below.
    """

    def _components(self) -> tuple[Idx, Idx]:
        idx = self.idx
        extract = idx.extract
        src = idx.source
        if (
            not isinstance(extract, Closure)
            or _FUNC_TO_ID.get(_extract_zip) != extract.code_id
            or len(extract.env[0]) != 2
            or len(src.members) != 2
        ):
            raise TypeError("IndexedIter.idx must be a two-member zip")
        key = Idx(idx.domain, extract.env[0][0], src.members[0])
        val = Idx(idx.domain, extract.env[0][1], src.members[1])
        return key, val

    @property
    def key_idx(self) -> Idx:
        return self._components()[0]

    @property
    def value_idx(self) -> Idx:
        return self._components()[1]

    def key_array(self) -> np.ndarray:
        """Materialize the index set (construction-time, untallied)."""
        return materialize_index(self.key_idx)

    def to_dict(self) -> dict:
        """Reference semantics: the stream as an index -> value dict."""
        return dict(self.elements())


# ---------------------------------------------------------------------------
# Index-set materialization.  Merges need the operand key arrays eagerly;
# this evaluates a key indexer *without* meter tallies (construction-time
# work happens identically on every execution path and must not perturb
# the differential cost checks).


def materialize_index(idx: Idx) -> np.ndarray:
    n = idx.domain.size
    ctx = idx.source.context()
    cid = idx.extract.code_id if isinstance(idx.extract, Closure) else None
    if cid == _FUNC_TO_ID.get(_extract_array):
        return as_index_array(ctx[:n])
    if cid == _FUNC_TO_ID.get(_extract_index):
        return np.arange(n, dtype=np.int64) + int(ctx[0])
    if cid == _FUNC_TO_ID.get(_extract_range):
        start, step = ctx
        return start + step * np.arange(n, dtype=np.int64)
    if cid == _FUNC_TO_ID.get(_extract_gather):
        pos, _base_ctx = ctx
        base = Idx(Seq(int(pos.max()) + 1 if len(pos) else 0),
                   idx.extract.env[0], idx.source.base)
        return materialize_index(base)[pos]
    extract = bind(idx.extract) if n else None
    return as_index_array([extract(ctx, i) for i in range(n)])


# ---------------------------------------------------------------------------
# Registered merge combinators (the library's "program image")


@register_function
def _pair_add(p):
    return p[0] + p[1]


@register_function
def _pair_add_bulk(p):
    return np.add(p[0], p[1])


register_bulk(_pair_add, _pair_add_bulk, kind=ELEMENTWISE)


@register_function
def _merge_select(f, vvm):
    va, vb, m = vvm
    if m == 3:
        return f((va, vb))
    return va if m == 1 else vb


@register_function
def _merge_select_bulk(f, vvm):
    vas, vbs, ms = vvm
    bf = bulk_form_of(f.code_id) if isinstance(f, Closure) else None
    if bf is not None:
        both = bf.fn(*resolve_env(f.env), (vas, vbs))
    else:
        both = np.asarray([f((va, vb)) for va, vb in zip(vas, vbs)])
    return np.where(ms == 3, both, np.where(ms == 1, vas, vbs))


register_bulk(_merge_select, _merge_select_bulk, kind=ELEMENTWISE)


# ---------------------------------------------------------------------------
# Constructors


def _hint_of(*its: Iter) -> ParHint:
    return max((it.hint for it in its), default=ParHint.SEQ)


def _value_iter(values: Any) -> IdxFlat:
    vit = iterate(values)
    if not isinstance(vit, IdxFlat):
        raise TypeError(
            "indexed streams need random-access values, got "
            f"{type(vit).__name__}"
        )
    if not isinstance(vit.idx.domain, Seq):
        raise TypeError("indexed streams are 1-D (Seq domains only)")
    return vit


def indexed(values: Any) -> IndexedIter:
    """The dense indexed view of *values*: keys are ``0 .. n-1``.

    Key enumeration rides an
    :class:`~repro.core.sources.IndexOffsetSource` (16 wire bytes, stays
    global under block partitioning), so the dense view costs nothing
    over iterating the values directly.
    """
    vit = _value_iter(values)
    key = index_indexer(Seq(vit.idx.domain.size))
    return IndexedIter(zip_idx(key, vit.idx), vit.hint)


def indexed_pairs(keys: Any, values: Any) -> IndexedIter:
    """An indexed stream from parallel ``keys``/``values`` arrays.

    ``keys`` must be sorted ``int64``; duplicates are canonicalized with
    last-occurrence-wins (the dict semantics), implemented as a lazy
    position gather over the values.
    """
    keys = as_index_array(keys)
    vit = _value_iter(values)
    if len(keys) != vit.idx.domain.size:
        raise ValueError(
            f"{len(keys)} keys vs {vit.idx.domain.size} values"
        )
    pos = canonical_positions(keys)
    if len(pos) != len(keys):
        key_idx = array_indexer(keys[pos])
        val_idx = gather_idx(vit.idx, pos)
    else:
        key_idx = array_indexer(keys)
        val_idx = vit.idx
    return IndexedIter(zip_idx(key_idx, val_idx), vit.hint)


def as_indexed(x: Any) -> IndexedIter:
    """Coerce to an indexed stream (dense view for plain collections)."""
    if isinstance(x, IndexedIter):
        return x
    return indexed(x)


# ---------------------------------------------------------------------------
# The merge algebra


def map_values(
    f: Callable | Closure, stream: Any, bulk: Callable | Closure | None = None
) -> IndexedIter:
    """Map *f* over the values, keeping keys (and the subclass) intact.

    Unlike ``tri.map`` -- which sees pairs and returns a plain iterator
    -- this rebuilds the key/value zip, so the result is still an
    ``IndexedIter`` and still merges.
    """
    s = as_indexed(stream)
    key, val = s._components()
    return IndexedIter(zip_idx(key, map_idx(as_closure(f), val, f_bulk=bulk)),
                       s.hint)


def intersect(
    a: Any, b: Any, combine: Callable | Closure | None = None
) -> IndexedIter:
    """Keys present in both streams; values combined (default: pairs).

    The key merge gallops the smaller index set through the larger one
    eagerly; values stay lazy gathers, so distributing the result ships
    only the base rows each rank's key window actually touches.
    *combine*, if given, receives the ``(va, vb)`` pair (register a bulk
    form for it to keep the vectorized engine engaged).
    """
    a, b = as_indexed(a), as_indexed(b)
    ka, kb = a.key_array(), b.key_array()
    pa, pb = intersect_positions(ka, kb)
    val = zip_idx(gather_idx(a.value_idx, pa), gather_idx(b.value_idx, pb))
    if combine is not None:
        val = map_idx(as_closure(combine), val)
    return IndexedIter(zip_idx(array_indexer(ka[pa]), val), _hint_of(a, b))


def union_merge(
    a: Any, b: Any, combine: Callable | Closure | None = None
) -> IndexedIter:
    """All keys of either stream; shared keys combined (default: ``+``).

    One-sided keys keep their own value.  *combine* receives the
    ``(va, vb)`` pair, exactly as in :func:`intersect`.
    """
    a, b = as_indexed(a), as_indexed(b)
    ka, kb = a.key_array(), b.key_array()
    hint = _hint_of(a, b)
    if len(ka) == 0:
        return IndexedIter(b.idx, hint)
    if len(kb) == 0:
        return IndexedIter(a.idx, hint)
    keys, pa, pb, mask = union_positions(ka, kb)
    fc = as_closure(combine) if combine is not None else closure(_pair_add)
    val = map_idx(
        closure(_merge_select, fc),
        zip_idx(
            gather_idx(a.value_idx, pa),
            gather_idx(b.value_idx, pb),
            array_indexer(mask),
        ),
    )
    return IndexedIter(zip_idx(array_indexer(keys), val), hint)


def lookup(stream: Any, keys: Any) -> IndexedIter:
    """Probe *stream* at sorted query *keys*; absent keys drop out.

    This is the asymmetric intersect: the (usually small) probe set
    gallops through the stream's index set, and the result's values are
    a lazy gather of the stream's.
    """
    s = as_indexed(stream)
    ks = s.key_array()
    kq = check_strictly_increasing(np.unique(as_index_array(keys)))
    ps, _pq = intersect_positions(ks, kq)
    return IndexedIter(
        zip_idx(array_indexer(ks[ps]), gather_idx(s.value_idx, ps)),
        s.hint,
    )
