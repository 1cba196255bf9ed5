"""The indexer encoding (paper §3.1, "Indexers").

"An indexer encoding consists of a size and a lookup function."  After the
§3.5 reorganization, the lookup function is split into a *data source* and
an *extractor*: ``lookup(i) = extract(source.context(), i)``.  Extractors
are serializable closures built from the registered combinators below, so
a sliced indexer ships as (domain, extractor code id, sliced source).

Random access makes indexers parallelizable and zippable, but they cannot
encode variable-output loops (filter/concatMap) or mutation -- exactly the
Fig. 1 feature row.

The optional ``bulk`` closure is the vectorized fast path: it evaluates
the whole domain into one numpy array, preserving fusion (a mapped bulk
composes functionally) while letting kernels run at numpy speed.  It
plays the role the paper's compiler plays when it simplifies a fused loop
body into tight native code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import meter
from repro.core.domains import Dim2, Domain, Seq
from repro.core.sources import (
    ArraySource,
    DataSource,
    GatherSource,
    IndexOffsetSource,
    OuterProductSource,
    RangeSource,
    TupleSource,
    WholeObjectSource,
)
from repro.serial import Closure, bind, binds, closure, register_function
from repro.serial.serializer import serializable


def as_closure(fn: Callable | Closure) -> Closure:
    """Coerce a plain callable to a registered, serializable closure."""
    if isinstance(fn, Closure):
        return fn
    return closure(fn)


@serializable
@dataclass(frozen=True)
class Idx:
    """An indexer: domain + extractor + data source (+ optional bulk)."""

    domain: Domain
    extract: Closure  # (source_context, index) -> value
    source: DataSource
    bulk: Closure | None = None  # (source_context, domain) -> ndarray

    def lookup(self, i: Any) -> Any:
        """Retrieve the element at (local) index *i*."""
        meter.tally_lookups()
        return self.extract(self.source.context(), i)

    @property
    def size(self) -> int:
        return self.domain.size

    # -- slicing (the §3.5 partitioning interface) -------------------------

    def slice(self, lo: int, hi: int) -> "Idx":
        """Outer positions ``[lo, hi)`` with the matching source subset."""
        return Idx(
            self.domain.outer_block(lo, hi),
            self.extract,
            self.source.slice_outer(lo, hi),
            self.bulk,
        )

    def slice_block(self, rows: tuple[int, int], cols: tuple[int, int]) -> "Idx":
        """A 2-D block (rows x cols) of a Dim2 indexer, source-sliced on
        both axes -- the sgemm block decomposition."""
        if not isinstance(self.domain, Dim2):
            raise TypeError("slice_block requires a Dim2 indexer")
        dom = self.domain.outer_block(*rows).inner_block(*cols)
        src = self.source.slice_outer(*rows).slice_inner(*cols)
        return Idx(dom, self.extract, src, self.bulk)

    # -- evaluation ----------------------------------------------------------

    def eval_all(self) -> np.ndarray | list:
        """Evaluate every element (bulk path if available)."""
        ctx = self.source.context()
        if self.bulk is not None:
            for lo, hi in meter.batches(self.domain, max(1, self.domain.size)):
                meter.tally_elements(hi - lo)  # one batch: evaluated at once
            return self.bulk(ctx, self.domain)
        # An empty slice binds nothing: it was shipped no shards to resolve.
        extract = bind(self.extract) if self.domain.size else None
        return [
            extract(ctx, i)
            for span in meter.task_spans(self.domain)
            for i in span
        ]


# ---------------------------------------------------------------------------
# Extractor combinators (the shared "program image" of extractor code)


@register_function
def _extract_array(arr, i):
    return arr[i]


@register_function
def _bulk_array(arr, domain):
    return arr[: domain.size] if isinstance(domain, Seq) else np.asarray(arr)


@register_function
def _extract_range(ctx, i):
    start, step = ctx
    return start + i * step


@register_function
def _extract_index(ctx, i):
    outer, inner = ctx
    if isinstance(i, tuple):
        if len(i) == 2:
            return (i[0] + outer, i[1] + inner)
        return (i[0] + outer, i[1] + inner, *i[2:])
    return i + outer


@register_function
def _extract_whole(ctx, i):
    value, offset = ctx
    return value[offset + i]


@register_function
def _extract_map(f, g, ctx, i):
    return f(g(ctx, i))


@binds(_extract_map)
def _bind_map(f, g):
    f, g = bind(f), bind(g)
    return lambda ctx, i: f(g(ctx, i))


@register_function
def _bulk_map(fb, gb, ctx, domain):
    return fb(gb(ctx, domain))


@register_function
def _extract_zip(gs, ctx, i):
    return tuple(g(c, i) for g, c in zip(gs, ctx))


def _zip_mismatch(gs, ctx):
    raise ValueError(
        f"zip extractor over {[getattr(g, 'code_id', g) for g in gs]} "
        f"got a source context of {len(ctx)} members"
    )


@binds(_extract_zip)
def _bind_zip(gs):
    # Unlike the zip() above, never truncates on a short source context.
    n, bound = len(gs), tuple(bind(g) for g in gs)
    if n == 2:
        a, b = bound
        return lambda c, i: (a(c[0], i), b(c[1], i)) if len(c) == 2 else _zip_mismatch(gs, c)
    if n == 3:
        a, b, d = bound
        return lambda c, i: (
            (a(c[0], i), b(c[1], i), d(c[2], i)) if len(c) == 3 else _zip_mismatch(gs, c)
        )
    return lambda c, i: (
        tuple([g(k, i) for g, k in zip(bound, c)]) if len(c) == n else _zip_mismatch(gs, c)
    )


@register_function
def _extract_outer(gu, gv, ctx, yx):
    y, x = yx
    return (gu(ctx[0], y), gv(ctx[1], x))


@binds(_extract_outer)
def _bind_outer(gu, gv):
    gu, gv = bind(gu), bind(gv)
    return lambda ctx, yx: (gu(ctx[0], yx[0]), gv(ctx[1], yx[1]))


@register_function
def _extract_gather(g, ctx, i):
    pos, base_ctx = ctx
    return g(base_ctx, int(pos[i]))


@binds(_extract_gather)
def _bind_gather(g):
    g = bind(g)
    return lambda ctx, i: g(ctx[1], int(ctx[0][i]))


# ---------------------------------------------------------------------------
# Constructors


def array_indexer(arr: np.ndarray) -> Idx:
    """Index an array along axis 0 (rows of a 2-D array are elements)."""
    arr = np.asarray(arr)
    return Idx(
        Seq(len(arr)),
        closure(_extract_array),
        ArraySource(arr),
        closure(_bulk_array),
    )


def range_indexer(n: int, start: int = 0, step: int = 1) -> Idx:
    """The integer sequence ``start, start+step, ...`` of length *n*.

    No ``bulk`` closure: the engine's range node is this leaf's one
    vectorized form, so ``eval_all`` yields what the extractor yields."""
    return Idx(
        Seq(n),
        closure(_extract_range),
        RangeSource(start, step),
    )


def index_indexer(domain: Domain) -> Idx:
    """Yields each index of *domain* itself (``indices(domain(..))``).

    The source carries the slice origin, so block-partitioned chunks
    still yield global coordinates (a transpose task must read the
    original matrix positions).
    """
    return Idx(domain, closure(_extract_index), IndexOffsetSource())


def whole_list_indexer(values: list, n: int | None = None) -> Idx:
    """An unpartitionable source (Eden-style whole-object shipping)."""
    return Idx(
        Seq(len(values) if n is None else n),
        closure(_extract_whole),
        WholeObjectSource(values),
    )


def map_idx(f: Callable | Closure, idx: Idx, f_bulk: Callable | Closure | None = None) -> Idx:
    """``mapIdx``: compose *f* onto the extractor (fusion by composition)."""
    fc = as_closure(f)
    new_extract = closure(_extract_map, fc, idx.extract)
    new_bulk = None
    if f_bulk is not None and idx.bulk is not None:
        new_bulk = closure(_bulk_map, as_closure(f_bulk), idx.bulk)
    return Idx(idx.domain, new_extract, idx.source, new_bulk)


def gather_idx(base: Idx, pos: np.ndarray) -> Idx:
    """``gatherIdx``: read *base* at explicit sorted positions.

    The result is a ``Seq(len(pos))`` indexer whose element *i* is
    ``base[pos[i]]``; slicing it ships only the base span the position
    window touches (:class:`~repro.core.sources.GatherSource`).  Fusion
    is by composition, same as ``map_idx``: maps applied to *base* ride
    inside the gathered extractor.
    """
    pos = np.ascontiguousarray(pos, dtype=np.int64)
    return Idx(
        Seq(len(pos)),
        closure(_extract_gather, base.extract),
        GatherSource(pos, base.source),
    )


def zip_idx(*idxs: Idx) -> Idx:
    """``zipIdx``: lockstep pairing; domain is the intersection (§3.3)."""
    if not idxs:
        raise ValueError("zip_idx needs at least one indexer")
    dom = idxs[0].domain
    for other in idxs[1:]:
        dom = dom.intersect(other.domain)
    extract = closure(_extract_zip, tuple(i.extract for i in idxs))
    return Idx(dom, extract, TupleSource(tuple(i.source for i in idxs)))


def outer_product_idx(u: Idx, v: Idx) -> Idx:
    """A Dim2 indexer pairing every element of *u* with every one of *v*."""
    dom = Dim2(u.domain.size, v.domain.size)
    extract = closure(_extract_outer, u.extract, v.extract)
    return Idx(dom, extract, OuterProductSource(u.source, v.source))
