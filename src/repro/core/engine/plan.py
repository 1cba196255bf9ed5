"""Compile a fused iterator pipeline into a chunked NumPy batch plan.

The scalar encodings evaluate a fused pipeline one Python closure call
per element; this module walks the same closure tree **once**, at plan
time, and emits a small tree of batch nodes that evaluate a whole chunk
of the domain per call:

* indexer leaves (``_extract_array`` / ``_extract_range`` /
  ``_extract_index``) become sliced/fancy-indexed reads;
* ``_extract_map`` becomes an application of the kernel's registered
  bulk form (:mod:`repro.core.engine.bulk_forms`);
* ``_extract_zip`` / ``_extract_outer`` route chunk positions to their
  member chains;
* ``filter`` nests (``_filter_unit``) become boolean masks and
  ``concatMap`` nests (``_concat_elem``) become segment expansion, with
  ``_map_inner`` stages applied to the flattened values.

A plan is **structural**: it never captures closure environments (the
data), only code ids and tree shape.  At run time each batch node
re-navigates the live closure tree positionally, so one cached plan
serves every slice of a partitioned pipeline, every SPMD rank, and
every re-execution after a crash.

Bit-identity contract: a plan applied to a pipeline must produce the
same values, in the same order, as the scalar loop -- and the meter
accounting below reproduces the scalar loops' counter totals exactly
(one batched tally per chunk instead of one Python call per element):

======================  ====================================================
pipeline shape          scalar counters reproduced per chunk of *n*
======================  ====================================================
flat chain              ``visits += n`` (kernel bulk forms tally their own
                        inner-loop visits, as their scalar forms do)
filter nest             ``steps += 2n`` (unit stepper: test + exhaust),
                        ``visits += kept``
concatMap nest          ``visits += sum(lengths)``
======================  ====================================================

Closures whose code id has no registered bulk form make the pipeline
*unsupported*: :func:`compile_iter` returns ``None`` and the caller
falls back to the scalar loop (graceful degradation, cached too).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.core import meter
from repro.core.domains import Dim2, Seq
from repro.core.encodings import indexer as _ix
from repro.core.engine.bulk_forms import (
    ELEMENTWISE,
    SEGMENTED,
    BulkForm,
    bulk_form_of,
)
from repro.core.iterators import transforms as _tr
from repro.core.iterators.iter_type import IdxFlat, IdxNest
from repro.serial.closures import _FUNC_TO_ID, Closure, resolve_env


class Unsupported(Exception):
    """This pipeline has no bulk evaluation; use the scalar loop."""


def _cid(fn) -> str:
    return _FUNC_TO_ID[fn]


_ID_ARRAY = _cid(_ix._extract_array)
_ID_RANGE = _cid(_ix._extract_range)
_ID_INDEX = _cid(_ix._extract_index)
_ID_MAP = _cid(_ix._extract_map)
_ID_ZIP = _cid(_ix._extract_zip)
_ID_OUTER = _cid(_ix._extract_outer)
_ID_GATHER = _cid(_ix._extract_gather)
_ID_MAP_INNER = _cid(_tr._map_inner)
_ID_FILTER_UNIT = _cid(_tr._filter_unit)
_ID_CONCAT_ELEM = _cid(_tr._concat_elem)


# ---------------------------------------------------------------------------
# Value-tree helpers: batch values mirror the scalar element shape, so a
# zip pipeline yields a tuple of stacked arrays (possibly nested).


def select_vals(vals, mask):
    if isinstance(vals, tuple):
        return tuple(select_vals(v, mask) for v in vals)
    return vals[mask]


def take_val(vals, i):
    if isinstance(vals, tuple):
        return tuple(take_val(v, i) for v in vals)
    return vals[i]


def vals_len(vals) -> int:
    while isinstance(vals, tuple):
        vals = vals[0]
    return len(vals)


def split_vals(vals, offsets) -> list:
    """Split a value tree into per-segment value trees (views)."""
    if isinstance(vals, tuple):
        member_splits = [split_vals(v, offsets) for v in vals]
        return [
            tuple(parts[k] for parts in member_splits)
            for k in range(len(member_splits[0]))
        ]
    return np.split(vals, offsets)


# ---------------------------------------------------------------------------
# Batch nodes.  ``eval(ctx, cl, pos)`` evaluates chunk positions ``pos``
# (a slice for Seq, a ``(ys, xs)`` index pair for Dim2) against the live
# source context ``ctx`` and extractor closure ``cl``.


@dataclass(frozen=True)
class _ArrayNode:
    def eval(self, ctx, cl, pos):
        return ctx[pos]


@dataclass(frozen=True)
class _RangeNode:
    def eval(self, ctx, cl, pos):
        start, step = ctx
        if isinstance(pos, slice):
            return start + step * np.arange(pos.start, pos.stop)
        return start + step * pos


@dataclass(frozen=True)
class _IndexNode:
    def eval(self, ctx, cl, pos):
        outer, inner = ctx
        if isinstance(pos, slice):
            return np.arange(pos.start, pos.stop) + outer
        if isinstance(pos, tuple):
            ys, xs = pos
            return (ys + outer, xs + inner)
        return pos + outer


def _apply(bf: BulkForm, cl: Closure, batch, lengths=None):
    """Run closure *cl*'s bulk form over *batch*.  While it runs, a scalar
    tally is an error naming ``cl.code_id``; a stage form over flattened
    values passes their per-element *lengths*, by which its per-value
    tallies are folded."""
    m = meter.current_meter()
    if m is None:
        return bf.fn(*resolve_env(cl.env), batch)
    led = m.ledger
    prev, m.form = m.form, cl.code_id
    if led is not None:
        led.lengths = lengths
    try:
        return bf.fn(*resolve_env(cl.env), batch)
    finally:
        m.form = prev
        if led is not None:
            led.lengths = None


@dataclass(frozen=True)
class _MapNode:
    bulk: BulkForm
    child: Any

    def eval(self, ctx, cl, pos):
        f_cl, g_cl = cl.env[0], cl.env[1]
        return _apply(self.bulk, f_cl, self.child.eval(ctx, g_cl, pos))


@dataclass(frozen=True)
class _GatherNode:
    child: Any

    def eval(self, ctx, cl, pos):
        pos_arr, base_ctx = ctx
        return self.child.eval(base_ctx, cl.env[0], pos_arr[pos])


@dataclass(frozen=True)
class _ZipNode:
    children: tuple

    def eval(self, ctx, cl, pos):
        gs = cl.env[0]
        return tuple(
            child.eval(ctx[k], gs[k], pos)
            for k, child in enumerate(self.children)
        )


@dataclass(frozen=True)
class _OuterNode:
    u: Any
    v: Any

    def eval(self, ctx, cl, pos):
        ys, xs = pos
        gu, gv = cl.env[0], cl.env[1]
        return (self.u.eval(ctx[0], gu, ys), self.v.eval(ctx[1], gv, xs))


# ---------------------------------------------------------------------------
# Batches: one evaluated chunk plus its exact scalar-equivalent tallies.


@dataclass
class Batch:
    """One chunk of evaluated pipeline output.

    ``vals`` holds the chunk's values, concatenated for segmented
    shapes; ``lengths`` gives per-outer-element counts when elements are
    variable-length.  The scalar loop tallies one visit per element of a
    flat chunk, ``lengths[i]`` visits (and ``steps_per`` stepper steps)
    for element *i* of a nest's; the element kernels' own inner tallies
    are the bulk forms' to make.
    """

    vals: Any
    lengths: np.ndarray | None
    n_outer: int
    steps_per: int = 0
    segmented: bool = False  # vals concatenated; elements() yields segments
    nest: bool = False  # vals flattened; elements() yields single values
    segment_consume_ok: bool = False  # per-segment bulk_consume == scalar

    def chunk_value(self):
        """The whole chunk as one value tree (for histogram scatter)."""
        return self.vals

    def segments(self) -> list:
        offsets = np.cumsum(self.lengths[:-1]) if len(self.lengths) else []
        return split_vals(self.vals, offsets)

    def elements(self) -> Iterator[Any]:
        """Yield exactly what the scalar loop's ``op`` would receive."""
        if self.segmented:
            yield from self.segments()
        elif self.nest:
            for i in range(vals_len(self.vals)):
                yield take_val(self.vals, i)
        else:
            for i in range(self.n_outer):
                yield take_val(self.vals, i)


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class Plan:
    """A compiled, structure-only chunked evaluation strategy."""

    kind: str  # "flat" | "nest"
    root: Any = None  # batch-node tree for the (base) extractor chain
    dim2: bool = False
    use_idx_bulk: bool = False  # flat: chunk via the indexer's own bulk
    segmented: bool = False  # flat: root map's bulk form is SEGMENTED
    producer_kind: str = ""  # nest: "filter" | "concat"
    producer: BulkForm | None = None  # nest: pred/f bulk form
    n_stages: int = 0  # nest: _map_inner stages above the producer
    stage_bulks: tuple = ()  # outermost-first ELEMENTWISE bulk forms

    def describe(self) -> str:
        if self.kind == "flat":
            how = "idx-bulk" if self.use_idx_bulk else "compiled"
            shape = "segmented" if self.segmented else "elementwise"
            return f"flat/{how}/{shape}"
        return f"nest/{self.producer_kind}+{self.n_stages}map"

    # -- execution ---------------------------------------------------------

    def run_chunks(self, it, chunk: int) -> Iterator[Batch]:
        idx = it.idx
        ctx = idx.source.context()
        if self.kind == "flat":
            if self.use_idx_bulk:
                yield from self._run_idx_bulk(idx, chunk)
            elif self.dim2:
                yield from self._run_flat_dim2(idx, ctx, chunk)
            else:
                yield from self._run_flat_seq(idx, ctx, chunk)
        else:
            yield from self._run_nest(idx, ctx, chunk)

    def _run_idx_bulk(self, idx, chunk):
        for lo, hi in meter.batches(idx.domain, chunk):
            sub = idx.slice(lo, hi)
            vals = sub.bulk(sub.source.context(), sub.domain)
            yield Batch(vals, None, hi - lo)

    def _run_flat_seq(self, idx, ctx, chunk):
        extract = idx.extract
        for lo, hi in meter.batches(idx.domain, chunk):
            out = self.root.eval(ctx, extract, slice(lo, hi))
            if self.segmented:
                vals, lengths = out
                yield Batch(
                    vals,
                    np.asarray(lengths, dtype=np.int64),
                    hi - lo,
                    segmented=True,
                )
            else:
                yield Batch(out, None, hi - lo)

    def _run_flat_dim2(self, idx, ctx, chunk):
        dom = idx.domain
        w = dom.w
        extract = idx.extract
        for lo, hi in meter.batches(dom, chunk):
            flat = np.arange(lo, hi)
            pos = (flat // w, flat % w)
            vals = self.root.eval(ctx, extract, pos)
            yield Batch(vals, None, hi - lo)

    def _run_nest(self, idx, ctx, chunk):
        # Peel the live closure chain to the stage/producer environments.
        cl = idx.extract
        stage_cls = []
        for _ in range(self.n_stages):
            stage_cls.append(cl.env[0].env[0])  # fc inside _map_inner
            cl = cl.env[1]
        prod_cl = cl.env[0].env[0]  # pred / f inside _filter_unit / _concat_elem
        base_cl = cl.env[1]
        filtering = self.producer_kind == "filter"
        for lo, hi in meter.batches(idx.domain, chunk):
            base = self.root.eval(ctx, base_cl, slice(lo, hi))
            if filtering:
                mask = np.asarray(_apply(self.producer, prod_cl, base), dtype=bool)
                vals = select_vals(base, mask)
                lengths = mask.astype(np.int64)
            else:
                vals, lengths = _apply(self.producer, prod_cl, base)
                lengths = np.asarray(lengths, dtype=np.int64)
            for stage_cl, bf in zip(reversed(stage_cls), reversed(self.stage_bulks)):
                vals = _apply(bf, stage_cl, vals, lengths)
            yield Batch(
                vals,
                lengths,
                hi - lo,
                steps_per=2 if filtering else 0,  # unit stepper: test + exhaust
                nest=True,
                segment_consume_ok=(
                    self.producer_kind == "concat" and self.n_stages == 0
                ),
            )


# ---------------------------------------------------------------------------
# Compilation


def _compile_extract(cl: Closure):
    """Extractor closure -> (batch node, root-is-segmented)."""
    cid = cl.code_id
    if cid == _ID_ARRAY:
        return _ArrayNode(), False
    if cid == _ID_RANGE:
        return _RangeNode(), False
    if cid == _ID_INDEX:
        return _IndexNode(), False
    if cid == _ID_MAP:
        f = cl.env[0]
        if not isinstance(f, Closure):
            raise Unsupported("mapped function is not a closure")
        child, seg = _compile_extract(cl.env[1])
        if seg:
            raise Unsupported("segmented bulk form below another map")
        bf = bulk_form_of(f.code_id)
        if bf is None:
            raise Unsupported(f"no bulk form registered for {f.code_id}")
        return _MapNode(bf, child), bf.kind == SEGMENTED
    if cid == _ID_GATHER:
        # Gathered positions are a plain fancy index, so the child chain
        # evaluates position *arrays* instead of slices; segmentation
        # status passes through unchanged.
        child, seg = _compile_extract(cl.env[0])
        return _GatherNode(child), seg
    if cid == _ID_ZIP:
        children = []
        for g in cl.env[0]:
            node, seg = _compile_extract(g)
            if seg:
                raise Unsupported("segmented bulk form inside zip")
            children.append(node)
        return _ZipNode(tuple(children)), False
    if cid == _ID_OUTER:
        un, useg = _compile_extract(cl.env[0])
        vn, vseg = _compile_extract(cl.env[1])
        if useg or vseg:
            raise Unsupported("segmented bulk form inside outer product")
        return _OuterNode(un, vn), False
    raise Unsupported(f"no bulk evaluation for extractor {cid}")


def compile_iter(it) -> Plan | None:
    """Compile *it* into a chunked batch plan, or ``None`` (scalar path)."""
    if isinstance(it, IdxFlat):
        idx = it.idx
        if isinstance(idx.domain, Seq):
            if idx.bulk is not None:
                return Plan(kind="flat", use_idx_bulk=True)
            try:
                node, seg = _compile_extract(idx.extract)
            except Unsupported:
                return None
            return Plan(kind="flat", root=node, segmented=seg)
        if isinstance(idx.domain, Dim2):
            # Dim2 bulk closures evaluate whole 2-D domains at once and
            # do not chunk; only compiled chains are chunked here.
            try:
                node, seg = _compile_extract(idx.extract)
            except Unsupported:
                return None
            if seg:
                return None
            return Plan(kind="flat", root=node, dim2=True)
        return None
    if isinstance(it, IdxNest):
        idx = it.idx
        if not isinstance(idx.domain, Seq):
            return None
        cl = idx.extract
        stage_fs: list[Closure] = []
        while (
            isinstance(cl, Closure)
            and cl.code_id == _ID_MAP
            and isinstance(cl.env[0], Closure)
            and cl.env[0].code_id == _ID_MAP_INNER
        ):
            stage_fs.append(cl.env[0].env[0])
            cl = cl.env[1]
        if not (
            isinstance(cl, Closure)
            and cl.code_id == _ID_MAP
            and isinstance(cl.env[0], Closure)
            and cl.env[0].code_id in (_ID_FILTER_UNIT, _ID_CONCAT_ELEM)
        ):
            return None  # _filter_inner / _concat_inner nests stay scalar
        prod_outer = cl.env[0]
        inner_fn = prod_outer.env[0]
        if not isinstance(inner_fn, Closure):
            return None
        pb = bulk_form_of(inner_fn.code_id)
        if prod_outer.code_id == _ID_FILTER_UNIT:
            if pb is None or pb.kind != ELEMENTWISE:
                return None
            producer_kind = "filter"
        else:
            if pb is None or pb.kind != SEGMENTED:
                return None
            producer_kind = "concat"
        stage_bulks = []
        for fc in stage_fs:
            if not isinstance(fc, Closure):
                return None
            bf = bulk_form_of(fc.code_id)
            if bf is None or bf.kind != ELEMENTWISE:
                return None
            stage_bulks.append(bf)
        try:
            node, seg = _compile_extract(cl.env[1])
        except Unsupported:
            return None
        if seg:
            return None
        return Plan(
            kind="nest",
            root=node,
            producer_kind=producer_kind,
            producer=pb,
            n_stages=len(stage_fs),
            stage_bulks=tuple(stage_bulks),
        )
    return None
