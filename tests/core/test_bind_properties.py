"""Bound == unbound, differentially (hypothesis).

``bind`` replaced the per-element ``Closure.__call__`` walk in every
scalar loop.  The reference here is that walk, kept in the tests: call
the closures directly, one element at a time.  For generated extractor
trees (array / range / index / gather leaves under map, zip of 1-5
members, outer, nested maps; Seq and Dim2 domains; environments with and
without ``DistArray`` handles) every index must give equal values of
equal types *and* equal ``CostMeter`` deltas; the same for the ``op`` /
``worker`` closures of the reduce, histogram, fold and collector
consumers.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import meter
from repro.core.domains import Dim2, Seq
from repro.core.encodings.collector import collector_from_indexer
from repro.core.encodings.fold import fold_from_indexer
from repro.core.encodings.indexer import (
    array_indexer,
    gather_idx,
    index_indexer,
    map_idx,
    outer_product_idx,
    range_indexer,
    zip_idx,
)
from repro.core.engine import use_vectorization
from repro.core.iterators import IdxFlat, concat_map, histogram, treduce
from repro.core.iterators.reductions import _hist_scatter
from repro.data import DistArray
from repro.serial import bind, closure, register_function

# -- element functions: total over any value a tree can produce --------------


@register_function
def _tag(k, v):
    return (k, v)


@register_function
def _weigh(w, v):
    # *w* arrives resolved: a handle in the environment became an array.
    return (float(w[0]), v)


@register_function
def _visit3(v):
    meter.tally_inner(3)
    return v


@register_function
def _flatten_sum(v):
    return _total(v)


def _total(v):
    if isinstance(v, tuple):
        return sum(_total(x) for x in v)
    return float(v)


_HANDLE = DistArray(np.array([3.0, 5.0]), layout="replicated")
_ALIVE = []  # the handle registry is weak: generated handles must outlive the draw

element_fns = st.sampled_from(
    [
        closure(_tag, 7),
        closure(_weigh, np.array([2.0])),
        closure(_weigh, _HANDLE),
        closure(_visit3),
        _flatten_sum,  # a plain callable: map_idx registers it
    ]
)

# -- extractor trees ---------------------------------------------------------


@st.composite
def leaves(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["array", "handle", "range", "index", "gather"]))
    if kind == "array":
        return array_indexer(np.arange(n, dtype=draw(st.sampled_from(["f8", "i8"]))))
    if kind == "handle":
        _ALIVE.append(DistArray(np.arange(float(n)) * 0.5))
        return _ALIVE[-1].__triolet_idx__()
    if kind == "range":
        return range_indexer(n, draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    if kind == "index":
        return index_indexer(Seq(n))
    base = draw(st.sampled_from([
        array_indexer(np.arange(10.0)),
        range_indexer(10, 2, 3),
        map_idx(closure(_tag, 9), array_indexer(np.arange(10))),
    ]))
    pos = sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=6)))
    return gather_idx(base, np.array(pos))


def _grow(children):
    return st.one_of(
        st.builds(map_idx, element_fns, children),
        st.lists(children, min_size=1, max_size=5).map(lambda xs: zip_idx(*xs)),
    )


seq_trees = st.recursive(leaves(), _grow, max_leaves=8)
dim2_trees = st.one_of(
    st.builds(outer_product_idx, seq_trees, seq_trees),
    st.builds(map_idx, element_fns, st.builds(outer_product_idx, seq_trees, seq_trees)),
    st.builds(
        lambda h, w, f: map_idx(f, index_indexer(Dim2(h, w))),
        st.integers(1, 4), st.integers(1, 4), element_fns,
    ),
)
trees = st.one_of(seq_trees, dim2_trees)


def _same(a, b):
    """Equal values of equal types, all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def _metered(fn):
    with meter.metered() as m:
        out = fn()
    return out, m


class TestBoundExtractorsEqualUnbound:
    @settings(max_examples=200)
    @given(trees)
    def test_every_index(self, idx):
        ctx = idx.source.context()
        bound = bind(idx.extract)
        for i in idx.domain.iter_indices():
            want, m_want = _metered(lambda: idx.extract(ctx, i))
            got, m_got = _metered(lambda: bound(ctx, i))
            assert _same(got, want), (i, got, want)
            assert m_got == m_want

    @settings(max_examples=100)
    @given(trees, st.data())
    def test_every_index_of_a_slice(self, idx, data):
        n = idx.domain.outer_extent
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        part = idx.slice(lo, hi)
        ctx = part.source.context()
        with use_vectorization(False):
            got, m_got = _metered(part.eval_all)
        want, m_want = _metered(
            lambda: [part.extract(ctx, i) for i in part.domain.iter_indices()]
        )
        m_want.visits += part.domain.size  # eval_all tallies its own loop
        assert len(got) == len(want)
        assert all(_same(g, w) for g, w in zip(got, want))
        assert m_got == m_want


# -- consumers: op / worker closures -----------------------------------------


@register_function
def _fold_in(scale, acc, v):
    meter.tally_inner(2)
    return acc + scale[0] * _total(v)


@register_function
def _bin_of(nbins, v):
    return (int(_total(v)) % nbins, 1.0 + _total(v))


@register_function
def _repeat(v):
    return [v] * (int(_total(v)) % 3)


scales = st.sampled_from([np.array([0.5]), _HANDLE])


def _elements(idx):
    """The reference walk: one ``Closure.__call__`` tree per element."""
    ctx = idx.source.context()
    return [idx.extract(ctx, i) for i in idx.domain.iter_indices()]


class TestBoundConsumersEqualUnbound:
    @settings(max_examples=100)
    @given(trees, scales)
    def test_reduce(self, idx, scale):
        op = closure(_fold_in, scale)

        def reference():
            acc = 0.0
            for v in _elements(idx):
                acc = op(acc, v)
            meter.tally_visits(idx.domain.size)
            return acc

        with use_vectorization(False):
            got, m_got = _metered(lambda: treduce(op, 0.0, IdxFlat(idx)))
        want, m_want = _metered(reference)
        assert _same(got, want) and m_got == m_want

    @settings(max_examples=60)
    @given(seq_trees, scales)
    def test_reduce_over_a_nest(self, idx, scale):
        op = closure(_fold_in, scale)

        def reference():
            acc = 0.0
            for v in _elements(idx):
                inner = _repeat(v)
                for x in inner:
                    acc = op(acc, x)
                meter.tally_visits(len(inner))
            return acc

        with use_vectorization(False):
            got, m_got = _metered(
                lambda: treduce(op, 0.0, concat_map(_repeat, IdxFlat(idx)))
            )
        want, m_want = _metered(reference)
        assert _same(got, want) and m_got == m_want

    @settings(max_examples=100)
    @given(trees, st.integers(1, 5))
    def test_histogram(self, idx, nbins):
        binned = map_idx(closure(_bin_of, nbins), idx)
        scatter = closure(_hist_scatter)

        def reference():
            hist = np.zeros(nbins)
            for v in _elements(binned):
                hist = scatter(hist, v)
            meter.tally_visits(binned.domain.size)
            return hist

        with use_vectorization(False):
            got, m_got = _metered(lambda: histogram(nbins, IdxFlat(binned)))
        want, m_want = _metered(reference)
        assert _same(got, want) and m_got == m_want

    @settings(max_examples=100)
    @given(trees, scales)
    def test_fold(self, idx, scale):
        worker = closure(_fold_in, scale)

        def reference():
            acc = 1.0
            for v in _elements(idx):
                acc = worker(acc, v)
            meter.tally_visits(idx.domain.size)
            return acc

        got, m_got = _metered(lambda: fold_from_indexer(idx).fold(worker, 1.0))
        want, m_want = _metered(reference)
        assert _same(got, want) and m_got == m_want

    @settings(max_examples=100)
    @given(trees, scales)
    def test_collector(self, idx, scale):
        def run(drive):
            out = []

            @register_function
            def _emit(scale, v):
                meter.tally_inner(2)
                out.append((float(scale[0]), v))

            drive(closure(_emit, scale))
            return out

        def reference(worker):
            for v in _elements(idx):
                worker(v)
            meter.tally_visits(idx.domain.size)

        got, m_got = _metered(lambda: run(collector_from_indexer(idx).collect))
        want, m_want = _metered(lambda: run(reference))
        assert len(got) == len(want)
        assert all(_same(g, w) for g, w in zip(got, want)) and m_got == m_want
