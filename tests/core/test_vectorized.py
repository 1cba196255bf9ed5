"""The vectorized bulk-execution engine: parity with the scalar paths.

Every assertion here is a two-sided run: the same pipeline consumed with
the engine on and off must produce bit-identical values AND identical
cost-meter counters -- vectorization is an execution strategy, not a
semantics change.
"""
import numpy as np
import pytest

import repro.triolet as tri
from repro.core import meter
from repro.core.engine import (
    SEGMENTED,
    chunk_size,
    register_bulk,
    use_vectorization,
)
from repro.core.fusion import plan_for, planner_stats, reset_planner
from repro.core.runstate import running
from repro.serial import closure, register_function


@pytest.fixture(autouse=True)
def _fresh_planner():
    reset_planner()
    yield
    reset_planner()


# -- synthetic kernels with registered bulk forms ---------------------------


@register_function
def _scale(k, x):
    return k * x


def _scale_bulk(k, xs):
    return k * xs


register_bulk(_scale, _scale_bulk)


@register_function
def _is_even(x):
    return int(x) % 2 == 0


def _is_even_bulk(xs):
    return xs.astype(np.int64) % 2 == 0


register_bulk(_is_even, _is_even_bulk)


@register_function
def _repeat(x):
    # variable-length expansion, including empty segments
    return np.full(int(x) % 3, float(x))


def _repeat_bulk(xs):
    lengths = xs.astype(np.int64) % 3
    return np.repeat(xs.astype(float), lengths), lengths


register_bulk(_repeat, _repeat_bulk, kind=SEGMENTED)


@register_function
def _pair_prod(xy):
    x, y = xy
    return x * y


def _pair_prod_bulk(xys):
    xs, ys = xys
    return xs * ys


register_bulk(_pair_prod, _pair_prod_bulk)


@register_function
def _no_bulk(x):
    return x + 1.0


XS = np.arange(200.0)
YS = np.linspace(0.0, 3.0, 200)


def _both_ways(fn):
    """Run *fn* engine-on and engine-off under fresh meters."""
    with use_vectorization(True), meter.metered() as mv:
        v = fn()
    with use_vectorization(False), meter.metered() as ms:
        s = fn()
    return (v, mv), (s, ms)


def _assert_parity(fn):
    (v, mv), (s, ms) = _both_ways(fn)
    va, sa = np.asarray(v), np.asarray(s)
    assert va.tobytes() == sa.tobytes(), "values differ bitwise"
    assert mv == ms, f"meters differ: {mv} vs {ms}"
    return v


class TestFlatParity:
    def test_map_sum(self):
        out = _assert_parity(
            lambda: tri.sum(tri.map(closure(_scale, 3.0), tri.iterate(XS)))
        )
        assert out == pytest.approx(3.0 * XS.sum())

    def test_zip_map_sum(self):
        _assert_parity(
            lambda: tri.sum(tri.map(closure(_pair_prod), tri.zip(XS, YS)))
        )

    def test_map_build(self):
        out = _assert_parity(
            lambda: tri.build(tri.map(closure(_scale, -2.0), tri.iterate(XS)))
        )
        assert out.shape == XS.shape

    def test_range_source(self):
        _assert_parity(
            lambda: tri.sum(tri.map(closure(_scale, 2.0), tri.arrayRange(150)))
        )


class TestNestParity:
    def test_filter_sum(self):
        out = _assert_parity(
            lambda: tri.sum(tri.filter(closure(_is_even), tri.iterate(XS)))
        )
        assert out == pytest.approx(XS[::2].sum())

    def test_concat_map_sum(self):
        _assert_parity(
            lambda: tri.sum(tri.concat_map(closure(_repeat), tri.iterate(XS)))
        )

    def test_map_after_filter(self):
        _assert_parity(
            lambda: tri.sum(
                tri.map(
                    closure(_scale, 0.5),
                    tri.filter(closure(_is_even), tri.iterate(XS)),
                )
            )
        )

    def test_map_after_concat_map(self):
        _assert_parity(
            lambda: tri.sum(
                tri.map(
                    closure(_scale, 4.0),
                    tri.concat_map(closure(_repeat), tri.iterate(XS)),
                )
            )
        )

    def test_filter_collect(self):
        out = _assert_parity(
            lambda: tri.collect_list(
                tri.filter(closure(_is_even), tri.iterate(XS))
            )
        )
        assert out == list(XS[::2])


class TestScalarFallback:
    def test_unregistered_closure_falls_back(self):
        pipeline = tri.map(closure(_no_bulk), tri.iterate(XS))
        assert plan_for(pipeline) is None
        assert planner_stats().unsupported == 1
        _assert_parity(
            lambda: tri.sum(tri.map(closure(_no_bulk), tri.iterate(XS)))
        )

    def test_python_lambda_falls_back(self):
        _assert_parity(lambda: tri.sum(tri.map(lambda x: x * x, tri.iterate(XS))))


class TestPlanCache:
    def test_structure_compiled_once(self):
        def run():
            return tri.sum(tri.map(closure(_scale, 7.0), tri.iterate(XS)))

        with use_vectorization(True):
            run()
            first = planner_stats()
            run()
            second = planner_stats()
        assert first.compiled == 1
        assert second.compiled == 1  # no recompilation
        assert second.hits > first.hits

    def test_same_structure_different_data_shares_plan(self):
        with use_vectorization(True):
            tri.sum(tri.map(closure(_scale, 1.0), tri.iterate(XS)))
            tri.sum(tri.map(closure(_scale, 9.0), tri.iterate(YS * 2.0)))
        assert planner_stats().compiled == 1

    def test_negative_cache_hit(self):
        pipeline = tri.map(closure(_no_bulk), tri.iterate(XS))
        assert plan_for(pipeline) is None
        assert plan_for(pipeline) is None
        stats = planner_stats()
        assert stats.unsupported == 1
        assert stats.hits == 1


class TestChunking:
    def test_tiny_chunks_match_default(self):
        def run():
            return tri.sum(
                tri.map(
                    closure(_scale, 0.25),
                    tri.concat_map(closure(_repeat), tri.iterate(XS)),
                )
            )

        with use_vectorization(True), meter.metered() as m_big:
            big = run()
        with running(chunk=7), use_vectorization(True), \
                meter.metered() as m_small:
            assert chunk_size() == 7
            small = run()
        assert np.asarray(big).tobytes() == np.asarray(small).tobytes()
        assert m_big == m_small
