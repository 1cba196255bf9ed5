"""The planner's negative cache is bounded (LRU over unsupported shapes).

A long-running program that keeps generating structurally distinct
unsupported pipelines (fresh lambdas, dynamic closures) must not grow
planner state without limit; the negative set holds at most
``NEGATIVE_CACHE_MAX`` entries and evicts least-recently-seen shapes.
"""
import numpy as np
import pytest

import repro.triolet as tri
from repro.core.fusion import (
    NEGATIVE_CACHE_MAX,
    current_state,
    plan_for,
    planner_stats,
    reset_planner,
)
from repro.serial import closure

XS = np.arange(16.0)


@pytest.fixture(autouse=True)
def _fresh_planner():
    reset_planner()
    yield
    reset_planner()


def _unsupported_pipeline(i: int):
    """A pipeline whose structural key is unique to *i* and whose
    mapped function has no bulk form (so compilation fails)."""

    def f(x):
        return x + i

    f.__qualname__ = f.__name__ = f"_negcache_probe_{i}"
    return tri.map(closure(f), tri.iterate(XS))


class TestNegativeCacheBound:
    def test_distinct_unsupported_shapes_are_capped(self):
        n = NEGATIVE_CACHE_MAX + 40
        for i in range(n):
            assert plan_for(_unsupported_pipeline(i)) is None
        stats = planner_stats()
        assert stats.unsupported == n
        assert len(current_state().negative) == NEGATIVE_CACHE_MAX
        assert stats.negative_evictions == 40

    def test_lru_keeps_recent_shapes(self):
        pipelines = [_unsupported_pipeline(i)
                     for i in range(NEGATIVE_CACHE_MAX + 1)]
        for p in pipelines:
            plan_for(p)
        # The newest shape is a negative-cache hit (no recompile attempt)
        # while the oldest was evicted and gets re-analyzed.
        before = planner_stats().unsupported
        plan_for(pipelines[-1])
        assert planner_stats().unsupported == before
        plan_for(pipelines[0])
        assert planner_stats().unsupported == before + 1

    def test_reset_clears_the_negative_set(self):
        plan_for(_unsupported_pipeline(0))
        assert len(current_state().negative) == 1
        reset_planner()
        assert len(current_state().negative) == 0
