"""Fusion-plan cache: compile each pipeline *structure* exactly once.

The vectorized engine (:mod:`repro.core.engine.plan`) compiles a fused
pipeline by walking its extractor closure tree.  That walk is pure
structure -- code ids, tuple shapes, domain kind -- and never touches
closure environments, so every slice of a partitioned pipeline, every
SPMD rank, and every re-execution after a crash shares one plan.  This
module provides the cache keyed on that structure, plus counters the
parity tests use to prove a re-executed task *hits* the cache instead of
recompiling.

Unsupported pipelines are cached too (negative caching): deciding "use
the scalar loop" costs one dict lookup on every later encounter.

Cache + counters live in a :class:`PlannerState`, a field of the run
state (:mod:`repro.core.runstate`).  The default run state's is one per
process (a one-shot run shares one cache); a resident job server
installs its *own* with :func:`use_state` so jobs from every tenant
share the server's warmed plans while unrelated runs (solo oracles,
tests) stay isolated without needing a global reset between jobs.
Simulated ranks run in a copy of their launcher's context, so the plans
they consult are the plans the installing driver sees.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

from repro.core.engine.plan import Plan, compile_iter
from repro.core.iterators.iter_type import IdxFlat, IdxNest
from repro.core.runstate import PlannerState, PlannerStats, run_state, running
from repro.obs.spans import count as _obs_count
from repro.serial.closures import Closure

_OPAQUE = "·"  # env entry that is data, not structure

#: Upper bound on remembered unsupported-pipeline structures.  Positive
#: entries are bounded by the program's pipeline count, but a workload
#: generating many distinct unsupported shapes would otherwise grow the
#: negative set without limit.
NEGATIVE_CACHE_MAX = 256


def current_state() -> PlannerState:
    """The state every planner function currently operates on."""
    return run_state().planner


@contextmanager
def use_state(state: PlannerState):
    """Install *state* as the active plan cache for the dynamic extent.

    Reentrant, and visible from simulated rank threads (they run in a
    copy of the launcher's context), which is what lets a job server
    serve its shared cache to every section a job runs.
    """
    with running(planner=state):
        yield state


def _env_key(entry):
    if isinstance(entry, Closure):
        return _closure_key(entry)
    if isinstance(entry, tuple):
        return ("T",) + tuple(_env_key(e) for e in entry)
    return _OPAQUE


def _closure_key(cl: Closure):
    return ("C", cl.code_id) + tuple(_env_key(e) for e in cl.env)


def structural_key(it) -> tuple | None:
    """The pipeline's structure: constructor, domain kind, closure tree.

    ``None`` for stepper iterators (never bulk-evaluated).  Environment
    *data* (arrays, scalars) is reduced to an opaque marker: two
    pipelines over different data share a key, which is exactly what
    makes the cache useful across slices, ranks, and re-executions.
    """
    if not isinstance(it, (IdxFlat, IdxNest)):
        return None
    idx = it.idx
    return (
        type(it).__name__,
        type(idx.domain).__name__,
        _closure_key(idx.extract),
        _closure_key(idx.bulk) if idx.bulk is not None else None,
    )


def plan_for(it) -> Plan | None:
    """The cached plan for *it*'s structure (compiling on first sight)."""
    key = structural_key(it)
    if key is None:
        return None
    st = current_state()
    try:
        plan = st.cache[key]
    except KeyError:
        pass
    else:
        st.stats.hits += 1
        _obs_count("planner.hits")
        return plan
    if key in st.negative:
        st.negative.move_to_end(key)
        st.stats.hits += 1
        _obs_count("planner.hits")
        return None
    st.stats.misses += 1
    _obs_count("planner.misses")
    plan = compile_iter(it)
    if plan is None:
        st.stats.unsupported += 1
        _obs_count("planner.unsupported")
        st.negative[key] = None
        while len(st.negative) > NEGATIVE_CACHE_MAX:
            st.negative.popitem(last=False)
            st.stats.negative_evictions += 1
            _obs_count("planner.negative_evictions")
    else:
        st.stats.compiled += 1
        _obs_count("planner.compiled")
        st.cache[key] = plan
    return plan


def planner_stats() -> PlannerStats:
    """A snapshot of the active state's cache counters."""
    return replace(current_state().stats)


def merge_stats(delta: dict) -> None:
    """Fold a rank's counters into the active state's stats.

    ``local`` members run plan-cache consults in processes of their own
    whose counters die with them; the driver carries each run's counts
    back through ``rank_extras`` and merges them here so
    ``planner_stats()`` reports the same traffic on every backend.
    """
    st = current_state().stats
    for k, v in delta.items():
        setattr(st, k, getattr(st, k) + v)


def reset_planner() -> None:
    """Clear the *active* state's caches and zero its counters.

    One-shot runs and tests reset the default run state's cache this
    way.  A resident server never calls this -- it owns a private
    :class:`PlannerState` instead.
    """
    current_state().reset()
