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

Cache + counters live in a :class:`PlannerState`.  One process-global
default state preserves the historical behaviour (a one-shot run shares
one cache); a resident job server installs its *own* state with
:func:`use_state` so jobs from every tenant share the server's warmed
plans while unrelated runs (solo oracles, tests) stay isolated without
needing a global reset between jobs.  The active state is a plain module
global, not a context variable, deliberately: simulated ranks run in
worker threads, and the plans they consult must be the same plans the
installing driver sees.
"""
from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.engine.plan import Plan, compile_iter
from repro.core.iterators.iter_type import IdxFlat, IdxNest
from repro.obs.spans import count as _obs_count
from repro.serial.closures import Closure

_OPAQUE = "·"  # env entry that is data, not structure

#: Upper bound on remembered unsupported-pipeline structures.  Positive
#: entries are bounded by the program's pipeline count, but a workload
#: generating many distinct unsupported shapes would otherwise grow the
#: negative set without limit.
NEGATIVE_CACHE_MAX = 256


@dataclass
class PlannerStats:
    """Cache traffic counters (reset with :func:`reset_planner`)."""

    hits: int = 0
    misses: int = 0
    compiled: int = 0  # misses that produced a plan
    unsupported: int = 0  # misses that fell back to the scalar loop
    negative_evictions: int = 0  # unsupported entries dropped by the LRU bound


_STAT_FIELDS = ("hits", "misses", "compiled", "unsupported",
                "negative_evictions")


@dataclass
class PlannerState:
    """One plan cache plus its traffic counters.

    Owns everything :func:`plan_for` touches, so whoever holds the state
    object -- the process (default) or a resident
    :class:`~repro.service.JobServer` -- owns plan-cache lifetime.
    """

    cache: dict = field(default_factory=dict)
    #: structural key -> None, LRU-bounded negative cache
    negative: OrderedDict = field(default_factory=OrderedDict)
    stats: PlannerStats = field(default_factory=PlannerStats)

    def reset(self) -> None:
        self.cache.clear()
        self.negative.clear()
        self.stats = PlannerStats()

    def snapshot(self) -> dict:
        return {k: getattr(self.stats, k) for k in _STAT_FIELDS}


#: The process-default state (one-shot runs, tests, legacy callers).
_GLOBAL_STATE = PlannerState()
_active: PlannerState = _GLOBAL_STATE


def current_state() -> PlannerState:
    """The state every planner function currently operates on."""
    return _active


@contextmanager
def use_state(state: PlannerState):
    """Install *state* as the active plan cache for the dynamic extent.

    Reentrant (installing the already-active state is a no-op swap) and
    visible from simulated rank threads, which is what lets a job server
    serve its shared cache to every section a job runs.
    """
    prev = set_state(state)
    try:
        yield state
    finally:
        set_state(prev)


def set_state(state: PlannerState) -> PlannerState:
    """Make *state* the active plan cache from here on (a rank process
    takes its job's); returns the previous one."""
    global _active
    prev, _active = _active, state
    return prev


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
    st = _active
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


def warm(it) -> Plan | None:
    """Compile (or look up) *it*'s plan ahead of task execution.

    The runtime calls this once per parallel section before
    partitioning, so per-rank and re-executed tasks always hit the
    cache.
    """
    return plan_for(it)


def planner_stats() -> PlannerStats:
    """A snapshot of the active state's cache counters."""
    s = _active.stats
    return PlannerStats(
        hits=s.hits,
        misses=s.misses,
        compiled=s.compiled,
        unsupported=s.unsupported,
        negative_evictions=s.negative_evictions,
    )


def merge_stats(delta: dict) -> None:
    """Fold a rank's counters into the active state's stats.

    ``local`` members run plan-cache consults in processes of their own
    whose counters die with them; the driver carries each run's counts
    back through ``rank_extras`` and merges them here so
    ``planner_stats()`` reports the same traffic on every backend.
    """
    st = _active.stats
    for k in _STAT_FIELDS:
        setattr(st, k, getattr(st, k) + delta.get(k, 0))


def negative_cache_size() -> int:
    """Number of remembered unsupported structures (bounded by
    :data:`NEGATIVE_CACHE_MAX`)."""
    return len(_active.negative)


def reset_planner() -> None:
    """Clear the *active* state's caches and zero its counters.

    Compatibility shim: one-shot runs and tests reset the process-global
    default state exactly as before.  A resident server never calls
    this -- it owns a private :class:`PlannerState` instead.
    """
    _active.reset()


#: Per-run reset alias, mirroring :func:`repro.serial.reset`.
reset = reset_planner
