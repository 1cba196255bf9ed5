"""Intra-node schedulers (virtual-time makespan models).

Triolet's runtime "uses Threading Building Blocks for thread parallelism"
-- i.e. dynamic work stealing within a node -- while the C+OpenMP
baseline uses static ``parallel for`` scheduling.  Both are modelled as
makespan computations over per-task virtual durations: the tasks' work
really executes (one sequential pass per core, producing real results
and a real per-task meter ledger); only the overlap is modelled.

``work_stealing_makespan`` is greedy list scheduling (earliest-free core
takes the next task plus a steal overhead) -- within a factor of 2 of
optimal (Graham) and an accurate model of TBB-style deques for the task
counts these benchmarks produce.
"""
from __future__ import annotations

import heapq
from typing import Sequence


def work_stealing_makespan(
    durations: Sequence[float],
    cores: int,
    steal_overhead: float = 0.0,
    spawn_overhead: float = 0.0,
) -> float:
    """Makespan of dynamic (work-stealing) execution of *durations*."""
    if cores < 1:
        raise ValueError(f"need at least one core, got {cores}")
    if any(d < 0 for d in durations):
        raise ValueError("negative task duration")
    if not durations:
        return spawn_overhead
    # Earliest-free-core list scheduling in task order (a work-stealing
    # deque serves tasks approximately in order under contention).
    free = [0.0] * min(cores, len(durations))
    heapq.heapify(free)
    for d in durations:
        t = heapq.heappop(free)
        heapq.heappush(free, t + steal_overhead + d)
    return max(free) + spawn_overhead


def static_for_makespan(
    durations: Sequence[float],
    cores: int,
    barrier_overhead: float = 0.0,
) -> float:
    """Makespan of an OpenMP-style static ``parallel for``.

    Tasks are pre-assigned in contiguous blocks; imbalance is not
    recovered (the reason dynamic scheduling wins on irregular loops).
    """
    if cores < 1:
        raise ValueError(f"need at least one core, got {cores}")
    n = len(durations)
    if n == 0:
        return barrier_overhead
    worst = 0.0
    for k in range(cores):
        lo, hi = n * k // cores, n * (k + 1) // cores
        worst = max(worst, sum(durations[lo:hi]))
    return worst + barrier_overhead
