"""Chaos property test: collectives under byte caps *and* send faults.

:mod:`tests.cluster.test_collectives_limits` pins the byte-capped
fragmentation behaviour on fixed shapes; this suite turns the same
guarantee into a seed-driven property and stacks a transient send fault
on top.  For any seed, a randomly chosen collective over random-sized
payloads, run with a message cap tight enough to force fragmentation
while a :class:`SendFault` eats sends, must still produce results
bit-identical to the unconstrained fault-free run -- and the metrics
must show both mechanisms actually fired (fragmented messages, retried
sends).

Marked ``chaos``, like the app-level storm in :mod:`tests.test_chaos`.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FaultPlan,
    MachineSpec,
    RuntimeLimits,
    SendFault,
    run_spmd,
)
from repro.runtime.recovery import RecoveryPolicy

pytestmark = pytest.mark.chaos

MACHINE = MachineSpec(nodes=8, cores_per_node=1)


def _bcast(nrows):
    def fn(comm):
        obj = np.arange(float(nrows)) if comm.rank == 0 else None
        return float(comm.bcast(obj, root=0).sum())
    return fn


def _reduce(nrows):
    def fn(comm):
        local = np.full(nrows, float(comm.rank + 1))
        out = comm.reduce(local, op=lambda a, b: a + b, root=0)
        return None if out is None else float(out.sum())
    return fn


def _scatterv(nrows):
    def fn(comm):
        counts = [nrows // comm.size + (1 if i < nrows % comm.size else 0)
                  for i in range(comm.size)]
        arr = np.arange(float(nrows)) if comm.rank == 0 else None
        return float(comm.scatterv(arr, counts, root=0).sum())
    return fn


def _gatherv(nrows):
    def fn(comm):
        local = np.full(nrows // comm.size + comm.rank, float(comm.rank))
        out = comm.gatherv(local, root=0)
        return None if out is None else float(out.sum())
    return fn


# (name, factory, guaranteed-sender) -- the faulted rank must be one
# that actually sends in that collective, or the fault never fires.
COLLECTIVES = [("bcast", _bcast, "root"), ("reduce", _reduce, "leaf"),
               ("scatterv", _scatterv, "root"), ("gatherv", _gatherv, "leaf")]


def _case(seed: int):
    """Deterministically derive (collective, size, payload, faults)."""
    rng = random.Random(seed * 9_176_941 + 13)
    name, make, sender = COLLECTIVES[rng.randrange(len(COLLECTIVES))]
    size = rng.choice([2, 4, 8])
    nrows = rng.randrange(400, 2000)
    # Cap well below the smallest per-rank chunk so every collective
    # fragments; fault 1-3 sends from a rank that definitely sends so
    # the retry path fires too.
    limits = RuntimeLimits(max_message_bytes=rng.randrange(300, 1200))
    src = 0 if sender == "root" else rng.randrange(1, size)
    faults = FaultPlan(faults=(
        SendFault(src=src, times=rng.randrange(1, 4)),
    ))
    return name, make(nrows), size, limits, faults


@settings(max_examples=12, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_capped_faulted_collective_matches_clean_run(seed):
    name, fn, size, limits, faults = _case(seed)
    clean = run_spmd(MACHINE, fn, nranks=size)
    chaotic = run_spmd(
        MACHINE, fn, nranks=size,
        limits=limits, faults=faults, recovery=RecoveryPolicy(),
        real_timeout=30.0,
    )
    assert chaotic.results == clean.results, (name, seed)
    assert chaotic.metrics.messages_fragmented >= 1
    assert chaotic.metrics.fragments_sent > chaotic.metrics.messages_fragmented
    assert chaotic.metrics.send_retries >= 1


@settings(max_examples=6, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chaotic_run_is_deterministic_per_seed(seed):
    name, fn, size, limits, faults = _case(seed)
    a = run_spmd(MACHINE, fn, nranks=size, limits=limits,
                 faults=faults, recovery=RecoveryPolicy())
    faults.reset()
    b = run_spmd(MACHINE, fn, nranks=size, limits=limits,
                 faults=faults, recovery=RecoveryPolicy())
    assert a.results == b.results, (name, seed)
    assert a.makespan == b.makespan
