"""Chunked execution of compiled plans under the scalar consumer contract.

Each ``try_*`` function mirrors one scalar consumer in
:mod:`repro.core.iterators.reductions` and returns ``(handled, result)``:
``(False, None)`` means "no plan -- run the scalar loop", so callers
degrade gracefully and the engine never has to support everything.

Bit-identity rules (why each consumption mode exists):

* ``chunk_op`` (histogram scatter): ``np.add.at`` over a chunk's
  concatenated contributions performs the same additions in the same
  order as per-element scatters, so the whole chunk goes down at once.
* per-segment ``bulk_consume``: a plain ``concatMap`` nest is consumed
  by the scalar path as ``combine(acc, bulk_consume(segment))`` per
  outer element (the inner ``IdxFlat`` takes the indexer fast path), so
  the engine does exactly that over ``np.split`` views.
* everything else folds elements one ``op`` at a time -- the *values*
  come from vectorized extraction, but reduction order (and therefore
  float bit patterns) matches the scalar loop exactly.

Metering is batch-aware: one per-element tally per chunk (``_tally``),
equal element by element to what the scalar loop would have tallied
(see :mod:`repro.core.engine.plan`), so a per-task ledger can split it.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import meter
from repro.core.domains import Dim2
from repro.core.fusion import planner
from repro.core.runstate import run_state, running
from repro.serial import bind


def vectorization_enabled() -> bool:
    return run_state().vectorized


def use_vectorization(flag: bool):
    """Force the engine on/off for a dynamic extent (tests, benchmarks)."""
    return running(vectorized=bool(flag))


def chunk_size() -> int:
    return run_state().chunk


def _plan(it):
    """The plan for *it* and the chunk size to run it at (``None``: run
    the scalar loop)."""
    run = run_state()
    if not run.vectorized:
        return None, 0
    return planner.plan_for(it), run.chunk


def _tally(batch) -> None:
    if not batch.nest:
        meter.tally_elements(batch.n_outer)
    else:  # the inner loops' tallies, which the producer's element makes
        meter.tally_each(batch.lengths)
        m = meter.current_meter()
        if batch.steps_per and m is not None:
            m.spread(batch.n_outer, 0, batch.steps_per)


def try_reduce(
    it, op, combine, init, bulk_consume, chunk_op=None
) -> tuple[bool, Any]:
    """Vectorized counterpart of the ``_seq_reduce`` scalar loop.

    ``chunk_op``, when given, consumes a whole chunk's value tree in one
    call (the histogram scatter); it must be order-equivalent to folding
    the chunk's elements one at a time.
    """
    plan, chunk = _plan(it)
    if plan is None:
        return False, None
    acc = init
    for batch in plan.run_chunks(it, chunk):
        _tally(batch)
        if chunk_op is not None:
            # Segmented batches scatter their concatenation: same
            # additions, same order as per-element scatters.
            acc = chunk_op(acc, batch.chunk_value())
        elif bulk_consume is not None and batch.segment_consume_ok:
            for seg in batch.segments():
                acc = combine(acc, bulk_consume(seg))
        else:
            fold = bind(op)  # per batch: no batch, nothing bound
            lengths = batch.lengths if batch.nest else None
            for span in meter.folded(batch.elements(), lengths):
                for v in span:
                    acc = fold(acc, v)
    return True, acc


def try_collect(it) -> tuple[bool, list]:
    """Vectorized counterpart of ``_seq_collect``."""
    plan, chunk = _plan(it)
    if plan is None:
        return False, []
    out: list = []
    for batch in plan.run_chunks(it, chunk):
        _tally(batch)
        out.extend(batch.elements())
    return True, out


def try_build(it) -> tuple[bool, Any]:
    """Vectorized counterpart of ``_seq_build`` (flat pipelines only)."""
    plan, chunk = _plan(it)
    if plan is None or plan.kind != "flat" or plan.segmented:
        return False, None
    dom = it.idx.domain
    if dom.size == 0:
        return False, None
    parts = []
    for batch in plan.run_chunks(it, chunk):
        if not isinstance(batch.vals, np.ndarray):
            return False, None  # tuple elements: let np.asarray decide
        _tally(batch)
        parts.append(batch.vals)
    arr = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if isinstance(dom, Dim2) and arr.ndim >= 1 and arr.shape[0] == dom.size:
        return True, arr.reshape(dom.h, dom.w, *arr.shape[1:])
    return True, arr
