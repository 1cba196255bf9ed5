"""Vectorized execution engine for fused iterator pipelines.

The paper's compiler turns a fused comprehension into one tight native
loop (§3.4); our scalar encodings preserve the *semantics* of that loop
but pay one Python closure call per element.  This package restores the
performance half of the story in pure NumPy:

* :mod:`bulk_forms` -- a registry mapping an element kernel's closure
  code id to its batched (NumPy) form, so apps opt in per kernel;
* :mod:`plan` -- compiles a fused ``Iter`` (map/zip/filter/concatMap
  over indexer sources) into a chunked batch plan, with ``filter`` as a
  boolean mask and ``concatMap`` as segment expansion;
* :mod:`execute` -- runs a plan chunk-by-chunk under the same consumer
  contract as the scalar loops, with batch-aware meter accounting (one
  per-element tally per chunk) so the measured loop statistics -- and
  therefore the simulated timeline -- are bit-identical to the scalar
  path.

Plans are cached by pipeline *structure* (closure code ids + domain
kind) in :mod:`repro.core.fusion.planner`, so every SPMD rank and every
post-crash re-execution reuses the compiled plan.
"""
from repro.core.engine.bulk_forms import (
    ELEMENTWISE,
    SEGMENTED,
    BulkForm,
    bulk_form_of,
    register_bulk,
)
from repro.core.engine.execute import (
    chunk_size,
    try_build,
    try_collect,
    try_reduce,
    use_vectorization,
    vectorization_enabled,
)

__all__ = [
    "ELEMENTWISE",
    "SEGMENTED",
    "BulkForm",
    "bulk_form_of",
    "register_bulk",
    "chunk_size",
    "try_build",
    "try_collect",
    "try_reduce",
    "use_vectorization",
    "vectorization_enabled",
]
