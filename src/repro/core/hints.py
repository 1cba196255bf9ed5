"""Parallelism hints (paper §2, §3.4).

"The library functions ``par`` and ``localpar`` set a flag in an iterator
to indicate that it should be parallelized across the entire system or
across a single node, respectively."  ``seq`` clears the flag.

Because library code cannot examine user code to decide whether a loop is
worth parallelizing, these hints are the user's only -- and sufficient --
parallelization lever.
"""
from __future__ import annotations

from typing import Any

from repro.core.iterators.iter_type import Iter, ParHint
from repro.core.iterators.transforms import iterate


def par(it: Any, inner=None) -> Iter:
    """Parallelize across the whole cluster (nodes + cores).

    ``inner=localpar`` says of a loop nest fused into one level -- each
    element's function does the inner loop's work, as Fig. 6's ``corr1``
    scores a set's rows -- what the paper's program says with a
    ``localpar`` inside a ``par``: that work may be spread over the cores
    of the node its element landed on."""
    if inner not in (None, localpar):
        raise ValueError("an inner hint is localpar")
    return iterate(it).with_hint(
        ParHint.PAR_INNER if inner is localpar else ParHint.PAR
    )


def localpar(it: Any) -> Iter:
    """Parallelize across the cores of a single node (shared memory)."""
    return iterate(it).with_hint(ParHint.LOCAL)


def seq(it: Any) -> Iter:
    """Force sequential execution (the default)."""
    return iterate(it).with_hint(ParHint.SEQ)
