"""Conversions between encodings (paper §3.1, "Conversions").

"The rows of Figure 1 are ordered by how much the user of a virtual data
structure can control its execution order...  A higher-control encoding
can be converted to a lower-control one."  The reverse directions do not
exist, which is why a conversion removes the potential for
parallelization (:func:`~repro.core.encodings.features.can_convert`).
The pipeline layer uses one, indexer -> stepper (``to_step``); the
other downward conversions are the encodings' own constructors
(``fold_from_indexer``, ``collector_from_indexer``) and consumers
(``fold_step``).
"""
from __future__ import annotations

from repro.core.encodings.indexer import Idx
from repro.core.encodings.stepper import Step, stepper_from_indexer


def idx_to_step(idx: Idx) -> Step:
    """Indexer -> stepper: sequential traversal of the domain."""
    return stepper_from_indexer(idx)
