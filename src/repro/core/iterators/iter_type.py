"""The hybrid iterator ADT (paper §3.2).

::

    data Iter d a where
      IdxFlat  :: Idx d a            -> Iter d a
      StepFlat :: Step a             -> Iter Seq a
      IdxNest  :: Idx d (Iter Seq a) -> Iter Seq a
      StepNest :: Step (Iter Seq a)  -> Iter Seq a

An iterator is a loop nest with an indexer or a stepper at each nesting
level.  ``IdxFlat`` is the only constructor generic over domains (§3.3);
the nested/variable-length constructors always produce 1-D sequences,
because "removing arbitrary elements of a 2D array does not in general
yield a 2D array".

Each iterator also carries the parallelism flag of §3.4 ("We add a field
to Iter holding a flag to indicate what degree of parallelism to use"),
set by :func:`repro.core.hints.par` / :func:`repro.core.hints.localpar`.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator as PyIterator

from repro.core.domains import Domain
from repro.core.encodings.indexer import Idx
from repro.core.encodings.stepper import Step
from repro.serial import bind
from repro.serial.serializer import register_type, serializable


class ParHint(IntEnum):
    """How a skeleton should execute this iterator's outer loop -- and,
    for the ``*_INNER`` values, that the work of each element's function
    is itself a ``localpar`` loop (Fig. 6's ``corr1`` inside ``par``):
    fused into one loop with the outer level, each level keeps its own
    hint, and the node model may spread an element's work over idle
    cores.  One value, so a sliced chunk carries it at no wire cost (and
    a zip, which takes the largest, keeps it)."""

    SEQ = 0  # sequential (the default)
    LOCAL = 1  # threads within one node (``localpar``)
    PAR = 2  # distributed across nodes + threads (``par``)
    SEQ_INNER = 4  # a dealt chunk of a PAR_INNER loop
    PAR_INNER = 6  # ``par(..., inner=localpar)``

    @property
    def outer(self) -> "ParHint":
        """The hint on the iterator's own loop."""
        return ParHint(self & 3)

    @property
    def of_elements(self) -> "ParHint":
        """What is left of the hint once the outer loop has been dealt
        out: a chunk's own loop is sequential, its elements' work is not
        (``SEQ_INNER``, true) unless it never was (``SEQ``, false)."""
        return ParHint(self & 4)


def _encode_hint(obj: "ParHint", out: bytearray) -> None:
    out.append(int(obj))


def _decode_hint(buf: memoryview, offset: int):
    return ParHint(buf[offset]), offset + 1


register_type("repro.ParHint", ParHint, _encode_hint, _decode_hint)


class Iter:
    """Base class of the four iterator constructors."""

    hint: ParHint

    @property
    def domain(self) -> Domain:
        raise NotImplementedError

    def with_hint(self, hint: ParHint) -> "Iter":
        return dataclasses.replace(self, hint=hint)

    def elements(self) -> PyIterator:
        """Sequentially enumerate the innermost elements (flattened)."""
        raise NotImplementedError

    @property
    def constructor(self) -> str:
        return type(self).__name__


@serializable
@dataclass(frozen=True)
class IdxFlat(Iter):
    """A flat random-access loop over any domain: values by index."""

    idx: Idx
    hint: ParHint = ParHint.SEQ

    @property
    def domain(self) -> Domain:
        return self.idx.domain

    def elements(self) -> PyIterator:
        from repro.core import meter

        idx = self.idx
        ctx = idx.source.context()
        extract = bind(idx.extract) if idx.domain.size else None
        for span in meter.task_spans(idx.domain, visits=False):
            for i in span:
                meter.tally_visits()  # as consumed: the caller may stop early
                yield extract(ctx, i)


@serializable
@dataclass(frozen=True)
class StepFlat(Iter):
    """A flat sequential, possibly variable-length loop."""

    step: Step
    hint: ParHint = ParHint.SEQ

    @property
    def domain(self) -> Domain:
        raise TypeError(
            "a StepFlat iterator has no statically known extent; its "
            "length is only discovered by running it"
        )

    def elements(self) -> PyIterator:
        return self.step.drive()


@serializable
@dataclass(frozen=True)
class IdxNest(Iter):
    """A random-access outer loop whose elements are inner iterators.

    This is the shape ``filter``/``concatMap`` produce from an indexable
    input: the outer level stays partitionable while irregularity is
    isolated in the inner iterators (§3.2's key idea).
    """

    idx: Idx  # elements are Iter
    hint: ParHint = ParHint.SEQ

    @property
    def domain(self) -> Domain:
        return self.idx.domain

    def elements(self) -> PyIterator:
        idx = self.idx
        ctx = idx.source.context()
        extract = bind(idx.extract) if idx.domain.size else None
        for i in idx.domain.iter_indices():
            yield from extract(ctx, i).elements()


@serializable
@dataclass(frozen=True)
class StepNest(Iter):
    """A sequential outer loop whose elements are inner iterators."""

    step: Step  # yields Iter
    hint: ParHint = ParHint.SEQ

    @property
    def domain(self) -> Domain:
        raise TypeError(
            "a StepNest iterator has no statically known extent; its "
            "length is only discovered by running it"
        )

    def elements(self) -> PyIterator:
        for inner in self.step.drive():
            yield from inner.elements()
