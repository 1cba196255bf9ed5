"""The executor hook: where skeletons meet the runtime (paper §3.4).

"A skeleton in the library consists of code that, depending on the input
iterator's parallelism hint, invokes low-level skeletons for distributing
work across nodes, cores within a node, and/or sequential loop iterations
in a task."

Consumers (``sum``, ``reduce``, ``histogram``, ``build``) package their
sequential loop as a :class:`ConsumeSpec` and hand it to the *current
executor*.  The default executor runs the fused sequential loop in
place; the Triolet runtime (:mod:`repro.runtime.driver`) installs itself
as the executor and implements the PAR/LOCAL hints by slicing the
iterator across the simulated machine.  This is exactly the decoupling
that lets the same source code run sequentially, threaded, or
distributed.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Protocol

from repro.core.iterators.iter_type import Iter, ParHint
from repro.serial import Closure


@dataclass(frozen=True)
class ConsumeSpec:
    """A consumer, decomposed for two-level parallel execution.

    kind
        ``"reduce"`` -- partials are merged pairwise with ``combine``;
        ``"build"``  -- partials are per-block arrays the runtime
        assembles by partition structure.
    seq_fn
        The fused sequential loop: ``Iter -> partial``.  Running it on the
        whole iterator gives the sequential semantics; running it on
        slices gives per-**thread** partials (a node runs it once per
        core, over that core's block of tasks; task durations come from
        the pass's meter ledger, not from running it per task).
    combine
        Associative merge of two partials (reduce kinds only).  It must
        not modify its arguments: a rank that survives a failed attempt
        keeps the partial it finished and folds it in again in the next.
    ordered
        The combine is associative but *not* commutative (list concat,
        string append): partials must merge in ascending outer-position
        order.  The runtime then restricts itself to partitions whose
        rank order is element order (1-D outer blocks), never a 2-D
        grid, whose row-major block order interleaves rows.
    """

    kind: str
    seq_fn: Closure
    combine: Closure | None = None
    ordered: bool = False

    def __post_init__(self):
        if self.kind not in ("reduce", "build"):
            raise ValueError(f"unknown consumer kind: {self.kind!r}")
        if self.kind == "reduce" and self.combine is None:
            raise ValueError("reduce consumers need a combine function")


class Executor(Protocol):
    """Anything that can run a consumer over an iterator."""

    def execute(self, it: Iter, spec: ConsumeSpec) -> Any: ...


class SequentialExecutor:
    """The default executor: ignore hints, run the fused loop here."""

    def execute(self, it: Iter, spec: ConsumeSpec) -> Any:
        return spec.seq_fn(it)


_SEQUENTIAL = SequentialExecutor()

_current: contextvars.ContextVar[Executor] = contextvars.ContextVar(
    "repro_executor", default=_SEQUENTIAL
)


@contextmanager
def use_executor(executor: Executor):
    """Install *executor* for the dynamic extent (the runtime does this)."""
    token = _current.set(executor)
    try:
        yield executor
    finally:
        _current.reset(token)


def current_executor() -> Executor:
    return _current.get()


def dispatch(it: Iter, spec: ConsumeSpec) -> Any:
    """Route a consumer: hinted iterators go to the installed executor."""
    if it.hint is not ParHint.SEQ:
        return _current.get().execute(it, spec)
    return spec.seq_fn(it)
