"""Execution meters: measured loop statistics.

Triolet's performance story rests on facts about the executed loop
structure: how many element visits happen, how many stepper steps (the
encoding the paper found 2-5x slower when misused), how many temporary
collections get materialized, and how many passes run over data.  The
meter records those facts during *real* execution; the virtual cost model
and the fusion tests both read them.

A meter is installed per metered region with :func:`metered`; nesting
restores the outer meter.  When no meter is installed, tallying is a
no-op.

The node model runs one pass per *thread* over a contiguous block of
tasks and still needs a duration per *task*: it hangs a
:class:`TaskLedger` on the pass's meter.  The pass's outermost loop says
where it is -- a scalar loop walks :func:`task_spans`, the engine
announces each of its :func:`batches` and hands a consumer that calls
user code the batch's elements :func:`folded` by task -- and every tally
lands in the task the loop is in.  A tally made for a whole batch says
which elements it is for (:func:`tally_uniform`, :func:`tally_each`), so
a batch that spans a task boundary is split exactly.
"""
from __future__ import annotations

import contextvars
from dataclasses import dataclass
from itertools import islice

import numpy as np


class TallyError(RuntimeError):
    """A bulk form broke the tally rule (see
    :mod:`repro.core.engine.bulk_forms`); ``form`` is its code id."""

    def __init__(self, form: str, what: str):
        super().__init__(
            f"the bulk form of {form} {what}: a bulk form tallies per "
            "element of its batch, with tally_uniform / tally_each"
        )
        self.form = form


class TaskLedger:
    """Per-task ``[visits, steps]`` of one pass over a block of tasks.

    ``cuts[t]`` is the flat position, in the pass's outermost loop -- the
    one over *domain*, the very object -- at which task *t* ends.  ``own``
    holds that loop's per-element visits; ``elem`` what its element
    function tallied -- the same rows unless the iterator carries an
    inner ``localpar`` hint, whose work the node model may spread over
    idle cores.
    """

    def __init__(self, cuts: list[int], domain, inner: bool = False):
        self.cuts = cuts
        self.domain = domain
        self.own = [[0, 0] for _ in cuts]
        self.elem = [[0, 0] for _ in cuts] if inner else self.own
        self.task = 0  # where a scalar tally lands
        self.parts = None  # the batch being evaluated, by task (else None)
        self.lengths = None  # values per batch element, under a stage form
        self.running = False  # the outermost loop is

    def _claim(self, domain) -> bool:
        """Whether a loop over *domain* is the pass's outermost one (and
        if so, that it now runs)."""
        if self.running or domain is not self.domain:
            return False
        self.running, self.task = True, 0
        return True

    def _release(self) -> None:
        self.running, self.parts = False, None

    def announce(self, lo: int, hi: int) -> None:
        """The outermost loop evaluates positions ``[lo, hi)`` next
        (batches ascend): ``parts`` becomes its ``(task, a, b)``, in
        batch-relative positions."""
        cuts, t = self.cuts, self.task
        while cuts[t] <= lo and t < len(cuts) - 1:
            t += 1
        self.task = t
        self.parts, pos = [], lo
        while pos < hi:
            end = min(cuts[t], hi)
            self.parts.append((t, pos - lo, end - lo))
            pos, t = end, t + 1

    def _parts(self, n: int, form):
        """The *n* elements a bulk tally is for, by task."""
        parts = self.parts
        if parts is None:
            return ((self.task, 0, n),)  # no batch: the task the loop is in
        if n != parts[-1][2]:
            raise TallyError(
                form, f"tallied {n} elements for a batch of {parts[-1][2]}"
            )
        return parts

    def _per_element(self, counts, form):
        """A stage form's per-value *counts*, summed per batch element."""
        ends = np.cumsum(self.lengths)
        if len(counts) != (ends[-1] if len(ends) else 0):
            raise TallyError(
                form, f"tallied {len(counts)} values for a batch of "
                f"{int(self.lengths.sum())}"
            )
        sums = np.concatenate(([0], np.cumsum(counts)))
        return sums[ends] - sums[ends - self.lengths]


@dataclass
class CostMeter:
    """Counters for one metered region."""

    visits: int = 0  # innermost elements produced/consumed
    steps: int = 0  # stepper step-function invocations
    lookups: int = 0  # indexer lookup invocations
    materializations: int = 0  # temporary collections built
    materialized_bytes: int = 0
    passes: int = 0  # complete traversals of a collection

    # Not counters (and no dataclass fields): the per-task ledger of a
    # node pass, and the code id of the bulk form being evaluated.
    ledger = None
    form = None

    def merge(self, other: "CostMeter") -> None:
        self.visits += other.visits
        self.steps += other.steps
        self.lookups += other.lookups
        self.materializations += other.materializations
        self.materialized_bytes += other.materialized_bytes
        self.passes += other.passes

    def spread(self, n: int, per: int, steps: int = 0, own: bool = False) -> None:
        """*per* visits and *steps* steps for each of the *n* elements of
        the batch being evaluated: the element function's, or the loop's
        *own*.  O(1) Python ints a task."""
        self.visits += n * per
        self.steps += n * steps
        led = self.ledger
        if led is not None:
            rows = led.own if own else led.elem
            for t, a, b in led._parts(n, self.form):
                rows[t][0] += (b - a) * per
                rows[t][1] += (b - a) * steps


_current: contextvars.ContextVar[CostMeter | None] = contextvars.ContextVar(
    "repro_cost_meter", default=None
)


class metered:
    """Install *meter* (or a fresh one) for the dynamic extent; yields it."""

    __slots__ = ("meter", "token")

    def __init__(self, meter: CostMeter | None = None):
        self.meter = meter if meter is not None else CostMeter()

    def __enter__(self) -> CostMeter:
        self.token = _current.set(self.meter)
        return self.meter

    def __exit__(self, *exc) -> None:
        _current.reset(self.token)


def current_meter() -> CostMeter | None:
    return _current.get()


# The three scalar tallies are written out rather than shared: they run
# once per element of every scalar loop, and a helper call is half their
# cost.


def tally_visits(n: int = 1) -> None:
    m = _current.get()
    if m is not None:
        if m.form is not None:
            raise TallyError(m.form, "called the scalar tally_visits")
        m.visits += n
        led = m.ledger
        if led is not None:
            led.elem[led.task][0] += n


def tally_steps(n: int = 1) -> None:
    m = _current.get()
    if m is not None:
        m.steps += n
        led = m.ledger
        if led is not None:
            led.elem[led.task][1] += n


def tally_lookups(n: int = 1) -> None:
    m = _current.get()
    if m is not None:
        m.lookups += n


def tally_inner(n: int) -> None:
    """Tally a vectorized inner loop of *n* element visits.

    For use inside element kernels the library already counts once per
    outer element: tallies ``n - 1`` so the region totals exactly ``n``.
    """
    m = _current.get()
    if m is not None:
        if m.form is not None:
            raise TallyError(m.form, "called the scalar tally_inner")
        if n > 1:
            m.visits += n - 1
            led = m.ledger
            if led is not None:
                led.elem[led.task][0] += n - 1


def tally_uniform(n: int, per: int) -> None:
    """A bulk form's tally for a batch of *n* elements costing *per*
    visits each, beyond the one visit the loop counts per element.
    O(1): no array is made."""
    m = _current.get()
    if m is not None:
        led = m.ledger
        if led is not None and led.lengths is not None:
            return tally_each(np.full(n, per))  # a stage form: per value
        m.spread(n, per)


def tally_each(counts) -> None:
    """A bulk form's tally of ``counts[i]`` visits for element *i* of its
    batch (a stage form over flattened values: for value *i*)."""
    m = _current.get()
    if m is None:
        return
    led = m.ledger
    if led is None:
        m.visits += int(counts.sum())
        return
    if led.lengths is not None:
        counts = led._per_element(counts, m.form)
    for t, a, b in led._parts(len(counts), m.form):
        n = int(counts[a:b].sum())
        m.visits += n
        led.elem[t][0] += n


def tally_elements(n: int) -> None:
    """An engine loop's own visit of the *n* elements of a batch: split
    by task if it is the batch the outermost loop announced, else (a loop
    inside an element of the outermost) where that element is."""
    m = _current.get()
    if m is not None:
        led = m.ledger
        if led is not None and led.parts is not None:
            m.spread(n, 1, own=True)
        else:
            tally_visits(n)


def task_spans(domain, visits: bool = True):
    """The indices of a scalar loop over *domain*, in spans: one per task
    when the loop is the outermost of a ledgered pass, else one in all.
    With *visits*, tallies the loop's one visit per element."""
    m = _current.get()
    led = m.ledger if m is not None else None
    if led is None or not led._claim(domain):
        if visits:
            tally_visits(domain.size)
        yield domain.iter_indices()
        return
    try:
        indices, lo = domain.iter_indices(), 0
        for task, hi in enumerate(led.cuts):
            led.task = task
            if visits:
                m.visits += hi - lo
                led.own[task][0] += hi - lo
            yield islice(indices, hi - lo)
            lo = hi
    finally:
        led._release()


def batches(domain, chunk: int):
    """``[lo, hi)`` of each engine batch over *domain*'s flat positions,
    announced to the ledger of a pass this loop is the outermost of."""
    m = _current.get()
    led = m.ledger if m is not None else None
    if led is not None and not led._claim(domain):
        led = None
    total = domain.size
    try:
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            if led is not None:
                led.announce(lo, hi)
            yield lo, hi
    finally:
        if led is not None:
            led._release()


def folded(elements, lengths=None):
    """The elements of an evaluated (and tallied) batch, for a consumer
    that calls user code on each: in spans, one per task of the announced
    batch.  What the consumer tallies -- a loop of its own inside ``op``
    -- is scalar again and lands in the task of the element it folds.
    With *lengths*, *elements* are a nest's flattened values."""
    m = _current.get()
    led = m.ledger if m is not None else None
    parts = led.parts if led is not None else None
    if parts is None:
        yield elements
        return
    led.parts = None
    elements = iter(elements)
    for task, a, b in parts:
        led.task = task
        yield islice(
            elements, b - a if lengths is None else int(lengths[a:b].sum())
        )


def tally_pass() -> None:
    m = _current.get()
    if m is not None:
        m.passes += 1


def tally_materialization(nbytes: int) -> None:
    m = _current.get()
    if m is not None:
        m.materializations += 1
        m.materialized_bytes += nbytes
