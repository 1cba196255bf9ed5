"""The stepper encoding (paper §3.1, "Steppers"; Coutts et al. stream fusion).

"A stepper is a data structure containing a suspended loop state and a
function for stepping to the next loop iteration."  A step produces
``Yield`` (a value plus the next state), ``Skip`` (just a next state --
this is what makes ``filter`` fusible without nested closures), or
``Done``.

Steppers are sequential (only the *next* element is reachable) but handle
variable-length output, so they complement indexers exactly as Fig. 1
shows.  Every stepper step is tallied on the cost meter; the paper's
observation that stepper-encoded nested traversals run 2-5x slower than
loop nests is reproduced as a per-step overhead in the virtual cost model.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core import meter
from repro.serial import Closure, bind, binds, closure, register_function
from repro.serial.serializer import serializable

# Step results are transient (never serialized): plain tagged tuples.
_YIELD = 0
_SKIP = 1
_DONE = 2

DONE = (_DONE, None, None)


def yield_(value: Any, state: Any) -> tuple:
    return (_YIELD, value, state)


def skip(state: Any) -> tuple:
    return (_SKIP, None, state)


@serializable
@dataclass(frozen=True)
class Step:
    """A stepper: suspended state plus a step function."""

    state0: Any
    stepf: Closure  # state -> (tag, value, state')

    def drive(self) -> Iterator[Any]:
        """Run the stepper to exhaustion, yielding elements."""
        state = self.state0
        stepf = bind(self.stepf)
        while True:
            meter.tally_steps()
            tag, value, state = stepf(state)
            if tag == _YIELD:
                meter.tally_visits()
                yield value
            elif tag == _DONE:
                return

    def to_list(self) -> list:
        return list(self.drive())


def _as_closure(fn: Callable | Closure) -> Closure:
    return fn if isinstance(fn, Closure) else closure(fn)


# ---------------------------------------------------------------------------
# Step-function combinators


@register_function
def _step_indexer(extract, ctx, n, state):
    i = state
    if i >= n:
        return DONE
    return yield_(extract(ctx, i), i + 1)


@binds(_step_indexer)
def _bind_step_indexer(extract, ctx, n):
    extract = bind(extract) if n else None  # an empty slice binds nothing
    return lambda i: DONE if i >= n else (_YIELD, extract(ctx, i), i + 1)


@register_function
def _step_list(xs, state):
    i = state
    if i >= len(xs):
        return DONE
    return yield_(xs[i], i + 1)


@register_function
def _step_unit(state):
    if state is None:
        return DONE
    value, = state
    return yield_(value, None)


@register_function
def _step_empty(_state):
    return DONE


@register_function
def _step_map(f, inner, state):
    tag, value, state2 = inner(state)
    if tag == _YIELD:
        return yield_(f(value), state2)
    return (tag, None, state2)


@register_function
def _step_filter(pred, inner, state):
    tag, value, state2 = inner(state)
    if tag == _YIELD and not pred(value):
        return skip(state2)
    return (tag, value, state2)


@register_function
def _step_concat_map(f, outer_stepf, state):
    # state = (outer_state, current_inner_stepper_or_None, inner_state)
    outer_state, inner_stepf, inner_state = state
    if inner_stepf is not None:
        tag, value, inner_state2 = inner_stepf(inner_state)
        if tag == _YIELD:
            return yield_(value, (outer_state, inner_stepf, inner_state2))
        if tag == _SKIP:
            return skip((outer_state, inner_stepf, inner_state2))
        return skip((outer_state, None, None))  # inner done; advance outer
    tag, value, outer_state2 = outer_stepf(outer_state)
    if tag == _YIELD:
        new_inner = f(value)  # f returns a Step
        return skip((outer_state2, new_inner.stepf, new_inner.state0))
    if tag == _SKIP:
        return skip((outer_state2, None, None))
    return DONE


@register_function
def _step_zip(s1, s2, state):
    # state = (st1, st2, pending1) -- pending1 holds a yielded-but-unpaired
    # element from stream 1 while stream 2 skips.
    st1, st2, pending = state
    if pending is None:
        tag, value, st1b = s1(st1)
        if tag == _DONE:
            return DONE
        if tag == _SKIP:
            return skip((st1b, st2, None))
        return skip((st1b, st2, (value,)))
    tag, value, st2b = s2(st2)
    if tag == _DONE:
        return DONE
    if tag == _SKIP:
        return skip((st1, st2b, pending))
    return yield_((pending[0], value), (st1, st2b, None))


# ---------------------------------------------------------------------------
# Constructors


def stepper_from_indexer(idx) -> Step:
    """``idxToStep``: traverse an indexer sequentially."""
    ctx = idx.source.context()
    stepf = closure(_step_indexer, idx.extract, ctx, idx.domain.size)
    return Step(0, stepf)


def stepper_from_list(xs: list) -> Step:
    return Step(0, closure(_step_list, list(xs)))


def unit_stepper(value: Any) -> Step:
    """``unitStep``: exactly one element."""
    return Step((value,), closure(_step_unit))


def empty_stepper() -> Step:
    return Step(None, closure(_step_empty))


def map_step(f: Callable | Closure, st: Step) -> Step:
    return Step(st.state0, closure(_step_map, _as_closure(f), st.stepf))


def filter_step(pred: Callable | Closure, st: Step) -> Step:
    return Step(st.state0, closure(_step_filter, _as_closure(pred), st.stepf))


def concat_map_step(f: Callable | Closure, st: Step) -> Step:
    """``concatMapStep``: *f* maps each element to a Step; flatten."""
    return Step(
        (st.state0, None, None),
        closure(_step_concat_map, _as_closure(f), st.stepf),
    )


def zip_step(s1: Step, s2: Step) -> Step:
    """``zipStep``: sequential lockstep pairing of two steppers."""
    return Step((s1.state0, s2.state0, None), closure(_step_zip, s1.stepf, s2.stepf))


def fold_step(worker: Callable, acc: Any, st: Step) -> Any:
    """Consume a stepper with a fold loop (``sumStep`` et al.)."""
    state = st.state0
    worker, stepf = bind(worker), bind(st.stepf)
    while True:
        meter.tally_steps()
        tag, value, state = stepf(state)
        if tag == _YIELD:
            meter.tally_visits()
            acc = worker(acc, value)
        elif tag == _DONE:
            return acc
