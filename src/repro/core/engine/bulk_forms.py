"""Registry of bulk (batched) forms for scalar element kernels.

A scalar element function runs once per element with the element as its
last argument; its *bulk form* runs once per chunk with a batch of
elements.  The two must be bit-identical per element -- the engine's
whole contract is that switching it on never changes a result, only the
number of Python-level dispatches.

The other half of the contract is the *call-count rule*: a bulk form's
NumPy-call count must not grow with the number of elements in its batch.
A form that loops over its batch is bit-identical and still pays one
Python dispatch -- and, between rank threads, one GIL hand-off -- per
element, which is what the engine exists to remove.  A loop over
fixed-size blocks that bounds temporaries (cutcp's and tpacf's
``_BULK_BUDGET``) is within the rule, which read exactly is then
O(1 + work / budget), not O(1): a fixed number of calls per block, and
one block for any batch under the budget.
``tests/bench/test_perfsmoke.py`` checks both.

The third part is the *tally rule*: a bulk form tallies per element --
``meter.tally_uniform(n, per)`` / ``meter.tally_each(counts)``, lengths
equal to its batch; stage forms over flattened values tally per value
and the engine folds them to outer elements by ``lengths``.  A rank runs
one engine pass per core while its node model times ``cores *
task_grain`` tasks, so a batch that spans a task boundary is split
exactly by element; a scalar ``tally_visits`` / ``tally_inner`` cannot
be, and while a bulk form runs it raises
:class:`repro.core.meter.TallyError` naming the form's code id, whether
a ledger is installed or not.

Bulk forms come in two kinds:

* ``ELEMENTWISE``: one output element per input element.  Called as
  ``bulk(*env, batch)`` where ``batch`` mirrors the scalar element shape
  (an ndarray of stacked elements, or a tuple of stacked components for
  zip/outer-product elements); returns the stacked outputs.
* ``SEGMENTED``: each input element expands to a variable-length run
  (the paper's ``concatMap`` shape).  Called the same way; returns
  ``(values, lengths)`` where ``values`` concatenates every element's
  output in order and ``lengths[i]`` is element *i*'s count.  ``values``
  may itself be a tuple of parallel arrays (e.g. cutcp's
  ``(indices, potentials)`` pairs).

Registration is keyed on the scalar function's serialized closure code
id, so a bulk form registered once applies to every closure over that
function, on every rank, including re-executions after a crash.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.serial.closures import _FUNC_TO_ID, Closure

ELEMENTWISE = "elementwise"
SEGMENTED = "segmented"


@dataclass(frozen=True)
class BulkForm:
    """A batched kernel plus its expansion kind."""

    fn: Callable[..., Any]
    kind: str  # ELEMENTWISE | SEGMENTED


_REGISTRY: dict[str, BulkForm] = {}


def _code_id_of(scalar_fn) -> str:
    if isinstance(scalar_fn, str):
        return scalar_fn
    if isinstance(scalar_fn, Closure):
        return scalar_fn.code_id
    code_id = _FUNC_TO_ID.get(scalar_fn)
    if code_id is None:
        raise KeyError(
            f"{scalar_fn!r} is not a registered serializable function; "
            "register_function() it before registering a bulk form"
        )
    return code_id


def register_bulk(scalar_fn, bulk_fn: Callable, kind: str = ELEMENTWISE) -> Callable:
    """Attach ``bulk_fn`` as the batched form of ``scalar_fn``.

    ``scalar_fn`` may be the registered function itself, a closure over
    it, or its code id string.  Returns ``bulk_fn`` so this can be used
    as a decorator factory target.
    """
    if kind not in (ELEMENTWISE, SEGMENTED):
        raise ValueError(f"unknown bulk form kind: {kind!r}")
    _REGISTRY[_code_id_of(scalar_fn)] = BulkForm(bulk_fn, kind)
    return bulk_fn


def bulk_form_of(code_id: str) -> BulkForm | None:
    """The registered bulk form for a closure code id, or ``None``."""
    return _REGISTRY.get(code_id)
