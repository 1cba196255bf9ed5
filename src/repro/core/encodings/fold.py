"""The fold encoding (paper §3.1, "Folds").

"A data structure can be encoded as a function that folds over its
elements in some predetermined order."  Folds nest cleanly (the worker of
the outer fold runs an inner fold), so nested traversals optimize to loop
nests -- but the consumer has no control over execution order, ruling out
zip and parallel execution (Fig. 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core import meter
from repro.serial import Closure, bind, closure, register_function
from repro.serial.serializer import serializable


@serializable
@dataclass(frozen=True)
class FoldLoop:
    """A collection as its own fold: ``run(worker, z)`` reduces it."""

    run: Closure  # (worker, z) -> result, worker: (acc, value) -> acc

    def fold(self, worker: Callable[[Any, Any], Any], z: Any) -> Any:
        return self.run(worker, z)

    def to_list(self) -> list:
        return self.fold(_append_worker, [])


@register_function
def _append_worker(acc: list, value) -> list:
    acc.append(value)
    return acc


@register_function
def _run_indexer_fold(extract, ctx, domain, worker, z):
    acc = z
    if domain.size:  # an empty slice binds nothing
        worker, extract = bind(worker), bind(extract)
        for i in domain.iter_indices():
            acc = worker(acc, extract(ctx, i))
    meter.tally_visits(domain.size)
    return acc


@register_function
def _run_list_fold(xs, worker, z):
    acc = z
    for x in xs:
        acc = worker(acc, x)
    meter.tally_visits(len(xs))
    return acc


@register_function
def _run_map_fold(f, inner_run, worker, z):
    return inner_run(closure(_mapped_worker).bind(f, worker), z)


@register_function
def _mapped_worker(f, worker, acc, value):
    return worker(acc, f(value))


@register_function
def _run_concat_fold(f, inner_run, worker, z):
    # Nested traversal: the outer worker runs the inner collection's fold.
    return inner_run(closure(_concat_worker).bind(f, worker), z)


@register_function
def _concat_worker(f, worker, acc, value):
    return f(value).fold(worker, acc)


def fold_from_indexer(idx) -> FoldLoop:
    """``idxToFold``: loop over all points in the indexer's domain."""
    ctx = idx.source.context()
    return FoldLoop(closure(_run_indexer_fold, idx.extract, ctx, idx.domain))


def fold_from_list(xs: list) -> FoldLoop:
    return FoldLoop(closure(_run_list_fold, list(xs)))


def map_fold(f: Callable | Closure, fl: FoldLoop) -> FoldLoop:
    fc = f if isinstance(f, Closure) else closure(f)
    return FoldLoop(closure(_run_map_fold, fc, fl.run))


def concat_map_fold(f: Callable | Closure, fl: FoldLoop) -> FoldLoop:
    """*f* maps each element to a FoldLoop; traversal becomes a loop nest."""
    fc = f if isinstance(f, Closure) else closure(f)
    return FoldLoop(closure(_run_concat_fold, fc, fl.run))
