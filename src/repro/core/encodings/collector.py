"""The collector encoding (paper §3.1, "Collectors").

"A collector is an imperative variant of a fold.  Instead of updating an
accumulator, the worker function uses side effecting operations to update
its output value."  Triolet uses collectors in sequential code for
histogramming and for packing variable-length results into an array --
the two uses this package reproduces (histogram consumers and
``pack_into``).

Side effects make collectors incompatible with parallel execution, so a
collector only ever runs inside one sequential task.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import meter
from repro.serial import Closure, bind, closure, register_function
from repro.serial.serializer import serializable


@serializable
@dataclass(frozen=True)
class Collector:
    """A collection as a driver of an imperative worker.

    ``run(worker)`` calls ``worker(value)`` once per element, in order;
    the worker mutates whatever output it closes over.
    """

    run: Closure  # worker -> None

    def collect(self, worker: Callable[[Any], None]) -> None:
        self.run(worker)


@register_function
def _run_indexer_coll(extract, ctx, domain, worker):
    if domain.size:  # an empty slice binds nothing
        worker, extract = bind(worker), bind(extract)
        for i in domain.iter_indices():
            worker(extract(ctx, i))
    meter.tally_visits(domain.size)


@register_function
def _run_list_coll(xs, worker):
    for x in xs:
        worker(x)
    meter.tally_visits(len(xs))


@register_function
def _run_map_coll(f, inner_run, worker):
    inner_run(closure(_mapped_coll_worker).bind(f, worker))


@register_function
def _mapped_coll_worker(f, worker, value):
    worker(f(value))


def collector_from_indexer(idx) -> Collector:
    """``idxToColl`` (§3.1 'Conversions'): loop indices, feed the worker."""
    ctx = idx.source.context()
    return Collector(closure(_run_indexer_coll, idx.extract, ctx, idx.domain))


def collector_from_list(xs: list) -> Collector:
    return Collector(closure(_run_list_coll, list(xs)))


def map_coll(f: Callable | Closure, c: Collector) -> Collector:
    fc = f if isinstance(f, Closure) else closure(f)
    return Collector(closure(_run_map_coll, fc, c.run))


# ---------------------------------------------------------------------------
# The two consumers Triolet implements with collectors


def histogram_into(coll: Collector, hist: np.ndarray) -> np.ndarray:
    """Histogramming: each element is a bin index (or (bin, weight))."""

    def worker(value):
        if isinstance(value, tuple):
            b, w = value
            hist[b] += w
        else:
            hist[value] += 1

    coll.collect(worker)
    return hist


def pack_into(coll: Collector, out: list) -> list:
    """Pack a variable-length producer's results into *out* in order."""
    coll.collect(out.append)
    return out
