"""tpacf in Triolet, mirroring the paper's Fig. 6 listing.

::

    def correlation(size, pairs):
        values = (score(size, u, v) for (u, v) in pairs)
        return histogram(size, values)

    def randomSetsCorrelation(size, corr1, rands):
        ...
        return reduce(add, empty, par(corr1(r) for r in rands))

    def selfCorrelations(size, obs, rands):
        def corr1(rand):
            indexed_rand = zip(indices(domain(rand)), rand)
            pairs = localpar((u, v) for (i, u) in indexed_rand
                                    for v in rand[i+1:])
            return correlation(size, pairs)
        return randomSetsCorrelation(size, corr1, rands)

The structure is identical here: ``par`` over the random data sets (whose
rows the sliced array source distributes), ``localpar`` over the
triangular pair loop inside each set, and per-thread private histograms
summed up the reduction tree.  The inner pair loop scores one row against
the remaining rows vectorized (the role the paper's compiler plays in
turning the fused comprehension into tight code).
"""
from __future__ import annotations

import numpy as np

from repro.apps.common import AppRun
from repro.apps.tpacf.data import TpacfProblem
from repro.apps.tpacf.kernel import (
    cross_pairs_bins_bulk,
    cross_set_bins,
    cross_set_bins_batch,
    row_bins,
    self_pairs_bins_bulk,
    self_set_bins,
    self_set_bins_batch,
)
from repro.core.engine import SEGMENTED, register_bulk
from repro.cluster.faults import FaultPlan
from repro.cluster.limits import RuntimeLimits, UNLIMITED
from repro.cluster.machine import MachineSpec
from repro.runtime import (
    BOEHM_GC,
    DEFAULT_RECOVERY,
    AllocatorModel,
    CheckpointConfig,
    CostContext,
    FailureBudget,
    RecoveryPolicy,
    triolet_runtime,
)
from repro.obs.spans import active as _obs_active, obs_span as _obs_span
from repro.serial import closure, register_function
import repro.triolet as tri


@register_function
def _self_pairs_row(nbins, rand, iu):
    """Score row *i* of ``rand`` against rows ``i+1:`` (triangular loop).

    The library's reduction loop tallies the row visit; ``row_bins``
    tallies the vectorized inner pairs.
    """
    i, u = iu
    return row_bins(nbins, u, rand[i + 1 :])


@register_function
def _cross_pairs_row(nbins, other, iu):
    """Score one row against every row of the *other* set."""
    _i, u = iu
    return row_bins(nbins, u, other)


def _self_pairs_rows_bulk(nbins, rand, ius):
    i_arr, us = ius
    return self_pairs_bins_bulk(nbins, rand, i_arr, us)


def _cross_pairs_rows_bulk(nbins, other, ius):
    _i_arr, us = ius
    return cross_pairs_bins_bulk(nbins, other, us)


register_bulk(_self_pairs_row, _self_pairs_rows_bulk, kind=SEGMENTED)
register_bulk(_cross_pairs_row, _cross_pairs_rows_bulk, kind=SEGMENTED)


@register_function
def _cross_set_bins(nbins, other, sv):
    """All pair bins of one (set index, random set) stream element."""
    _s, rand = sv
    return cross_set_bins(nbins, other, rand)


@register_function
def _self_set_bins(nbins, sv):
    _s, rand = sv
    return self_set_bins(nbins, rand)


def _cross_set_bins_bulk(nbins, other, sv):
    _s_arr, stack = sv
    return cross_set_bins_batch(nbins, other, stack)


def _self_set_bins_bulk(nbins, sv):
    _s_arr, stack = sv
    return self_set_bins_batch(nbins, stack)


register_bulk(_cross_set_bins, _cross_set_bins_bulk, kind=SEGMENTED)
register_bulk(_self_set_bins, _self_set_bins_bulk, kind=SEGMENTED)


def correlation(size: int, pair_bins_iter) -> np.ndarray:
    """Fig. 6 lines 1-4: histogram the scored pairs."""
    return tri.histogram(size, pair_bins_iter)


def self_correlation(size: int, rand: np.ndarray) -> np.ndarray:
    """Fig. 6's corr1: the localpar triangular pair loop of one set."""
    indexed_rand = tri.zip(tri.indices(tri.domain(rand)), tri.iterate(rand))
    pairs = tri.map(closure(_self_pairs_row, size, rand), tri.localpar(indexed_rand))
    return correlation(size, pairs)


def cross_correlation(size: int, rand: np.ndarray, obs: np.ndarray) -> np.ndarray:
    indexed_rand = tri.zip(tri.indices(tri.domain(rand)), tri.iterate(rand))
    pairs = tri.map(closure(_cross_pairs_row, size, obs), tri.localpar(indexed_rand))
    return correlation(size, pairs)


@register_function
def _corr1_self(nbins, rand):
    return self_correlation(nbins, rand)


@register_function
def _corr1_cross(nbins, obs, rand):
    return cross_correlation(nbins, rand, obs)


def random_sets_correlation(size: int, corr1, rands: np.ndarray) -> np.ndarray:
    """Fig. 6 lines 6-11: parallel reduction of per-set histograms.

    The legacy per-set-histogram form: ``corr1`` runs a whole nested
    pipeline per set, which the vectorizing engine cannot compile (the
    plan cache records it ``unsupported`` and falls back to the scalar
    loop).  :func:`cross_sets_correlation` / :func:`self_sets_correlation`
    below are the fusible rewrite the runner uses.
    """
    hists = tri.map(corr1, tri.par(rands))
    return tri.sum(hists, zero=np.zeros(size))


def cross_sets_correlation(size: int, obs, rands) -> np.ndarray:
    """DR as one segmented indexed stream: histogram over per-set bins.

    ``tri.indexed(rands)`` streams ``(set index, set)`` pairs off the
    sharded handle; the SEGMENTED kernel emits every pair bin of a set
    as one segment, and the histogram consumer scatters whole chunks.
    One flat pipeline, so the engine compiles it (``unsupported == 0``)
    and every rank still ships only its own row span.  Fig. 6's two
    hints both stand: ``par`` over the sets, ``localpar`` over the rows
    of a set -- the work a set's element function does -- so a node with
    fewer sets than cores still spreads a set over them.
    """
    sets = tri.indexed(rands)
    return correlation(
        size,
        tri.map(
            closure(_cross_set_bins, size, obs),
            tri.par(sets, inner=tri.localpar),
        ),
    )


def self_sets_correlation(size: int, rands) -> np.ndarray:
    """RR as one segmented indexed stream (triangular pairs per set)."""
    sets = tri.indexed(rands)
    return correlation(
        size,
        tri.map(closure(_self_set_bins, size), tri.par(sets, inner=tri.localpar)),
    )


def run_triolet(
    p: TpacfProblem,
    machine: MachineSpec,
    costs: CostContext,
    alloc: AllocatorModel = BOEHM_GC,
    limits: RuntimeLimits = UNLIMITED,
    faults: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    budget: FailureBudget | None = None,
    checkpoint: CheckpointConfig | None = None,
) -> AppRun:
    with triolet_runtime(
        machine,
        costs=costs,
        alloc=alloc,
        limits=limits,
        faults=faults,
        recovery=recovery,
        budget=budget,
        checkpoint=checkpoint,
    ) as rt:
        # Resident placement: obs rides in closure environments (every
        # rank needs all of it), rands is sharded by rows.  The three
        # correlation phases below share the placement -- DR and RR ship
        # zero input bytes for arrays DD already placed.
        obs = rt.distribute(p.obs, layout="replicated")
        rands = rt.distribute(p.rands)
        # DD: the observed set against itself, parallel over its rows.
        with _obs_span("phase", "dd"):
            indexed_obs = tri.zip(
                tri.indices(tri.domain(obs)), tri.iterate(obs)
            )
            dd = correlation(
                p.nbins,
                tri.map(
                    closure(_self_pairs_row, p.nbins, obs),
                    tri.par(indexed_obs),
                ),
            )
        # DR: each random set against the observed set, as one segmented
        # indexed stream over the sharded sets (fully engine-compiled).
        with _obs_span("phase", "dr"):
            dr = cross_sets_correlation(p.nbins, obs, rands)
        # RR: each random set against itself.
        with _obs_span("phase", "rr"):
            rr = self_sets_correlation(p.nbins, rands)
    detail = {
        "gc_time": rt.total_gc_time(),
        "meter": rt.meter_total,
        "data_plane": rt.plane.stats_dict(),
    }
    if _obs_active() is not None:
        detail["obs"] = _obs_active().detail_snapshot()
    if faults is not None or rt.recovery_report.rejected_messages:
        detail["recovery"] = rt.recovery_report
    return AppRun(
        framework="triolet",
        value={"dd": dd, "dr": dr, "rr": rr},
        elapsed=rt.elapsed,
        bytes_shipped=rt.total_bytes_shipped(),
        detail=detail,
    )
