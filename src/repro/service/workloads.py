"""The paper's four applications packaged as service jobs.

Each factory closes over a prepared problem and returns a job body --
``fn(ctx) -> value`` -- that mirrors the corresponding standalone runner
in :mod:`repro.apps` phase for phase, but runs against the attached
runtime instead of constructing its own.  The job bodies ``distribute``
their inputs exactly like the standalone runners do; on a resident
server the data plane's registration dedupe maps a re-distributed array
(same object, or equal content -- e.g. sgemm's per-job rebuilt ``BT``)
onto the handle an earlier job already placed, so repeat jobs ship zero
input bytes.

:func:`run_solo` is the bit-identity oracle: the same job body on a
fresh one-shot runtime with nothing shared.  The service's whole
contract is that sharing plans and placements changes *when* work
happens, never *what* is computed -- ``server`` and ``solo`` values
must match bit for bit.
"""
from __future__ import annotations

import numpy as np

from repro import serial
from repro.apps.cutcp.triolet import _contrib
from repro.apps.mriq.triolet import _pixel_q
from repro.apps.sgemm.triolet import _dot_elem, _transpose_elem
from repro.apps.tpacf.triolet import (
    _self_pairs_row,
    correlation,
    cross_sets_correlation,
    self_sets_correlation,
)
from repro.cluster.machine import MachineSpec
from repro.core.fusion import planner
from repro.core.iterators.executor import use_executor
from repro.data.plane import DataPlane
from repro.runtime.costs import CostContext, use_costs
from repro.runtime.driver import TrioletRuntime
from repro.serial import closure
from repro.service.job import JobContext
import repro.triolet as tri


def mriq_job(p, dataset: str | None = None):
    """mri-q: parallel pixel map, k-space arrays replicated via closure."""

    def job(ctx: JobContext):
        rt = ctx.rt
        if dataset is not None:
            x = ctx.dataset(f"{dataset}.x")
            y = ctx.dataset(f"{dataset}.y")
            z = ctx.dataset(f"{dataset}.z")
        else:
            x, y, z = (rt.distribute(p.x), rt.distribute(p.y),
                       rt.distribute(p.z))
        kx = rt.distribute(p.kx, layout="replicated")
        ky = rt.distribute(p.ky, layout="replicated")
        kz = rt.distribute(p.kz, layout="replicated")
        mag = rt.distribute(p.mag, layout="replicated")
        pixel_fn = closure(_pixel_q, kx, ky, kz, mag)
        return np.asarray(
            tri.build(tri.map(pixel_fn, tri.par(tri.zip(x, y, z))))
        )

    return job


def register_mriq_dataset(server, name: str, p) -> None:
    """Pre-place mri-q's sharded pixel coordinates under *name*."""
    server.register_dataset(f"{name}.x", p.x)
    server.register_dataset(f"{name}.y", p.y)
    server.register_dataset(f"{name}.z", p.z)


def sgemm_job(p):
    """sgemm: localpar transpose, then the 2-D-blocked outer product.

    ``BT`` is rebuilt by every job; content dedupe makes the
    rebuilt array resolve to the first job's resident handle.
    """

    def job(ctx: JobContext):
        rt = ctx.rt
        BT = tri.build(
            tri.map(
                closure(_transpose_elem, p.B),
                tri.localpar(tri.arrayRange((p.m, p.k))),
            )
        )
        A = rt.distribute(p.A)
        BTh = rt.distribute(BT)
        zipped_AB = tri.outerproduct(tri.rows(A), tri.rows(BTh))
        return np.asarray(
            tri.build(
                tri.map(closure(_dot_elem, p.alpha), tri.par(zipped_AB))
            )
        )

    return job


def tpacf_job(p):
    """tpacf: DD, DR, RR phases sharing one placement of obs/rands."""

    def job(ctx: JobContext):
        rt = ctx.rt
        obs = rt.distribute(p.obs, layout="replicated")
        rands = rt.distribute(p.rands)
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
        dr = cross_sets_correlation(p.nbins, obs, rands)
        rr = self_sets_correlation(p.nbins, rands)
        return {"dd": dd, "dr": dr, "rr": rr}

    return job


def cutcp_job(p):
    """cutcp: histogram over the nested atom -> grid-point traversal."""

    def job(ctx: JobContext):
        rt = ctx.rt
        atoms = rt.distribute(p.atoms)
        contrib = closure(_contrib, list(p.grid_dim), p.spacing, p.cutoff)
        return tri.histogram(
            p.grid_size, tri.map(contrib, tri.par(atoms))
        ).reshape(p.grid_dim)

    return job


def run_solo(
    fn,
    machine: MachineSpec,
    costs: CostContext | None = None,
    faults=None,
    recovery=None,
    budget=None,
):
    """The oracle: *fn* on a one-shot runtime sharing nothing.

    Fresh data plane, fresh plan cache, fresh serialization counters --
    the exact environment a standalone :mod:`repro.apps` runner gets.
    Returns ``(value, runtime)``.
    """
    kwargs = {}
    if recovery is not None:
        kwargs["recovery"] = recovery
    rt = TrioletRuntime(
        machine,
        costs=costs if costs is not None else CostContext(),
        faults=faults,
        plane=DataPlane(),
        planner_state=planner.PlannerState(),
        budget=budget,
        **kwargs,
    )
    ctx = JobContext(rt=rt)
    with serial.use_copy_stats(serial.new_copy_stats()), \
            use_executor(rt), use_costs(rt.costs):
        value = fn(ctx)
    return value, rt
