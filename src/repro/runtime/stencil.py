"""The ``stencil`` skeleton: iterative halo-exchange over a resident array.

A radius-``r`` stencil updates row ``i`` from rows ``[i-r, i+r]``.  Run
distributed, each rank owns one block of rows (the same block partition
as any other section, so the array's resident placement is reused), and
needs ``r`` *ghost* rows beyond each block edge per iteration -- the halo.
The data plane places halos as ghost-flagged slice-cache entries
(:meth:`~repro.data.plane.DataPlane.plan_stencil`), so:

* iteration 1 ships each rank its block (ordinary placement) plus its
  ghost rows;
* iteration ``k >= 2`` ships **zero interior bytes** (resident hits) and
  only the *dirty* halos -- ghost intervals whose rows were overwritten
  by the previous iteration.  Ghosts covering never-written boundary
  rows stay fresh indefinitely and keep serving halo hits;
* every sweep runs through the one section engine
  (:func:`repro.runtime.section.run_section`), so a transient
  ``RankCrash`` invalidates placement, a permanent ``RankLoss`` shrinks
  the plane, recovery charges the job's ``FailureBudget`` and a
  ``CheckpointConfig`` persists and restores sweeps, exactly as for any
  other section.  The master copy only ever holds *completed*
  iterations (updates commit after a successful attempt), so any retry
  re-reads exactly the state the failed attempt read -- recovery is
  bit-identical by construction.

Boundary semantics are Dirichlet: rows within ``radius`` of either array
edge are held fixed, so every padded read window sits inside the array.

The kernel contract is vectorized-NumPy: ``kernel(xpad)`` receives the
rank's padded row window (its writable rows plus ``radius`` rows of
context on each side) and returns the updated writable rows, i.e. an
array of ``len(xpad) - 2 * radius`` rows.  For 1-D heat::

    rt.stencil(h, radius=1, kernel=lambda x: 0.5 * (x[:-2] + x[2:]),
               iterations=50)
"""
from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.core import meter
from repro.core.iterators.transforms import iterate
from repro.obs.spans import obs_span as _obs_span
from repro.partition import block_bounds
from repro.runtime.section import Parts, SectionKind, run_section


def run_stencil(rt, handle, radius: int, kernel, iterations: int = 1,
                label: str = "stencil"):
    """Execute *iterations* stencil sweeps over *handle* on runtime *rt*.

    *handle* may be a plain ndarray (distributed on first use) or an
    existing :class:`~repro.data.handle.DistArray`.  Returns the handle;
    its master copy holds the final state.
    """
    if radius < 1:
        raise ValueError(f"stencil radius must be >= 1, got {radius}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    handle = rt.plane.register(handle)
    plane = rt.plane
    aid = handle.array_id
    n = len(handle)

    def partition(nranks: int) -> Parts:
        bounds = block_bounds(n, max(1, min(nranks, n)))
        return Parts(f"1d x{len(bounds)} halo r{radius}", bounds, bounds)

    def commit(pieces, parts: Parts | None) -> None:
        # Commit the completed sweep: master write, rank-store interior
        # mirror (zero wire cost -- each rank computed its own rows),
        # hull reset, and dirty-ghost invalidation.  A sweep restored
        # from a checkpoint was computed by no rank of this run: with no
        # bounds the commit mirrors nothing and drops every placement of
        # the array, so each rank re-places from the restored master.
        plane.commit_stencil(
            aid, parts.bounds if parts is not None else [], pieces
        )

    sweep = SectionKind(
        kind="stencil",
        label=label,
        partition=partition,
        plan_ship=lambda parts, migrated, recovery: plane.plan_stencil(
            aid, parts.bounds, radius, migrated=migrated, recovery=recovery
        ),
        rank_body=_make_rank_body(rt, handle, radius, kernel),
        commit=commit,
        span_attrs=lambda ship, plan: {
            "radius": radius, "halo_bytes": ship.stats["halo_bytes"]
        },
        observe={
            "iterator": iterate(handle),
            "spec": None,
            "halo": {"aid": aid, "radius": radius,
                     "row_nbytes": handle.row_nbytes()},
        },
    )
    for _ in range(iterations):
        run_section(rt, sweep)
    return handle


def _make_rank_body(rt, handle, radius: int, kernel):
    """Build the per-rank body of a stencil sweep.

    Rank 0 reads the master copy (which holds the previous iteration);
    other ranks assemble their padded window from resident block rows
    plus ghost cache entries.  Every rank returns its ``(wlo, whi, rows)``
    update, gathered at the root for the driver-side commit.
    """
    plane = rt.plane
    costs = rt.costs
    aid = handle.array_id
    n = len(handle)
    elem_shape = handle.array.shape[1:]
    dtype = handle.array.dtype

    def rank_body(comm: Comm, block, _parts):
        blo, bhi = block
        # Dirichlet boundaries: rows within ``radius`` of either array
        # edge are fixed, so the writable range clamps to them and the
        # padded read window always sits inside [0, n).
        wlo, whi = max(blo, radius), min(bhi, n - radius)
        with _obs_span(
            "kernel", "stencil_kernel", rank=comm.rank, clock=comm.clock
        ) as ksp:
            if whi > wlo:
                rlo, rhi = wlo - radius, whi + radius
                if comm.rank == 0:
                    xpad = handle.array[rlo:rhi]
                else:
                    store = plane.worker_store(comm.rank)
                    parts = []
                    if rlo < blo:
                        parts.append(store.view(aid, rlo, blo))
                    parts.append(store.view(aid, max(rlo, blo),
                                            min(rhi, bhi)))
                    if rhi > bhi:
                        parts.append(store.view(aid, bhi, rhi))
                    xpad = (
                        parts[0]
                        if len(parts) == 1
                        else np.concatenate(parts, axis=0)
                    )
                with meter.metered() as m:
                    meter.tally_visits(whi - wlo)
                    rows = np.asarray(kernel(xpad))
                if len(rows) != whi - wlo:
                    raise ValueError(
                        f"stencil kernel returned {len(rows)} rows for a "
                        f"{whi - wlo}-row writable window (input was "
                        f"{rhi - rlo} padded rows, radius {radius})"
                    )
                rt._merge_meter(m)
                dt = costs.task_seconds(m)
            else:
                rows = np.empty((0,) + elem_shape, dtype=dtype)
                dt = 0.0
            comm.compute(dt)
            ksp.set(makespan=dt, rows=int(whi - wlo))
        comm.alloc(rows.nbytes)
        gathered = comm.gather((wlo, whi, rows), root=0)
        return gathered if comm.rank == 0 else None

    return rank_body
