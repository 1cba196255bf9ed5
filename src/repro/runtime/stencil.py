"""The ``stencil`` skeleton: iterative halo-exchange over a resident array.

A radius-``r`` stencil updates row ``i`` from rows ``[i-r, i+r]``.  Run
distributed, each rank owns one block of rows (the same block partition
as any other section, so the array's resident placement is reused) and
needs ``r`` *ghost* rows beyond each block edge per iteration -- the halo.
One ``rt.stencil(..., iterations=k)`` call is **one** section, and a task
receives exactly the rows it touches (§3.5) from whoever holds them:

* the plan ships each rank its block (ordinary placement: zero interior
  bytes once resident) and its first ghost rows, as ghost-flagged
  slice-cache entries (:meth:`~repro.data.plane.DataPlane.plan_stencil`);
* each rank runs ``k`` supersteps on a *private* padded window: kernel,
  write the new rows into the window, send the rows a neighbour's read
  window covers, receive the rows its own needs
  (:func:`~repro.partition.halo.halo_exchange`) -- rank to rank, never
  through the root, and never the Dirichlet rows nobody writes;
* the root gathers every rank's rows once, after the last superstep, and
  the driver commits them
  (:meth:`~repro.data.plane.DataPlane.commit_stencil`).

So the call is the unit of commit, recovery, budget and checkpoint, as
any section is (:func:`repro.runtime.section.run_section`): a
``RankCrash`` invalidates placement, a ``RankLoss`` shrinks the plane,
either is charged to the job's ``FailureBudget`` once and retries the
whole sweep on the survivors.  The master copy only ever holds
*completed* sweeps and no rank writes anything but its own window before
the commit, so a retry re-reads exactly what the failed attempt read:
recovery is bit-identical by construction.  A caller who wants a commit
every ``c`` iterations calls ``rt.stencil(..., iterations=c)`` in a loop;
``iterations=1`` exchanges nothing, ``iterations=0`` runs no section.

Boundary semantics are Dirichlet: rows within ``radius`` of either array
edge are held fixed, so every padded read window sits inside the array.

The kernel contract is vectorized-NumPy: ``kernel(xpad)`` receives the
rank's padded row window (its writable rows plus ``radius`` rows of
context on each side; the rank's own copy, so writing to it harms
nothing) and returns the updated writable rows, i.e. an array of
``len(xpad) - 2 * radius`` rows.  For 1-D heat::

    rt.stencil(h, radius=1, kernel=lambda x: 0.5 * (x[:-2] + x[2:]),
               iterations=50)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cluster.comm import Comm
from repro.core import meter
from repro.data.handle import current_store
from repro.core.iterators.transforms import iterate
from repro.obs.spans import active as _obs_active, obs_span as _obs_span
from repro.partition import (
    block_bounds,
    exchange_rows,
    halo_exchange,
    written_rows,
)
from repro.runtime.section import Parts, SectionKind, run_section

_HALO_TAG = 98


def run_stencil(rt, handle, radius: int, kernel, iterations: int = 1,
                label: str = "stencil"):
    """Execute one *iterations*-deep stencil sweep over *handle* on
    runtime *rt*.

    *handle* may be a plain ndarray (distributed on first use) or an
    existing :class:`~repro.data.handle.DistArray`.  Returns the handle;
    its master copy holds the final state.
    """
    if radius < 1:
        raise ValueError(f"stencil radius must be >= 1, got {radius}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    handle = rt.plane.register(handle)
    if iterations == 0:
        return handle
    plane = rt.plane
    aid = handle.array_id
    n = len(handle)
    row_nbytes = handle.row_nbytes()

    def partition(nranks: int) -> Parts:
        bounds = block_bounds(n, max(1, min(nranks, n)))
        return Parts(f"1d x{len(bounds)} halo r{radius}", bounds, bounds)

    def plan_ship(parts: Parts, migrated: bool, recovery: bool):
        ship = plane.plan_stencil(
            aid, parts.bounds, radius, migrated=migrated, recovery=recovery
        )
        # Halo bytes are every ghost row on the wire, whoever sends it:
        # the first ghosts above, and what the ranks hand each other
        # between iterations -- known here, from the interval arithmetic
        # the ranks run, so nothing has to be carried home.
        exchanged = exchange_rows(parts.bounds, radius, n, iterations) * row_nbytes
        ship.stats["exchange_bytes"] = exchanged
        ship.stats["halo_bytes"] += exchanged
        plane.totals["halo_bytes"] += exchanged
        rec = _obs_active()
        if rec is not None and exchanged:
            rec.count("plane.halo_bytes", exchanged)
            rec.instant("halo", "exchange", attrs={
                "halo_bytes": exchanged, "iterations": iterations,
                **({"recovery": True} if recovery else {})})
        return ship

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

    run_section(rt, SectionKind(
        kind="stencil",
        label=label,
        partition=partition,
        plan_ship=plan_ship,
        rank_body=_SweepRank(rt.node, handle, radius, kernel, iterations),
        commit=commit,
        span_attrs=lambda ship, plan: {
            "radius": radius, "iterations": iterations,
            "halo_bytes": ship.stats["halo_bytes"],
            "exchange_bytes": ship.stats["exchange_bytes"],
        },
        observe={
            "iterator": iterate(handle),
            "spec": None,
            "halo": {"aid": aid, "radius": radius, "row_nbytes": row_nbytes,
                     "extent": n, "iterations": iterations},
        },
    ))
    return handle


@dataclass
class _SweepRank:
    """What a rank of a stencil sweep computes (sent to a rank in another
    process, the handle is its metadata).

    Every rank copies its padded window -- rank 0 out of the master (which
    holds the last completed sweep), the others out of their resident
    block and ghost cache entries -- runs *iterations* supersteps on it,
    trading ghost rows with its neighbours in between, and returns its
    ``(wlo, whi, rows)``, gathered at the root for the driver-side commit.
    """

    node: Any  # the runtime's NodeModel: the costs, and where tallies go
    handle: Any
    radius: int
    kernel: Callable
    iterations: int

    def __call__(self, comm: Comm, block, parts: Parts):
        handle, radius, iterations = self.handle, self.radius, self.iterations
        n = len(handle)
        blo, bhi = block
        wlo, whi = written_rows(blo, bhi, radius, n)
        rlo, rhi = wlo - radius, whi + radius
        if whi <= wlo:  # a block inside the fixed edges: nothing to do
            window = handle.array[:0].copy()
        elif comm.rank == 0:
            window = handle.array[rlo:rhi].copy()
        else:
            store = current_store()
            window = np.concatenate([
                store.view(handle.array_id, lo, hi)
                for lo, hi in ((rlo, blo), (max(rlo, blo), min(rhi, bhi)),
                               (bhi, rhi))
                if hi > lo
            ])
        mine = window[radius:len(window) - radius]  # the rows it writes
        sends, recvs = (
            halo_exchange(parts.bounds, comm.rank, radius, n)
            if iterations > 1 else ((), ())
        )
        for step in range(iterations):
            with _obs_span(
                "kernel", "stencil_kernel", rank=comm.rank, clock=comm.clock
            ) as ksp:
                dt = 0.0
                if len(mine):
                    with meter.metered() as m:
                        meter.tally_visits(len(mine))
                        rows = np.asarray(self.kernel(window))
                    if len(rows) != len(mine):
                        raise ValueError(
                            f"stencil kernel returned {len(rows)} rows for a "
                            f"{len(mine)}-row writable window (input was "
                            f"{len(window)} padded rows, radius {radius})"
                        )
                    self.node._merge_meter(m)
                    dt = self.node.costs.task_seconds(m)
                    mine[...] = rows
                comm.compute(dt)
                ksp.set(makespan=dt, rows=len(mine), step=step)
            if step + 1 < iterations:
                # Every send before any receive: two neighbours that post
                # to each other first can never wait on each other.
                for dst, lo, hi in sends:
                    comm.send(window[lo - rlo:hi - rlo], dst, _HALO_TAG)
                for src, lo, hi in recvs:
                    window[lo - rlo:hi - rlo] = comm.recv(src, _HALO_TAG)
        # One result allocation per sweep, as a section always charged:
        # the supersteps in between update the window in place.
        comm.alloc(mine.nbytes)
        gathered = comm.gather((wlo, whi, mine), root=0)
        return gathered if comm.rank == 0 else None
