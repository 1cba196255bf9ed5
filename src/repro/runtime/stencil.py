"""The ``stencil`` skeleton: an iterative sweep over a resident array.

A radius-``r`` stencil updates row ``i`` from rows ``[i-r, i+r]``.  Run
distributed, each rank owns one block of rows (the same block partition
as any other section, so the array's resident placement is reused).  One
``rt.stencil(..., iterations=k)`` call is **one** section whose ranks
never talk to each other: a task receives every row its ``k`` iterations
touch, up front, and runs without another message (§3.4-3.5):

* the plan ships each rank its block (ordinary placement: zero interior
  bytes once resident) and ghost rows ``r * k`` deep beyond each block
  edge, clamped to the array, as ghost-flagged slice-cache entries
  served from the master copy
  (:meth:`~repro.data.plane.DataPlane.plan_stencil`);
* each rank runs the ``k`` iterations on a *private* window: iteration
  ``i`` computes rows ``[wlo - r*(k-1-i), whi + r*(k-1-i))`` (clipped to
  the rows off the fixed edges), so the window shrinks by ``r`` rows a
  side per iteration and the last one computes exactly the rank's own
  written rows ``[wlo, whi)``;
* the root gathers every rank's rows once, after the last iteration, and
  the driver commits them
  (:meth:`~repro.data.plane.DataPlane.commit_stencil`).

The price of not talking is recomputation: a rank recomputes, in its
first ``k - 1`` iterations, rows its neighbour owns -- ``r * k * (k - 1)``
rows per interior boundary per sweep, every one of them metered.  Every
row gets the same arithmetic on the same inputs as in a sequential sweep,
so values are bit-identical.  The ghosts are ``r * k`` rows a side, so a
sweep deep enough that ``r * k`` nears a block's height ships most of its
neighbours' blocks and recomputes them: split it into calls.

The call is the unit of commit, recovery, budget and checkpoint, as any
section is (:func:`repro.runtime.section.run_section`): a ``RankCrash``
invalidates placement, a ``RankLoss`` shrinks the plane, either is
charged to the job's ``FailureBudget`` once and retries the whole sweep
on the survivors.  The master copy only ever holds *completed* sweeps and
no rank writes anything but its own window before the commit, so a retry
re-reads exactly what the failed attempt read: recovery is bit-identical
by construction.  A caller who wants a commit every ``c`` iterations
calls ``rt.stencil(..., iterations=c)`` in a loop -- which is also how a
sweep too deep for its blocks is split; ``iterations=0`` runs no section.

Boundary semantics are Dirichlet: rows within ``radius`` of either array
edge are held fixed, so every padded read window sits inside the array.

The kernel contract is vectorized-NumPy: ``kernel(xpad)`` receives a
padded row window (the rows to update plus ``radius`` rows of context on
each side, a private copy each iteration, so writing to it harms
nothing) and returns the updated rows, i.e. an array of
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
from repro.obs.spans import obs_span as _obs_span
from repro.partition import block_bounds, written_rows
from repro.runtime.section import Parts, SectionKind, run_section


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

    def partition(nranks: int) -> Parts:
        bounds = block_bounds(n, max(1, min(nranks, n)))
        return Parts(f"1d x{len(bounds)} halo r{radius}", bounds, bounds)

    def plan_ship(parts: Parts, migrated: bool, recovery: bool):
        # Every row the sweep's k iterations read: ghosts r * k deep.
        return plane.plan_stencil(aid, parts.bounds, radius * iterations,
                                  migrated=migrated, recovery=recovery)

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
        },
        observe={
            "iterator": iterate(handle),
            "spec": None,
            "halo": {"aid": aid, "radius": radius,
                     "row_nbytes": handle.row_nbytes(), "extent": n,
                     "iterations": iterations},
        },
    ))
    return handle


@dataclass
class _SweepRank:
    """What a rank of a stencil sweep computes (sent to a rank in another
    process, the handle is its metadata).

    Every rank copies its window -- its written rows and ``radius *
    iterations`` rows beyond each side, clamped to the array -- rank 0 out
    of the master (which holds the last completed sweep), the others out
    of their resident block and ghost cache entries.  It runs *iterations*
    iterations on it, each one ``radius`` rows a side narrower than the
    last, and returns its ``(wlo, whi, rows)``, gathered at the root for
    the driver-side commit.
    """

    node: Any  # the runtime's NodeModel: the costs, and where tallies go
    handle: Any
    radius: int
    kernel: Callable
    iterations: int

    def __call__(self, comm: Comm, block, parts: Parts):
        handle, r, k = self.handle, self.radius, self.iterations
        n = len(handle)
        blo, bhi = block
        wlo, whi = written_rows(blo, bhi, r, n)
        # What iteration 0 reads; for a block that writes anything, its
        # block and ghosts exactly (the ghosts' clamp is the same).
        rlo, rhi = max(0, wlo - r * k), min(n, whi + r * k)
        # The rows a step may compute: those off the fixed edges, none for
        # a block inside them (which reads nothing either).
        top, bottom = (r, n - r) if whi > wlo else (0, 0)
        if whi <= wlo:
            window = handle.array[:0].copy()
        elif comm.rank == 0:
            window = handle.array[rlo:rhi].copy()
        else:
            store = current_store()
            window = np.concatenate([
                store.view(handle.array_id, lo, hi)
                for lo, hi in ((rlo, blo), (blo, bhi), (bhi, rhi))
                if hi > lo
            ])
        for step in range(k):
            reach = r * (k - 1 - step)  # rows beyond its own it still needs
            clo, chi = max(top, wlo - reach), min(bottom, whi + reach)
            with _obs_span(
                "kernel", "stencil_kernel", rank=comm.rank, clock=comm.clock
            ) as ksp:
                dt = 0.0
                if chi > clo:
                    with meter.metered() as m:
                        meter.tally_visits(chi - clo)
                        # a copy: the fixed edge rows a kernel could
                        # write in place are read again next step
                        rows = np.asarray(self.kernel(
                            window[clo - r - rlo:chi + r - rlo].copy()))
                    if len(rows) != chi - clo:
                        raise ValueError(
                            f"stencil kernel returned {len(rows)} rows for a "
                            f"{chi - clo}-row writable window (input was "
                            f"{chi - clo + 2 * r} padded rows, radius {r})"
                        )
                    self.node._merge_meter(m)
                    dt = self.node.costs.task_seconds(m)
                    window[clo - rlo:chi - rlo] = rows
                ksp.set(makespan=dt, rows=max(0, chi - clo), step=step)
                comm.compute(dt)  # where a fault due in this step fires
        mine = window[wlo - rlo:whi - rlo]  # the rows it writes
        # One result allocation per sweep, as a section always charged:
        # the iterations in between update the window in place.
        comm.alloc(mine.nbytes)
        gathered = comm.gather((wlo, whi, mine), root=0)
        return gathered if comm.rank == 0 else None
