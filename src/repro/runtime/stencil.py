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
* a transient ``RankCrash`` invalidates placement; a permanent
  ``RankLoss`` shrinks the plane, and the retry re-materializes interiors
  through the same lineage-replay path as every other section.  The
  master copy only ever holds *completed* iterations (updates commit
  after a successful attempt), so any retry re-reads exactly the state
  the failed attempt read -- recovery is bit-identical by construction.

Boundary semantics are Dirichlet: rows within ``radius`` of either array
edge are held fixed, so every padded read window sits inside the array.

The kernel contract is vectorized-NumPy: ``kernel(xpad)`` receives the
rank's padded row window (its writable rows plus ``radius`` rows of
context on each side) and returns the updated writable rows, i.e. an
array of ``len(xpad) - 2 * radius`` rows.  For 1-D heat::

    rt.stencil(h, radius=1, kernel=lambda x: 0.5 * (x[:-2] + x[2:]),
               iterations=50)

Job-level :class:`~repro.runtime.recovery.FailureBudget` charging and
section checkpointing are not wired into stencil sections (they are
per-pipeline features of the driver's consume path); the fault /
recovery machinery itself is shared.
"""
from __future__ import annotations

import numpy as np

from repro.cluster.comm import Comm
from repro.cluster.faults import RankFailure
from repro.cluster.process import run_spmd
from repro.core import meter
from repro.core.iterators.transforms import iterate
from repro.obs.spans import active as _obs_active, obs_span as _obs_span
from repro.partition import block_bounds
from repro.runtime.driver import (
    _CHUNK_TAG,
    SectionRecord,
    _isolated_rank,
    _notify_section,
    _SECTION_OBSERVERS,
)
from repro.runtime.recovery import (
    PermanentFault,
    RecoveryReport,
    classify_failure,
)


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
    for _ in range(iterations):
        _one_iteration(rt, handle, radius, kernel, label)
    return handle


def _one_iteration(rt, handle, radius: int, kernel, label: str) -> None:
    """One sweep: one distributed section with its own attempt loop."""
    obs = _obs_active()
    aid = handle.array_id
    n = len(handle)
    row_nbytes = handle.row_nbytes()
    flat = rt.topology == "flat"
    nranks_max = max(
        1,
        (
            rt.machine.nodes * rt.machine.cores_per_node
            if flat
            else rt.machine.nodes
        )
        - rt.lost_ranks,
    )
    cores = 1 if flat else rt.machine.cores_per_node
    seq = rt._dist_seq
    rt._dist_seq += 1
    if rt.faults is not None:
        rt.faults.begin_section(seq)
    rec = rt.recovery

    with _obs_span("section", label, clock=rt.clock) as osp:
        attempt = 0
        dead = 0
        lost_time = 0.0
        reexecuted = 0
        reshipped = 0
        losses = 0
        absorb = False
        section_acc: RecoveryReport | None = None
        while True:
            nchunks = max(1, min(nranks_max - dead, n))
            bounds = block_bounds(n, nchunks)
            if attempt > 0:
                reexecuted += nchunks
            ship = rt.plane.plan_stencil(
                aid, bounds, radius,
                migrated=absorb, recovery=attempt > 0,
            )
            if attempt > 0:
                reshipped += ship.stats["input_bytes"]
            rank_fn = _make_rank_fn(rt, handle, aid, n, radius, kernel,
                                    bounds, ship.ops)
            try:
                res = run_spmd(
                    rt.machine,
                    rank_fn,
                    nranks=nchunks,
                    ranks_per_node=rt.machine.cores_per_node if flat else 1,
                    limits=rt.limits,
                    alloc_cost=rt.alloc,
                    wire_scale=rt.costs.wire_scale,
                    faults=rt.faults,
                    recovery=rec,
                    trace=obs is not None,
                    transport=rt.transport,
                )
                if obs is not None and res.trace is not None:
                    obs.absorb_events(res.trace.events, osp)
                break
            except BaseException as exc:
                infos = getattr(exc, "rank_failures", None)
                crash_trace = getattr(exc, "trace_log", None)
                if obs is not None and crash_trace is not None:
                    obs.absorb_events(crash_trace.events, osp)
                if not rt.transport.shared_heap:
                    rt._merge_rank_extras(getattr(exc, "rank_extras", None))
                rank_failed = infos is not None and all(
                    isinstance(i.error, RankFailure) for i in infos
                )
                permanent = [
                    i
                    for i in (infos or ())
                    if getattr(i.error, "permanent", False)
                ]
                recoverable = (
                    rec is not None
                    and rank_failed
                    and attempt < rec.max_reexecutions
                    and nchunks - len(infos) >= 1
                )
                if not recoverable:
                    rt.recovery_report.failure = classify_failure(exc)
                    if rank_failed and permanent:
                        raise PermanentFault(str(exc)) from exc
                    raise
                partial = getattr(exc, "recovery_report", None)
                if partial is not None:
                    partial.attempts = 1
                    if section_acc is None:
                        section_acc = RecoveryReport(attempts=0)
                    section_acc.merge(partial)
                if permanent:
                    rt.lost_ranks += len(permanent)
                    losses += len(permanent)
                if rt.plane.has_state():
                    if permanent and rec.lineage_recovery:
                        # Elastic shrink: survivors keep their shards;
                        # the retry's plan re-materializes only the lost
                        # rows (and re-grows hulls to the new, wider
                        # blocks through the migration path).
                        rt.plane.shrink([i.rank for i in infos])
                        absorb = True
                    else:
                        # Transient crash: all placement state is
                        # suspect; the retry re-places from the master,
                        # which still holds the *previous* iteration
                        # (updates commit only on success), so the retry
                        # reads exactly what the dead attempt read.
                        rt.plane.invalidate()
                lost_time += max(i.vtime for i in infos) + rec.backoff(attempt)
                dead += len(infos)
                attempt += 1

        if not rt.transport.shared_heap:
            rt._merge_rank_extras(res.extras)
            # Forked workers applied shipping ops to fork-private store
            # copies; mirror them so the next iteration's plan sees the
            # resident shards and fresh ghosts.
            for dst, ops in enumerate(ship.ops):
                if ops:
                    rt.plane.worker_store(dst).apply(ops)

        # Commit the completed sweep: master write, rank-store interior
        # mirror (zero wire cost -- each rank computed its own rows),
        # hull reset, and dirty-ghost invalidation.
        rt.plane.commit_stencil(aid, bounds, res.root_result)
        reqs = [{aid: [lo, hi, False]} for lo, hi in bounds]
        rt.plane.record_section(seq, None, reqs)

        makespan = lost_time + res.makespan
        rt.clock.advance(makespan)

        section_report = None
        if res.recovery is not None or section_acc is not None or reshipped:
            section_report = section_acc or RecoveryReport(attempts=0)
            if res.recovery is not None:
                section_report.merge(res.recovery)
            section_report.reexecuted_chunks = reexecuted
            section_report.added_time = lost_time
            section_report.reshipped_bytes = reshipped
            section_report.rank_losses = losses
            section_report.lineage_replays = ship.stats.get(
                "lineage_replays", 0
            )
            section_report.replayed_bytes = ship.stats.get(
                "replayed_bytes", 0
            )
            if absorb:
                section_report.shrink_migrations = ship.stats.get(
                    "migrations", 0
                )
                section_report.shrink_migrated_bytes = ship.stats.get(
                    "migrated_bytes", 0
                )
            rt.recovery_report.merge(section_report)

        partition = f"1d x{nchunks} halo r{radius}"
        rt.sections.append(
            SectionRecord(
                label=label,
                kind="stencil",
                hint="par",
                nodes=nchunks,
                cores=nchunks * cores,
                partition=partition,
                makespan=makespan,
                bytes_shipped=res.metrics.bytes_sent,
                messages=res.metrics.messages_sent,
                metrics=res.metrics,
                gc_time=res.metrics.gc_time,
                recovery=section_report,
                data_plane=dict(ship.stats),
                wall_seconds=(
                    res.wall_seconds if rt.transport.wall_clock else 0.0
                ),
            )
        )
        osp.set(
            kind="stencil",
            partition=partition,
            nodes=nchunks,
            attempts=attempt + 1,
            dead_ranks=dead,
            makespan=makespan,
            bytes_shipped=res.metrics.bytes_sent,
            radius=radius,
            halo_bytes=ship.stats["halo_bytes"],
        )
        if losses:
            osp.set(rank_losses=losses)
        if _SECTION_OBSERVERS:
            _notify_section(
                {
                    "runtime": rt,
                    "record": rt.sections[-1],
                    "iterator": iterate(handle),
                    "partition": partition,
                    "bounds": bounds,
                    "nchunks": nchunks,
                    "ship": ship,
                    "spec": None,
                    "attempts": attempt + 1,
                    "dead_ranks": dead,
                    "survivors": nranks_max - dead,
                    "rank_losses": losses,
                    "halo": {
                        "aid": aid,
                        "radius": radius,
                        "row_nbytes": row_nbytes,
                    },
                }
            )
    rt._obs_section()


def _make_rank_fn(rt, handle, aid: int, n: int, radius: int, kernel,
                  bounds, ops):
    """Build the per-rank body for one stencil sweep.

    Rank 0 reads the master copy (which holds the previous iteration);
    other ranks assemble their padded window from resident block rows
    plus ghost cache entries.  Every rank returns its ``(wlo, whi, rows)``
    update, gathered at the root for the driver-side commit.
    """
    plane = rt.plane
    costs = rt.costs
    elem_shape = handle.array.shape[1:]
    dtype = handle.array.dtype

    def rank_body(comm: Comm):
        if comm.rank == 0:
            for dst in range(1, comm.size):
                comm.send((ops[dst], bounds[dst]), dst, _CHUNK_TAG)
            blo, bhi = bounds[0]
        else:
            my_ops, (blo, bhi) = comm.recv(0, _CHUNK_TAG)
            if my_ops:
                plane.worker_store(comm.rank).apply(my_ops)
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

    return rank_body if rt.transport.shared_heap else _isolated_rank(rank_body)
