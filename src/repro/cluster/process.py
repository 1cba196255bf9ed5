"""SPMD launcher: run a rank function on every rank of a transport.

``run_spmd`` builds the run context, hands execution to the machine's
:class:`~repro.cluster.transport.Transport` backend, and assembles the
common outcome: per-rank results, merged metrics, the virtual makespan,
and structured failure propagation.

On the default ``sim`` transport the calling thread is rank 0 and ranks
>= 1 execute on its resident crew, real OS threads that outlive the run
(see ``SimTransport``; nothing virtual can tell which thread ran a rank).
Ranks of engine-compiled sections spend their time in NumPy kernels that
release the GIL, so they overlap on as many cores as the host has; ranks
whose bodies are pure Python cannot overlap at all, and for those the
caller passes ``run_to_block`` (one runnable rank at a time,
handed over at blocking receives -- see ``SimTransport``).  Either way
virtual timing is deterministic: availability stamps are computed from
the causal clocks, never from wall time, so the reported makespan is a
pure function of the program, the data, and the machine model.  The
``local`` transport runs the same rank function in the calling process
(rank 0) and on its resident crew of forked processes (ranks >= 1), which
are sent the rank function when it pickles and are forked for it when it
does not -- same virtual timeline (the cost model is causal, not
scheduled), real wall-clock parallelism.  If any rank raises, no other rank is killed asynchronously.
On ``sim`` each keeps executing its own instruction stream until it
blocks on a receive from a rank whose thread has ended: ``mark_done``
queues a wake token behind that rank's last message on each of its
channels, which is what wakes an already-blocked receiver, and the run's
abort flag only decides what the woken receiver raises (``SimAborted``
rather than a deadlock).  On ``local`` a rank stops at its next post or
empty receive once the shared abort flag is set.  The original exception
is then re-raised in the caller, carrying every rank's final clock and
what the ranks published (``final_clocks``, ``rank_extras``): a failed
run's survivors did real, timed work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.channel import SimAborted, SimDeadlockError
from repro.cluster.comm import SimContext
from repro.cluster.faults import FaultPlan, RankFailureGroup, RankFailureInfo
from repro.cluster.limits import RuntimeLimits, UNLIMITED
from repro.cluster.machine import MachineSpec
from repro.cluster.metrics import RunMetrics
from repro.cluster.trace import CommEvent, TraceLog
from repro.cluster.transport import (
    Transport,
    TransportUnavailable,
    resolve_transport,
)

__all__ = ["run_spmd", "SpmdResult", "SimAborted", "SimDeadlockError"]


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    results: list[Any]  # per-rank return values
    makespan: float  # max final virtual clock over ranks
    metrics: RunMetrics
    final_clocks: list[float]
    trace: "TraceLog | None" = None  # when run_spmd(..., trace=True)
    #: fault/recovery accounting, present when a FaultPlan or recovery
    #: policy was installed (see repro.runtime.recovery.RecoveryReport)
    recovery: Any = None
    #: per-rank extras dicts published via transport.rank_extras() --
    #: how ranks that ran outside the launching process return rank-local
    #: driver state (cost meters, plan-cache deltas) for section-boundary
    #: merging
    extras: list[dict] | None = None
    #: name of the transport that executed the run
    transport: str = "sim"
    #: real elapsed seconds of the run (meaningful parallelism only on
    #: transports with ``wall_clock=True``)
    wall_seconds: float = 0.0
    #: ``wall_seconds`` by launcher phase (see ``RunOutcome``; 0.0 on
    #: transports that do not take the stamps)
    launch_s: float = 0.0
    root_s: float = 0.0
    join_s: float = 0.0
    #: the ranks' ``RankEnd.wall`` stamps, each the latest over the ranks
    #: that took them (``()`` when none did)
    member_s: tuple = ()

    @property
    def root_result(self) -> Any:
        return self.results[0]


def run_spmd(
    machine: MachineSpec,
    rank_fn: Callable[..., Any],
    nranks: int,
    args: Sequence[Any] = (),
    ranks_per_node: int = 1,
    limits: RuntimeLimits = UNLIMITED,
    alloc_cost: Callable[[int], float] | None = None,
    wire_scale: float = 1.0,
    real_timeout: float = 60.0,
    trace: bool = False,
    faults: FaultPlan | None = None,
    recovery: Any = None,
    transport: "Transport | str | None" = None,
    run_to_block: bool = False,
) -> SpmdResult:
    """Run ``rank_fn(comm, *args)`` on *nranks* ranks.

    ``ranks_per_node`` controls rank->node packing (1 for one-process-per-
    node runtimes like Triolet's, ``cores_per_node`` for Eden's flat
    process model).  ``transport`` overrides the machine's backend
    (default: ``machine.transport``, which defaults to the deterministic
    in-process simulator).  ``run_to_block``: the rank bodies cannot
    overlap (pure Python, GIL held), so ``sim`` runs one rank at a time;
    other transports ignore it and nothing virtual depends on it.
    Returns per-rank results, the virtual makespan and merged metrics.
    """
    if nranks < 1:
        raise ValueError("need at least one rank")
    tr = resolve_transport(transport if transport is not None else machine.transport)
    if faults is not None and not tr.supports_faults:
        raise TransportUnavailable(
            f"deterministic fault injection is sim-only for now; the "
            f"{tr.name!r} transport cannot replay a FaultPlan"
        )

    ctx = SimContext(
        machine=machine,
        nranks=nranks,
        ranks_per_node=ranks_per_node,
        limits=limits,
        real_timeout=real_timeout,
        alloc_cost=alloc_cost,
        wire_scale=wire_scale,
        trace=TraceLog() if trace else None,
        faults=faults,
        recovery=recovery,
        run_to_block=run_to_block,
    )
    ctx.validate()

    out = tr.execute(ctx, rank_fn, args)

    clocks = [e.clock for e in out.ends]
    extras = [e.extras for e in out.ends]
    metrics = RunMetrics(per_rank=[e.metrics for e in out.ends])
    infos = [
        RankFailureInfo(rank=r, vtime=e.clock, error=e.payload)
        for r, e in enumerate(out.ends) if e.status == "error"
    ]
    if infos:
        # Re-raise the lowest failing rank's original exception (callers
        # keep matching on the application error type), chained from a
        # RankFailureGroup that carries *every* failing rank with its
        # virtual time -- concurrent failures are no longer discarded.
        if ctx.trace is not None:
            for info in infos:
                ctx.trace.record(
                    CommEvent("rank_failed", info.vtime, info.rank, -1, 0, 0)
                )
        group = RankFailureGroup(infos)
        exc = infos[0].error
        try:
            exc.rank_failures = infos
            exc.trace_log = ctx.trace  # crashed attempts stay observable
            exc.rank_extras = extras  # partial rank-local state
            exc.final_clocks = clocks  # how long each rank really ran
            if faults is not None or recovery is not None:
                exc.recovery_report = _build_report(metrics)
        except (AttributeError, TypeError):
            pass  # exceptions with __slots__ cannot carry annotations
        if hasattr(exc, "add_note"):
            exc.add_note(f"[run_spmd] {group}")
        raise exc from group

    return SpmdResult(
        results=[e.payload if e.status == "ok" else None for e in out.ends],
        makespan=max(clocks),
        metrics=metrics,
        final_clocks=clocks,
        trace=ctx.trace,
        recovery=(
            _build_report(metrics)
            if faults is not None or recovery is not None
            else None
        ),
        extras=extras,
        transport=tr.name,
        wall_seconds=out.wall_seconds,
        launch_s=out.launch_s,
        root_s=out.root_s,
        join_s=out.join_s,
        member_s=tuple(map(max, zip(*(e.wall for e in out.ends if e.wall)))),
    )


def _build_report(metrics: RunMetrics):
    """Fault/recovery accounting for one run (lazy import: the report
    type lives in the runtime layer, which depends on this module)."""
    from repro.runtime.recovery import RecoveryReport

    return RecoveryReport.from_run(metrics)
