"""The resident :class:`JobServer`: one cluster, many jobs, many tenants.

A one-shot :class:`~repro.runtime.driver.TrioletRuntime` pays its
startup costs every run: the fusion planner re-compiles every structure,
the data plane re-ships every input, the transport is re-resolved.  A
resident server hoists all three into *server lifetime*:

* **cluster** -- the machine spec and its resolved transport backend are
  owned by the server; every job's runtime attaches to the same backend;
* **plans** -- one :class:`~repro.core.fusion.planner.PlannerState` is
  installed around every job, so a structure compiled by any tenant's
  job is a cache hit for every later job that builds the same structure;
* **placements** -- one :class:`~repro.data.plane.DataPlane` holds the
  placement map, so a dataset distributed once (by
  :meth:`JobServer.register_dataset` or by any job's ``distribute``) is
  resident for every later section that iterates it: zero input bytes
  shipped.

What is *not* shared is per-job accounting: each job gets a fresh
runtime, so its cost meters, section ledger, virtual clock and
:class:`~repro.runtime.recovery.RecoveryReport` are isolated, and the
server charges exactly that job's usage to its tenant.  Permanent rank
losses, however, outlive the job that absorbed them -- the machine
shrank -- so the server carries ``lost_ranks`` from each finished job
into the next runtime it constructs.

Scheduling is cooperative and deterministic: ``submit`` only enqueues;
jobs run during ``step()`` / ``drain()`` / ``JobHandle.result()`` in
deficit fair-share order over the server's *virtual* timeline (each
job's virtual duration is charged to its tenant; the tenant with the
least weighted usage runs next).  No wall-clock ordering ever leaks in.
"""
from __future__ import annotations

from typing import Any, Callable

from repro import serial
from repro.cluster.machine import MachineSpec
from repro.cluster.transport import resolve_transport
from repro.core.fusion import planner
from repro.data.plane import DataPlane
from repro.obs import obs_span
from repro.runtime.costs import CostContext, use_costs
from repro.runtime.driver import TrioletRuntime
from repro.runtime.recovery import DEFAULT_RECOVERY, JobFailure
from repro.core.iterators.executor import use_executor
from repro.service.job import (
    JobContext,
    JobHandle,
    JobRecord,
    JobResult,
    JobStatus,
)
from repro.service.scheduler import FairShareScheduler
from repro.service.tenant import Tenant, TenantQuota


class JobServer:
    """A long-lived multi-tenant job service over one simulated cluster."""

    def __init__(
        self,
        machine: MachineSpec,
        costs: CostContext | None = None,
        *,
        max_pending: int | None = None,
        recovery=DEFAULT_RECOVERY,
        plane: DataPlane | None = None,
    ):
        self.machine = machine
        self.costs = costs if costs is not None else CostContext()
        #: resolved once for the server's lifetime; every job attaches
        self.transport = resolve_transport(machine.transport)
        #: shared placement map + slice caches + lineage
        self.plane = plane if plane is not None else DataPlane()
        #: shared fusion-plan cache (server-scoped, not process-global)
        self.planner_state = planner.PlannerState()
        #: shared serialization counters (server-scoped)
        self.serial_stats = serial.new_copy_stats()
        self.recovery = recovery
        #: server virtual time: the sum of every finished job's virtual
        #: duration, in submission-independent fair-share order
        self.now = 0.0
        #: permanent rank losses absorbed so far; seeds every runtime
        self.lost_ranks = 0
        self.tenants: dict[str, Tenant] = {}
        self.scheduler = FairShareScheduler(max_pending=max_pending)
        self.datasets: dict[str, Any] = {}
        self.records: list[JobRecord] = []
        self._seq = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel everything still queued and refuse new submissions."""
        for rec in self.records:
            if rec.status is JobStatus.PENDING:
                self._cancel(rec)
        self._closed = True

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def live_ranks(self) -> int:
        return self.machine.nodes - self.lost_ranks

    # -- tenancy -----------------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0,
                   quota: TenantQuota | None = None) -> Tenant:
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already exists")
        t = Tenant(name=name, weight=weight,
                   quota=quota if quota is not None else TenantQuota())
        self.tenants[name] = t
        return t

    def tenant_report(self) -> dict:
        """Per-tenant usage rollup (the obs metrics view of tenancy)."""
        return {name: t.report() for name, t in sorted(self.tenants.items())}

    # -- shared datasets ---------------------------------------------------

    def register_dataset(self, name: str, array, layout: str = "block"):
        """Place *array* on the shared data plane under *name*.

        The first section of the first job iterating it ships each rank
        its shard; every later job -- any tenant -- finds the shards
        resident and ships zero input bytes.  Registering the same
        array (or an equal-content copy) again dedupes to the existing
        handle.
        """
        handle = self.plane.register(array, layout)
        self.datasets[name] = handle
        return handle

    def dataset(self, name: str):
        try:
            return self.datasets[name]
        except KeyError:
            raise KeyError(
                f"no dataset {name!r} registered on this server"
            ) from None

    # -- submission --------------------------------------------------------

    def submit(
        self,
        fn: Callable[[JobContext], Any],
        *,
        tenant: str | None = None,
        name: str | None = None,
        costs: CostContext | None = None,
        faults=None,
        recovery=None,
        budget=None,
    ) -> JobHandle:
        """Enqueue a job; returns immediately with an async handle.

        ``fn`` runs later (fair-share order) against a fresh runtime
        attached to the server's shared state.  ``faults`` / ``budget``
        scope a deterministic fault schedule / failure budget to this
        job alone.  Raises :class:`~repro.service.AdmissionError` when
        the tenant's queue bound is hit.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if tenant is None:
            tenant = "default"
            if tenant not in self.tenants:
                self.add_tenant(tenant)
        elif tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}; add_tenant first")
        rec = JobRecord(
            seq=self._seq,
            name=name if name is not None else f"job-{self._seq}",
            tenant=tenant,
            fn=fn,
            result=JobResult(),
            costs=costs,
            faults=faults,
            recovery=recovery if recovery is not None else self.recovery,
            budget=budget,
            submit_vtime=self.now,
        )
        self._seq += 1
        self.scheduler.admit(rec)  # may raise AdmissionError
        self.records.append(rec)
        return JobHandle(self, rec)

    # -- the cooperative scheduler loop ------------------------------------

    def step(self) -> bool:
        """Run the next job in fair-share order. False when queue empty."""
        rec = self.scheduler.pick(self.tenants)
        if rec is None:
            return False
        self._dispatch(rec)
        return True

    def drain(self) -> None:
        """Run every queued job to completion."""
        while self.step():
            pass

    def _run_until(self, rec: JobRecord) -> None:
        while not rec.status.finished():
            if not self.step():  # pragma: no cover - defensive
                raise RuntimeError(f"job {rec.name!r} is not queued")

    def _cancel(self, rec: JobRecord) -> bool:
        if rec.status is not JobStatus.PENDING:
            return False
        if not self.scheduler.withdraw(rec):
            return False
        rec.status = JobStatus.CANCELLED
        rec.finish_vtime = self.now
        rec.release()
        return True

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, rec: JobRecord) -> None:
        tenant = self.tenants[rec.tenant]
        rec.start_vtime = self.now
        try:
            tenant.check_dispatch()  # quota gate: BudgetExhausted
        except JobFailure as exc:
            rec.status = JobStatus.FAILED
            rec.result.error = exc
            rec.finish_vtime = self.now
            rec.metrics = {"refused": True}
            rec.release()
            return
        rec.status = JobStatus.RUNNING

        plane_before = dict(self.plane.totals)
        plane_before["dedup_hits"] = self.plane.dedup_hits
        planner_before = self.planner_state.snapshot()
        cache_before = self.plane.cache_stats()

        rt = TrioletRuntime(
            self.machine,
            costs=rec.costs if rec.costs is not None else self.costs,
            faults=rec.faults,
            recovery=rec.recovery,
            plane=self.plane,
            budget=rec.budget,
            transport=self.transport,
            planner_state=self.planner_state,
            lost_ranks=self.lost_ranks,
            label=rec.name,
        )
        ctx = JobContext(rt=rt, server=self, tenant=rec.tenant)
        failed = False
        with obs_span("job", rec.name, clock=rt.clock,
                      tenant=rec.tenant, seq=rec.seq) as osp:
            try:
                with serial.use_copy_stats(self.serial_stats), \
                        use_executor(rt), use_costs(rt.costs):
                    rec.result.value = rec.fn(ctx)
            except Exception as exc:
                # Futures semantics: cluster faults (JobFailure) and
                # programming errors alike are captured here and
                # re-raised from ``result()``; the server's ledgers and
                # timeline stay consistent either way.
                failed = True
                rec.result.error = exc
            osp.set(status="failed" if failed else "done",
                    virtual_seconds=rt.elapsed)

        # The machine shrank for everyone: later jobs see the survivors.
        self.lost_ranks = rt.lost_ranks

        visits = rt.meter_total.visits
        shipped = rt.total_bytes_shipped()
        elapsed = rt.elapsed
        plane_delta = {
            k: self.plane.totals[k] - plane_before[k]
            for k in plane_before
            if k != "dedup_hits"
        }
        plane_delta["dedup_hits"] = (
            self.plane.dedup_hits - plane_before["dedup_hits"]
        )
        cache_after = self.plane.cache_stats()
        rec.metrics = {
            "visits": visits,
            "shipped_bytes": shipped,
            "virtual_seconds": elapsed,
            "sections": len(rt.sections),
            "plane": plane_delta,
            "planner": {
                k: v - planner_before[k]
                for k, v in self.planner_state.snapshot().items()
            },
            "slice_cache_hits": (
                cache_after["hits"] - cache_before["hits"]
            ),
            "lost_ranks": rt.lost_ranks,
            "recovery": rt.recovery_report,
        }
        tenant.charge(
            visits=visits,
            shipped_bytes=shipped,
            compute_seconds=elapsed,
            failed=failed,
        )
        self.now += elapsed
        rec.finish_vtime = self.now
        rec.status = JobStatus.FAILED if failed else JobStatus.DONE
        # ``records`` is a ledger that lives as long as the server: the
        # result now belongs to whoever holds the handle.
        rec.release()

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """Server-level rollup: shared-state effectiveness + tenancy."""
        done = [r for r in self.records if r.status is JobStatus.DONE]
        snap = self.planner_state.snapshot()
        return {
            "virtual_seconds": self.now,
            "jobs": {
                "submitted": len(self.records),
                "done": len(done),
                "failed": sum(
                    1 for r in self.records
                    if r.status is JobStatus.FAILED
                ),
                "cancelled": sum(
                    1 for r in self.records
                    if r.status is JobStatus.CANCELLED
                ),
                "pending": self.scheduler.pending(),
            },
            "live_ranks": self.live_ranks,
            "lost_ranks": self.lost_ranks,
            "planner": snap,
            "plane": self.plane.stats_dict(),
            "serial": dict(self.serial_stats),
            "tenants": self.tenant_report(),
        }
