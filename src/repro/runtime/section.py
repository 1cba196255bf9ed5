"""The section engine: one attempt loop for every distributed section.

The paper's runtime has one notion of a parallel section (§3.4-§3.5):
partition the outer domain, ship each node exactly its slice, run,
combine.  :func:`run_section` is that notion, once.  It owns everything
sections share -- rank-count arithmetic over the surviving machine, the
section sequence number and fault gating, checkpoint restore and write,
the SPMD run, failure classification, job-budget charging,
shrink-vs-invalidate, lost-time accounting, process-isolation
bookkeeping, and the one :class:`SectionOutcome` a section ends with --
of which the :class:`SectionRecord`, the span attributes, the observer
payload and the :class:`~repro.runtime.recovery.RecoveryReport` delta
are projections.

A section *kind* (:class:`SectionKind`) supplies only what differs: how
to partition, what to ship, what a rank computes and how the gathered
result is committed.  Pipeline consumers (:mod:`repro.runtime.driver`)
and stencil sweeps (:mod:`repro.runtime.stencil`) are the two kinds.
"""
from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Callable

from repro.cluster.comm import Comm
from repro.cluster.faults import RankFailure
from repro.cluster.metrics import RunMetrics
from repro.cluster.process import run_spmd
from repro.cluster.transport import kept, rank_extras
from repro.core import meter
from repro.core.fusion import planner
from repro.core.iterators.executor import use_executor
from repro.core.runstate import install, run_state
from repro.data.handle import bind_store, lookup_handle
from repro.data.plane import SectionShipment
from repro.data.store import RankStore
from repro.obs.spans import (
    NULL_SPAN as _NULL_SPAN,
    active as _obs_active,
    obs_span as _obs_span,
    resume as obs_resume,
    snapshot as obs_snapshot,
    span_row,
)
from repro.runtime.recovery import (
    BudgetExhausted,
    PermanentFault,
    RecoveryReport,
    classify_failure,
)
from repro.serial.arrays import copy_stats, reset_copy_stats

_CHUNK_TAG = 99

# ---------------------------------------------------------------------------
# Section observers: callbacks fired at every distributed section boundary
# with the section's full context (runtime, record, partition bounds,
# shipping plan).  This is how external invariant checkers -- notably
# ``repro.testing.invariants`` -- see inside the engine without the engine
# importing them.  Observers must not mutate the payload.

_SECTION_OBSERVERS: list = []


def add_section_observer(fn) -> None:
    """Register *fn* to be called with a payload dict after every
    distributed section some rank computed (a section restored from a
    checkpoint fires none).  Payload keys: ``runtime``, ``record`` (the
    :class:`SectionRecord`), the :class:`SectionOutcome` fields named in
    :data:`OBSERVED` -- see that class for what each means -- and the
    kind's ``observe`` extras: ``iterator`` and ``spec`` (``None`` for
    stencil sweeps); stencil sweeps add ``halo`` (``aid``, ``radius``,
    ``row_nbytes``, ``extent``, ``iterations``).  A new fact about a
    section is added to :class:`SectionOutcome` and nowhere else."""
    _SECTION_OBSERVERS.append(fn)


def remove_section_observer(fn) -> None:
    try:
        _SECTION_OBSERVERS.remove(fn)
    except ValueError:
        pass


@contextmanager
def observing_sections(fn):
    """Scoped :func:`add_section_observer` (what test fixtures want)."""
    add_section_observer(fn)
    try:
        yield fn
    finally:
        remove_section_observer(fn)


def _fact(span: str | None = None, payload: bool | str = False, **default):
    """A :class:`SectionOutcome` field a projection reads.  *span*: when the
    section span shows it (a sequence as its length) -- ``"always"``,
    ``"ran"`` (ranks computed the section), ``"retried"``, ``"wall"`` (on a
    wall-clock transport) or ``"set"`` (non-zero); *payload*: observers get
    it, under this key if one is given."""
    return field(metadata={"span": span, "payload": payload}, **default)


@dataclass(frozen=True, kw_only=True)
class SectionOutcome:
    """One section's ledger entry (``rt.sections``): for a distributed
    section, what the engine learned, built once when the attempt loop
    ends or the checkpoint is read back.  Its :class:`RecoveryReport` delta
    (:attr:`recovery`), span attributes and observer payload are
    projections of it: a new fact about a section is added here and
    nowhere else.  Sequential and ``localpar`` sections fill in the ledger
    fields alone."""

    label: str
    kind: str = _fact("always")  # "reduce" | "build" | "stencil" | "seq"
    hint: str = "par"
    partition: str = _fact("always", payload=True)
    restored: bool = _fact("set", default=False)  # from a checkpoint
    nodes: int = _fact("ran", payload="nchunks")  # the final attempt's ranks
    cores: int
    attempts: int = _fact("ran", payload=True, default=0)
    dead_ranks: int = _fact("ran", payload=True, default=0)
    makespan: float = _fact("always")  # failed attempts, checkpoint included
    bytes_shipped: int = _fact("ran", default=0)
    wall_seconds: float = _fact("wall", default=0.0)  # real, the final run's
    launch_s: float = _fact("wall", default=0.0)
    root_s: float = _fact("wall", default=0.0)
    join_s: float = _fact("wall", default=0.0)
    #: the last member's stamps on ``local``, from the same entry: its job
    #: frame read and decoded, its body's start, the kind's rank body's
    #: start (work item decoded and applied), its body's end
    job_read_s: float = _fact("wall", default=0.0)
    job_decoded_s: float = _fact("wall", default=0.0)
    body_start_s: float = _fact("wall", default=0.0)
    work_start_s: float = _fact("wall", default=0.0)
    body_end_s: float = _fact("wall", default=0.0)
    transport: str | None = _fact("wall", default=None)
    #: ``(rank, block)`` of the partials the final attempt's ranks kept from
    #: failed ones; with ``bounds``, the blocks it computed, they cover the
    #: section's domain exactly once
    salvaged: list = _fact("retried", payload=True, default=())
    rank_losses: int = _fact("set", payload=True, default=0)  # absorbed
    checkpoint_bytes: int = _fact("set", default=0)  # written
    bounds: list = _fact(payload=True, default=())
    survivors: int = _fact(payload=True, default=0)  # ranks the machine has
    ship: SectionShipment | None = _fact(payload=True, default=None,
                                         repr=False, compare=False)
    messages: int = 0
    metrics: RunMetrics | None = None
    visits: int = 0
    gc_time: float = 0.0
    plan: str | None = None  # compiled bulk-execution plan, if vectorized
    data_plane: dict | None = None  # shipping stats when handles were used
    runs: tuple = ()  # every attempt's run-level fault counters
    reexecuted_chunks: int = 0
    reshipped_bytes: int = 0
    added_time: float = 0.0  # failed attempts and backoff, virtual seconds
    shrunk: bool = False  # survivors absorbed lost ranks' partitions
    checkpoint_seconds: float = 0.0  # the durable write or read
    restored_bytes: int = 0

    @property
    def vectorized(self) -> bool:
        return self.plan is not None

    def utilization(self) -> float:
        """Fraction of node-seconds spent computing (vs waiting/comm).

        Only meaningful for distributed sections carrying run metrics;
        the paper's saturation discussions are exactly about this number
        falling with scale.
        """
        if self.metrics is None or self.makespan <= 0 or self.nodes == 0:
            raise ValueError("utilization needs a distributed section's metrics")
        busy = sum(m.compute_time for m in self.metrics.per_rank)
        return busy / (self.nodes * self.makespan)

    @cached_property
    def recovery(self) -> RecoveryReport | None:
        """The section's delta to the job's :class:`RecoveryReport`: ``None``
        when nothing was installed (so no retry) and nothing happened."""
        if not (self.runs or self.checkpoint_bytes or self.restored):
            return None
        stats = self.data_plane or {}
        # the final attempt's migrations absorb the lost ranks' partitions
        shrink = stats if self.shrunk else {}
        rep = RecoveryReport(
            attempts=0, reexecuted_chunks=self.reexecuted_chunks,
            salvaged_chunks=len(self.salvaged), added_time=self.added_time,
            reshipped_bytes=self.reshipped_bytes, rank_losses=self.rank_losses,
            lineage_replays=stats.get("lineage_replays", 0),
            replayed_bytes=stats.get("replayed_bytes", 0),
            shrink_migrations=shrink.get("migrations", 0),
            shrink_migrated_bytes=shrink.get("migrated_bytes", 0),
            checkpoints=int(self.checkpoint_bytes > 0),
            checkpoint_bytes=self.checkpoint_bytes, restores=int(self.restored),
            restored_bytes=self.restored_bytes,
            checkpoint_time=self.checkpoint_seconds,
        )
        for run in self.runs:
            rep.merge(run)
        return rep

    def span_attrs(self) -> dict:
        """The section span's attributes (the kind adds its own)."""
        shown = {"always": True, "ran": not self.restored,
                 "retried": self.attempts > 1, "wall": self.transport is not None}
        attrs = {}
        for f in fields(self):
            when, v = f.metadata.get("span"), getattr(self, f.name)
            if when is not None and shown.get(when, bool(v)):
                attrs[f.name] = len(v) if isinstance(v, (list, tuple)) else v
        return attrs

    def payload(self, rt, extra: dict) -> dict:
        """What section observers are handed (*extra*: the kind's)."""
        return {"runtime": rt, "record": self,
                **{key: getattr(self, name) for key, name in OBSERVED.items()},
                **extra}


SectionRecord = SectionOutcome  # the ledger's name for it

#: What observers get of a :class:`SectionOutcome`: payload key -> field.
OBSERVED = {
    key if isinstance(key, str) else f.name: f.name
    for f in fields(SectionOutcome) if (key := f.metadata.get("payload"))
}


@dataclass
class Parts:
    """One attempt's partition of a section over ``len(work)`` ranks."""

    label: str  # SectionRecord.partition
    #: the blocks this attempt computes, 1-D ``(lo, hi)`` or 2-D ``(rows,
    #: cols)`` in the section's own coordinates: one per rank, unless the
    #: attempt is a residual one (``held``)
    bounds: list
    work: list  # per-rank item shipped to the rank (chunk iterator, bounds)
    #: the bounds came from cost feedback: shard boundaries migrate
    rebalanced: bool = False
    #: per-rank compute times of these blocks feed the rebalancer
    feedback: bool = False
    #: per rank, the ``(key, partial)`` pairs it keeps from failed
    #: attempts; empty when no rank holds anything
    held: list = field(default_factory=list)
    #: the ``(rank, block)`` behind every held pair, for observers
    salvaged: list = field(default_factory=list)


@dataclass
class SectionKind:
    """What one kind of distributed section supplies to the engine."""

    kind: str  # SectionRecord.kind
    label: str  # span name and SectionRecord.label
    #: ``partition(nranks)``: split the domain over at most *nranks* ranks
    partition: Callable[[int], Parts]
    #: ``plan_ship(parts, migrated, recovery)``: data-plane shipping for
    #: one attempt, or None when the section touches no handles
    plan_ship: Callable[[Parts, bool, bool], SectionShipment | None]
    #: ``rank_body(comm, mine, parts)``: what a rank computes from its
    #: received work item; rank 0's return value is the section result
    rank_body: Callable[[Comm, Any, Parts], Any]
    #: ``commit(result, parts)``: apply the section's effects and return
    #: its value.  Also called with ``parts=None`` for a result restored
    #: from a checkpoint, which no rank of this run computed.
    commit: Callable[[Any, Parts | None], Any]
    #: extra span attributes, from the final shipment and the plan
    span_attrs: Callable[[SectionShipment | None, str | None], dict]
    #: extra observer-payload entries (``iterator``, ``spec``, ``halo``)
    observe: dict
    #: runs once before the first partition (never on a restore); returns
    #: the bulk-execution plan description recorded on the section
    prepare: Callable[[], str | None] = lambda: None
    #: ``run_to_block(plan)``: the rank bodies are Python calls that hold
    #: the GIL, so ``sim`` should run its rank threads one at a time (see
    #: ``run_spmd``).  A fact about the section, never a setting.
    run_to_block: Callable[[str | None], bool] = lambda plan: False
    #: ``residual(held, nranks)``: the attempt after a failed one.  *held*
    #: lists, per survivor in its new rank order, the ``(key, partial)``
    #: pairs it holds -- what the rank bodies published under
    #: :data:`FINISHED`; the result partitions exactly the blocks nobody
    #: holds over at most *nranks* ranks and carries *held* to the ranks
    #: (``Parts.held``).  ``None``: the kind cannot finish from partials,
    #: publishes none, and every retry is ``partition`` over again --
    #: which is what ``residual`` amounts to when nothing is held.
    residual: Callable[[list, int], Parts] | None = None


#: Where metered-region tallies merge.  ``None`` means the runtime's own
#: ``meter_total`` (what every rank on the launcher's heap uses).  A rank
#: that runs elsewhere gets a rank-local meter here, so it tallies into
#: state that travels back through
#: :func:`repro.cluster.transport.rank_extras` instead of into a doomed
#: copy of the driver's global meter.
_meter_sink: contextvars.ContextVar[meter.CostMeter | None] = (
    contextvars.ContextVar("repro_meter_sink", default=None)
)

#: The one ``rank_extras()`` key the engine publishes under; its presence
#: on a rank's extras is how the driver knows the rank ran elsewhere.
ISOLATED = "repro.isolated_rank"

#: The ``rank_extras()`` key a rank body publishes its finished ``(key,
#: partial)`` pairs under, before it enters its collective -- in a run that
#: carries a ``FaultPlan`` only, so no fault-free outcome frame grows by a
#: byte.  The engine takes them off again at the end of every attempt.
FINISHED = "repro.finished_partials"


def _close(step: dict, t1: float, outcome: str) -> None:
    step["t1"] = t1
    step["attrs"].update(outcome=outcome, wall_ns1=time.perf_counter_ns())


#: In a rank process: the store it keeps between runs, by plane key --
#: one plane's, the last it served.
_KEPT: dict = {}


class RankProgram:
    """One attempt's SPMD body, as a value.

    Pickled -- sent to a rank in another process -- it is what a rank >= 1
    reads: the kind's rank body, the attempt's bounds and held partials,
    whether it has a shipment (work items and ops go by message), the
    plane's key and handles (as metadata), the launcher's
    :class:`~repro.core.runstate.RunState` and whether a recorder is on
    (:func:`repro.obs.spans.snapshot`), which it installs as it is
    unpickled (:meth:`_sent`); the cost context and each compiled plan go
    by name to a member that holds them
    (:func:`repro.cluster.transport.kept`).  Every rank runs it with the
    runtime's node model as its executor.

    A rank outside the launcher (``comm.in_launcher`` false) is a ``local``
    member in a process of its own.  It tallies into a rank-local meter,
    installed at rank *start* so a crashed rank's partial tallies still
    count, zeroes its plan-cache and copy counters and, under a recorder,
    its spans, and publishes all of them as values through
    ``rank_extras()``; a rank in the launcher tallies into the live
    objects, once.
    """

    def __init__(self, rt, kind: SectionKind, parts: Parts,
                 ship: SectionShipment | None):
        self.body = kind.rank_body
        self.node = rt.node
        self.parts = parts
        self.ops = None if ship is None else ship.ops  # rank 0's to send
        self.reqs = () if ship is None else ship.reqs
        self.plane = rt.plane  # where it is live: launcher, or a fork
        self.key = rt.plane.key
        self.handles = ()  # sent: what its messages name, alive for the run

    def __reduce__(self):
        parts, run = self.parts, run_state()
        st = run.planner
        return RankProgram._sent, (
            self.body, self.node, parts.label, parts.bounds, parts.held,
            self.ops is not None, self.key,
            [self.plane.handles.get(a) or lookup_handle(a)
             for a in sorted(set(self.plane.handles).union(*self.reqs))],
            # the run state, its plan cache as its keys and compiled plans
            # (``None``: unsupported), each of which a member keeps once sent
            replace(run, costs=kept(run.costs), planner=[
                kept(entry, entry[0])
                for entry in (*st.cache.items(), *st.negative.items())]),
            obs_snapshot())

    @staticmethod
    def _sent(body, node, label, bounds, held, shipped, key, handles,
              run, traced) -> "RankProgram":
        """The program as a rank process reads it, its run state installed."""
        self = RankProgram.__new__(RankProgram)
        self.body, self.node, self.key, self.handles = body, node, key, handles
        self.parts = Parts(label, bounds, [], held=held)
        self.ops, self.reqs, self.plane = [] if shipped else None, (), None
        state = planner.PlannerState()
        for k, p in run.planner:  # ``None``: unsupported
            (state.cache if p is not None else state.negative)[k] = p
        install(replace(run, planner=state))
        obs_resume(traced)
        return self

    def _store(self, rank: int, keep: bool = False):
        """Rank *rank*'s store of the plane in this process; *keep*: the
        one this (rank) process keeps."""
        store = (self.plane._stores.get(rank) if self.plane is not None
                 else _KEPT.get(self.key))
        if keep:
            store = store or RankStore(rank)
            _KEPT.clear()
            _KEPT[self.key] = store
        return store

    def holding(self, rank: int):
        """What rank *rank*'s process must hold for this program: its store
        at the version of the driver's mirror (``None``: nothing).  Asked
        in the launcher before a run is sent, in the member after it ran."""
        store = self._store(rank)
        return (self.key, store.version) if store and store.version else None

    def __call__(self, comm: Comm):
        with use_executor(self.node):
            if comm.in_launcher:
                return self._run(comm)
            # a member, in a process of its own: its counters are its own,
            # zeroed here and reported as values
            local_meter = meter.CostMeter()
            state = rank_extras()[ISOLATED] = {"meter": local_meter}
            sink = _meter_sink.set(local_meter)
            planner.current_state().stats = planner.PlannerStats()
            reset_copy_stats()
            obs = _obs_active()
            if obs is not None:
                obs.spans.clear()
            try:
                return self._run(comm)
            finally:
                _meter_sink.reset(sink)
                state["planner"] = planner.current_state().snapshot()
                state["serial"] = copy_stats()
                if obs is not None:
                    state["spans"] = [s.as_dict() for s in obs.spans]

    def _run(self, comm: Comm):
        """Ship every rank its work item, bind the rank's store, run the
        kind's body."""
        # One message per rank on one tag, whatever the kind.  The
        # handle-free path sends the bare (really serialized) work item.
        # With a shipment, handle-backed sources serialize as ids (a few
        # bytes) and the ops carry the rows the rank is actually missing
        # -- nothing when its requirements are already resident, which is
        # what makes the second compatible section ship zero input bytes.
        store = None
        if comm.rank == 0:
            work = self.parts.work
            for dst in range(1, comm.size):
                comm.send(
                    work[dst] if self.ops is None else (self.ops[dst], work[dst]),
                    dst, _CHUNK_TAG,
                )
            mine = work[0]
        elif self.ops is None:
            mine = comm.recv(0, _CHUNK_TAG)
        else:
            my_ops, mine = comm.recv(0, _CHUNK_TAG)
            store = self._store(comm.rank, keep=not comm.in_launcher)
            if my_ops:
                store.apply(my_ops)
        comm.work_started = time.perf_counter()
        with bind_store(store):
            return self.body(comm, mine, self.parts)


def run_section(rt, kind: SectionKind) -> Any:
    """Run one distributed section of *kind* on runtime *rt*.

    Fault tolerance: when an injected rank failure kills an attempt, the
    ranks that did not fail keep the partials they finished, and the
    next attempt computes only the blocks nobody holds, re-partitioned
    across the survivors (``SectionKind.residual``) -- the sliceable
    sources re-extract exactly the slices those blocks need (§3.5), so
    no checkpoint or data shuffle is required.  A held partial reaches
    the root inside the next attempt's collective, from the rank that
    holds it.  Nothing held -- the root died before it shipped anything,
    or the kind cannot finish from partials -- makes that next attempt
    the whole section over again.  The failed attempt's virtual time (up
    to the final clock of its last rank when any of its work is kept, up
    to the failure when none is) and a backoff are charged to the
    section's makespan and reported.
    """
    with _obs_span("section", kind.label, clock=rt.clock) as osp:
        value, out = _run(rt, kind, osp)
        # Computed or restored, every section ends here.
        rt.clock.advance(out.makespan)
        if out.recovery is not None:
            rt.recovery_report.merge(out.recovery)
        rt.sections.append(out)
        if osp is not _NULL_SPAN:  # untraced: build no attributes
            osp.set(**out.span_attrs(),
                    **({} if out.restored else kind.span_attrs(out.ship, out.plan)))
        if _SECTION_OBSERVERS and not out.restored:  # restored: no blocks
            payload = out.payload(rt, kind.observe)
            for fn in list(_SECTION_OBSERVERS):
                fn(payload)
        if rt.budget is not None:
            # after the ledger entry: a killed job still accounts consistently
            try:
                rt.budget.check_deadline(rt.clock.now)
            except BudgetExhausted:
                rt.recovery_report.failure = "budget"
                raise
    rt._obs_section()
    return value


@dataclass
class _Loop:
    """What the attempt loop knows so far; :func:`_recover` updates it."""

    kind: SectionKind
    osp: Any  # the section span
    nranks: int  # ranks the section may use, before its own failures
    attempt: int = 0  # the running attempt's number, from 0
    dead: int = 0  # ranks its failed attempts lost
    losses: int = 0  # of those, the permanent losses absorbed
    shrunk: bool = False  # survivors absorb lost ranks' shards by migration
    lost_time: float = 0.0  # failed attempts and backoff, virtual seconds
    runs: list = field(default_factory=list)  # run-level fault counters
    steps: list = field(default_factory=list)  # under a recorder: the log


def _run(rt, kind: SectionKind, osp) -> tuple[Any, SectionOutcome]:
    """The attempt loop, in section span *osp*: the value and outcome."""
    obs = _obs_active()
    machine = rt.machine
    # Flat topology: one rank per core, no shared-memory level.
    cores = 1 if rt.topology == "flat" else machine.cores_per_node
    per_node = machine.cores_per_node // cores  # ranks
    nranks_max = max(1, machine.nodes * per_node - rt.lost_ranks)
    seq = rt._dist_seq
    rt._dist_seq += 1
    if rt.faults is not None:
        # Section-gated faults (RankLoss(section=...)) key on program order,
        # not virtual time: every section's clocks restart at zero.
        rt.faults.begin_section(seq)
    ck = rt.checkpoint
    hit = ck.read(seq, readers=nranks_max) if ck is not None else None
    if hit is not None:
        # Restart-from-last-checkpoint: the output round-tripped through the
        # wire format (bit-identical); only reading it back costs time.
        value, nbytes, dt = hit
        return kind.commit(value, None), SectionOutcome(
            label=f"{kind.label}-restore", kind=kind.kind,
            partition="checkpoint", restored=True, nodes=1, cores=1,
            makespan=dt, checkpoint_seconds=dt, restored_bytes=nbytes,
        )

    plan = kind.prepare()
    state = _Loop(kind, osp, nranks_max)
    reexecuted = reshipped = 0
    parts = kind.partition(nranks_max)
    while True:
        retry = state.attempt > 0
        nparts = len(parts.work)
        if retry:
            reexecuted += len(parts.bounds)
        # After an elastic shrink the survivors' grown requirements take
        # the weighted-bounds migration path (hulls grow to the new
        # blocks, only missing rows ship).
        ship = kind.plan_ship(parts, parts.rebalanced or state.shrunk, retry)
        if ship is not None and retry:
            # Bytes shipped again because a crash invalidated placement:
            # recovery traffic, not steady-state traffic.
            reshipped += ship.stats["input_bytes"]
        if obs is not None:
            state.steps.append(span_row(
                "attempt", f"attempt {state.attempt + 1}", state.lost_time,
                nranks=nparts, blocks=len(parts.bounds),
                salvaged=len(parts.salvaged), wall_ns0=time.perf_counter_ns()))
        try:
            # A later attempt's rank clocks restart at zero: under a
            # recorder its spans and events start where it does.
            with (obs.later(state.lost_time) if obs is not None and retry
                  else _NULL_SPAN):
                res = run_spmd(
                    machine, RankProgram(rt, kind, parts, ship), nranks=nparts,
                    ranks_per_node=per_node, limits=rt.limits,
                    alloc_cost=rt.alloc, wire_scale=rt.costs.wire_scale,
                    faults=rt.faults, recovery=rt.recovery,
                    trace=obs is not None, transport=rt.transport,
                    run_to_block=kind.run_to_block(plan))
            if obs is not None and res.trace is not None:
                obs.absorb_events(res.trace.events, osp, state.lost_time)
            break
        except BaseException as exc:
            parts = _recover(rt, exc, parts, state)

    # Section-boundary merge of what ranks outside the launcher published
    # (ranks on its heap merged directly as they ran and published nothing).
    rt._merge_rank_extras(res.extras)
    for ext in res.extras:
        ext.pop(FINISHED, None)  # the section is complete: nothing to keep
    if retry and state.steps:
        _close(state.steps[-1], state.lost_time + res.makespan, "ok")
        for i, st in enumerate(state.steps):
            st.update(sid=-1 - i, parent=osp.sid, t0=st["t0"] + osp.t0,
                      t1=st["t1"] + osp.t0)
        obs.absorb_spans(state.steps)
    m = res.metrics
    if ship is not None:
        # Mirror their shipping ops into the driver-side rank stores too:
        # a rank in another process applied them to its own copy, and the
        # next section plans against -- and finds that process fresh for
        # -- the driver's mirror.
        for dst, ops in enumerate(ship.ops):
            if ops and ISOLATED in res.extras[dst]:
                rt.plane.worker_store(dst).apply(ops)
        if parts.feedback:
            # Cost feedback: per-rank virtual compute time for the blocks
            # just executed feeds the rebalancer.
            rt.plane.feedback(parts.bounds, [r.compute_time for r in m.per_rank])
    value = kind.commit(res.root_result, parts)
    # Durability is not free: the write is part of the section's makespan.
    ckpt_bytes, ckpt_dt = (0, 0.0) if ck is None else ck.write(
        seq, res.root_result, writers=nparts)
    if res.recovery is not None:
        state.runs.append(res.recovery)
    wall = rt.transport.wall_clock  # off it, sim's ledger stays byte-identical
    return value, SectionOutcome(
        label=kind.label, kind=kind.kind, partition=parts.label, nodes=nparts,
        cores=nparts * cores, attempts=state.attempt + 1, dead_ranks=state.dead,
        makespan=state.lost_time + res.makespan + ckpt_dt,
        bytes_shipped=m.bytes_sent,
        wall_seconds=res.wall_seconds if wall else 0.0, launch_s=res.launch_s,
        root_s=res.root_s, join_s=res.join_s,
        **dict(zip(("job_read_s", "job_decoded_s", "body_start_s",
                    "work_start_s", "body_end_s"), res.member_s)),
        transport=res.transport if wall else None, salvaged=parts.salvaged,
        rank_losses=state.losses, checkpoint_bytes=ckpt_bytes,
        bounds=parts.bounds, survivors=nranks_max - state.dead, ship=ship,
        messages=m.messages_sent, metrics=m, gc_time=m.gc_time, plan=plan,
        data_plane=dict(ship.stats) if ship is not None else None,
        runs=tuple(state.runs), reexecuted_chunks=reexecuted,
        reshipped_bytes=reshipped, added_time=state.lost_time,
        shrunk=state.shrunk, checkpoint_seconds=ckpt_dt,
    )


def _recover(rt, exc: BaseException, parts: Parts, state: _Loop) -> Parts:
    """The attempt over *parts* failed with *exc*: classify the failure,
    charge the job budget, keep what the survivors held and finished,
    shrink or invalidate the data plane and charge the lost time -- and
    return the next attempt's parts, or raise."""
    obs = _obs_active()
    rec = rt.recovery
    infos = getattr(exc, "rank_failures", None)
    crash_trace = getattr(exc, "trace_log", None)
    if obs is not None and crash_trace is not None:
        # The failed attempt's messages and fault stamps stay visible in
        # the trace, tied to the same section.
        obs.absorb_events(crash_trace.events, state.osp, state.lost_time)
    # A crashed attempt's completed-task tallies are real work; ranks in
    # the launcher merged as they ran, the others left partial extras the
    # transport saved on the exception.
    extras = getattr(exc, "rank_extras", None) or ()
    rt._merge_rank_extras(extras)
    # Take what the ranks finished off the exception and leave nothing
    # else on it, whatever happens next: it sits on a reference cycle (its
    # ``rank_failures`` point back at it), and what hangs there lives
    # until a full collection.
    finished = [ext.pop(FINISHED, ()) for ext in extras]
    for ext in extras:
        ext.clear()
    rank_failed = infos is not None and all(
        isinstance(i.error, RankFailure) for i in infos)
    permanent = [i for i in infos or () if getattr(i.error, "permanent", False)]
    recoverable = (rec is not None and rank_failed
                   and state.attempt < rec.max_reexecutions
                   and len(parts.work) - len(infos) >= 1)
    if recoverable and rt.budget is not None:
        # Job-level budget: charged per recovery act, across sections.
        # Exhaustion beats further recovery.
        try:
            rt.budget.charge_reexecution()
            if permanent:
                rt.budget.charge_rank_losses(len(permanent))
        except BudgetExhausted as bex:
            rt.recovery_report.failure = "budget"
            raise bex from exc
    if not recoverable:
        rt.recovery_report.failure = classify_failure(exc)
        if rank_failed and permanent:
            # an unabsorbable loss is a job failure, not a substrate error
            raise PermanentFault(str(exc)) from exc
        raise exc
    partial = getattr(exc, "recovery_report", None)
    if partial is not None:
        state.runs.append(partial)
    # The ranks that did not fail ran their instruction streams to the end
    # (see ``ChannelTable``): each keeps what it held and what it finished,
    # under its new rank number.  A failed rank's partials are gone,
    # whatever it published before it died -- the next attempt computes
    # those blocks again.
    failed = {i.rank for i in infos}
    held, kept_any = [], False
    for r, new in enumerate(finished):
        if r not in failed:
            old = parts.held[r] if parts.held else []
            held.append(old + list(new))
            kept_any = kept_any or bool(new)
    # An attempt whose work is kept lasted until its last rank stopped;
    # one that leaves nothing behind is over, for every rank, the moment
    # it fails.
    ended = max(exc.final_clocks) if kept_any else max(i.vtime for i in infos)
    if permanent:
        # The machine shrank for good: later sections partition over the
        # survivors only.
        rt.lost_ranks += len(permanent)
        state.losses += len(permanent)
    act = None
    if rt.plane.has_state():
        if permanent and rec.lineage_recovery:
            # Elastic shrink: survivors keep their shards under renumbered
            # ranks; only the dead ranks' intervals are marked for lineage
            # replay and the next attempt re-ships just those rows.
            act = "shrink", rt.plane.shrink(sorted(failed))
            state.shrunk = True
        else:
            # Transient crash (the rank heals): every resident shard and
            # cached slice is suspect (the re-partition also renumbers
            # ranks), so the data plane forgets all placement.  The next
            # attempt -- and later sections -- re-materialize from the
            # master copy (which commits only completed sections, so a
            # retry reads exactly what the dead attempt read), and those
            # bytes are attributed to recovery.
            act = "invalidate", rt.plane.invalidate()
    if state.steps:
        _close(state.steps[-1], state.lost_time + ended, "failed")
        if act is not None:
            state.steps.append(
                span_row("recover", act[0], state.lost_time + ended, **act[1]))
    state.lost_time += ended + rec.backoff(state.attempt)
    state.dead += len(infos)
    state.attempt += 1
    # Exactly the blocks nobody holds, over the survivors; with nothing
    # held that is the whole section again.
    kind, nranks = state.kind, state.nranks - state.dead
    parts = (kind.residual(held, nranks) if kind.residual is not None
             else kind.partition(nranks))
    # Recovered from: nobody will print this traceback, and it pins every
    # frame the failure passed through -- this one included, with the
    # partials in its locals.
    exc.__traceback__ = None
    return parts

