"""The Triolet runtime: two-level parallel execution of skeletons (§3.4-§3.5).

"Triolet uses a two-level work distribution policy that first distributes
large units of work to cluster nodes, then subdivides this work among
cores within a node."

Execution of one hinted consumer ("a parallel section"):

1. the outer domain is block-partitioned across nodes (a 2-D grid for
   Dim2 iterators whose source supports inner slicing -- the sgemm case);
2. the main rank slices the *iterator* per node; slicing the iterator
   slices its data sources, so serializing the chunk ships exactly the
   data subset (§3.5) -- over the *simulated* network, with real bytes;
3. each node cuts its chunk into core tasks, really executes one fused
   loop per core over that core's block of tasks under a cost meter
   whose ledger keeps the tasks' tallies apart, and models TBB-style
   work stealing over the tasks to get the node's virtual makespan;
4. partials flow back through a tree reduction (reduce consumers) or a
   gather plus block assembly (build consumers);
5. the section's makespan advances the program's virtual clock.

Nested hints compose: a ``localpar`` loop encountered inside a node task
re-enters the same machinery with the cores available to that task, and
an *inner* ``localpar`` hint on a nest fused into one level marks its
elements' work as such a loop, giving the paper's "different inter-node
and intra-node parallelization strategies".

Numerical results are always real; only elapsed time is virtual.
"""
from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from repro.cluster.comm import Comm
from repro.cluster.faults import FaultPlan
from repro.cluster.limits import RuntimeLimits, UNLIMITED
from repro.cluster.machine import MachineSpec
from repro.cluster.simclock import VirtualClock
from repro.cluster.transport import kept, rank_extras, resolve_transport
from repro.core import meter
from repro.core.domains import Dim2
from repro.core.engine import vectorization_enabled
from repro.core.fusion import planner
from repro.core.iterators.executor import ConsumeSpec, use_executor
from repro.core.iterators.iter_type import (
    IdxFlat,
    IdxNest,
    Iter,
    ParHint,
)
from repro.core.runstate import running
from repro.data.plane import DataPlane, chunk_requirements
from repro.obs.spans import active as _obs_active, obs_span as _obs_span
from repro.partition import block2d_bounds, block_bounds, grid_shape
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.costs import CostContext
from repro.runtime.gc_model import BOEHM_GC, AllocatorModel
from repro.runtime.recovery import (
    DEFAULT_RECOVERY,
    FailureBudget,
    RecoveryPolicy,
    RecoveryReport,
)
from repro.runtime.section import (
    FINISHED,
    ISOLATED,
    Parts,
    SectionKind,
    SectionRecord,
    _meter_sink,
    run_section,
)
from repro.runtime.stencil import run_stencil
from repro.runtime.worksteal import static_for_makespan, work_stealing_makespan
from repro.serial.arrays import merge_copy_stats
from repro.serial.sizeof import transitive_size

@dataclass
class NodeContext:
    """Ambient state while a node pass executes (nested-hint support).

    ``nested_work[t]`` accumulates the *sequential* virtual seconds of the
    nested parallel regions (``localpar`` loops) that task *t* of the pass
    ran -- the task its ``ledger`` says the pass is in.  TBB-style work
    stealing is composable: nested tasks go into the same per-node
    deques, so the scheduler model treats nested work as a stealable pool
    shared by all cores rather than confining it to the task's core.
    """

    cores: int  # cores of the node this pass runs on (split granularity)
    ledger: meter.TaskLedger
    nested_work: list[float]  # sequential seconds of nested regions, per task


_node_ctx: contextvars.ContextVar[NodeContext | None] = contextvars.ContextVar(
    "repro_node_ctx", default=None
)


def _elements_of(partial: Any) -> int:
    """How many scalar elements a partial holds (for combine costing)."""
    if isinstance(partial, np.ndarray):
        return partial.size
    if isinstance(partial, (list, tuple)):
        return len(partial)
    return 1


class NodeModel:
    """How one node runs a chunk (§3.4's second level): each core's pass
    for real, their overlap modelled.  It is the executor inside every
    rank on every transport -- a hint met in a node task is a nested
    region feeding the node's work pool -- and it pickles: a rank in
    another process is sent it with its program."""

    def __init__(self, rt: "TrioletRuntime"):
        self.costs = rt.costs
        self.alloc = rt.alloc
        self.task_grain = rt.task_grain
        self.scheduler = rt.scheduler
        self.machine = rt.machine
        self.meter_total = rt.meter_total

    def __reduce__(self):
        # The runtime's total stays home: a rank elsewhere tallies into the
        # rank-local meter its program installs as the sink.  The rest are
        # constants, which a crew member keeps.
        return NodeModel._sent, (kept((self.costs, self.alloc, self.task_grain,
                                       self.scheduler, self.machine)),)

    @staticmethod
    def _sent(consts: tuple) -> "NodeModel":
        node = NodeModel.__new__(NodeModel)
        node.costs, node.alloc, node.task_grain, node.scheduler, node.machine = consts
        node.meter_total = None
        return node

    def _merge_meter(self, m: meter.CostMeter) -> None:
        """Fold one metered region into the runtime total -- or, in a rank
        that runs outside the launcher, into that rank's local meter
        (carried back and merged for real at the section boundary)."""
        sink = _meter_sink.get()
        (self.meter_total if sink is None else sink).merge(m)

    def execute(self, it: Iter, spec: ConsumeSpec) -> Any:
        """A hinted consumer met inside a rank: in a node task it is a
        nested region, elsewhere the rank runs it in place."""
        nc = _node_ctx.get()
        if nc is None:
            return spec.seq_fn(it)
        result, seq_work = self._nested_execute(it, spec, nc.cores)
        nc.nested_work[nc.ledger.task] += seq_work
        return result

    def _run_tasks(
        self, it: Iter, spec: ConsumeSpec, cores: int
    ) -> tuple[list[Any], list[float], list[float], float]:
        """Execute a chunk for real, one pass per core; return the
        threads' partials and the tasks' timings.

        The chunk is cut into ``cores * task_grain`` tasks (work-stealing
        granularity) and each core's contiguous block of them is one
        ``spec.seq_fn`` pass: a thread's partial is the sequential fold of
        its block ("sequentially builds one histogram per thread", §3.4).
        The task is a unit of *time* only, read off the pass's per-task
        ledger (:class:`repro.core.meter.TaskLedger`).

        Returns ``(partials, serial_durations, nested_works, gc_time)``:
        ``serial_durations[i]`` is task *i*'s own (unstealable) compute
        time, ``nested_works[i]`` the sequential total of its nested
        parallel regions and of what its elements' function tallied under
        an inner ``localpar`` hint (stealable by any core), and
        ``gc_time`` the total allocator/GC time for the private results
        -- kept separate because collections are stop-the-world and do
        not parallelize across the node's cores (§4.3, §4.5).
        """
        dom = it.domain
        extent = dom.outer_extent
        tasks = block_bounds(
            extent, max(1, min(extent, max(1, cores) * self.task_grain))
        )
        inner = bool(it.hint.of_elements)
        seconds = self.costs.seconds_for_visits
        serial: list[float] = []
        nested: list[float] = []
        partials: list[Any] = []
        gc_time = 0.0
        for a, b in block_bounds(len(tasks), min(cores, len(tasks))):
            lo, hi = tasks[a][0], tasks[b - 1][1]
            sub = it if hi - lo == extent else TrioletRuntime._reslice(it, lo, hi)
            ledger = meter.TaskLedger(
                [dom.outer_block(lo, end).size for _, end in tasks[a:b]],
                sub.domain,
                inner,
            )
            nc = NodeContext(cores, ledger, [0.0] * (b - a))
            token = _node_ctx.set(nc)
            try:
                with meter.metered() as m:
                    m.ledger = ledger
                    partials.append(spec.seq_fn(sub))
            finally:
                _node_ctx.reset(token)
            self._merge_meter(m)
            # One private result per thread; a build materializes every
            # task's block of it (the allocator model is affine: k blocks
            # cost one allocation of their total plus k - 1 empty ones).
            # Paper-scaled (§4.3/§4.5 GC overhead).
            gc_time += self.alloc(
                int(_result_bytes(partials[-1]) * self.costs.wire_scale)
            )
            if spec.kind == "build":
                gc_time += (b - a - 1) * self.alloc(0)
            for own, elem, regions in zip(ledger.own, ledger.elem, nc.nested_work):
                serial.append(seconds(*own))
                nested.append(regions + seconds(*elem) if inner else regions)
        return partials, serial, nested, gc_time

    def _combine_partials(self, spec: ConsumeSpec, partials: list[Any]) -> tuple[Any, float]:
        if spec.kind == "reduce":
            result = partials[0]
            combine_elems = 0
            for p in partials[1:]:
                result = spec.combine(result, p)
                combine_elems += _elements_of(p)
            return result, self.costs.combine_seconds(combine_elems)
        return _concat_build(partials), 0.0

    def _node_execute(
        self, it: Iter, spec: ConsumeSpec, cores: int
    ) -> tuple[Any, float, float, dict]:
        """Run a chunk on one node: real passes, modelled thread overlap.

        Node makespan model for composable work stealing: each task's
        serial part occupies one core; its nested parallel regions spill
        into the shared deques.  The makespan is bounded below by total
        work over cores and by the longest task's critical path, and above
        by greedy list scheduling of (serial + span) task durations.

        Returns ``(combined_result, node_makespan_seconds, gc_seconds,
        shape)``, *shape* being what the rank's kernel span says of the
        execution: its passes, its tasks and, if any, its stealable work.
        """
        partials, serial, nested, gc_time = self._run_tasks(it, spec, cores)
        shape = {"passes": len(partials), "tasks": len(serial)}
        if any(nested):
            shape["nested_s"] = sum(nested)
        total_work = sum(serial) + sum(nested)
        durations = [s + w / cores for s, w in zip(serial, nested)]
        if self.scheduler == "static":
            listed = static_for_makespan(
                durations, cores, barrier_overhead=self.machine.thread_spawn_overhead
            )
            makespan = listed + gc_time
        else:
            listed = work_stealing_makespan(
                durations,
                cores,
                steal_overhead=self.machine.steal_overhead,
                spawn_overhead=self.machine.thread_spawn_overhead,
            )
            # GC is stop-the-world: allocator time serializes on the node.
            makespan = max(listed, total_work / cores) + gc_time
        result, combine_dt = self._combine_partials(spec, partials)
        return result, makespan + combine_dt, gc_time, shape

    def _nested_execute(
        self, it: Iter, spec: ConsumeSpec, cores: int
    ) -> tuple[Any, float]:
        """A nested parallel region: real execution, sequential-time total.

        The parent folds the returned sequential seconds into the node's
        stealable work pool (see :class:`NodeContext`); granularity of the
        split still follows the node's core count.
        """
        if not TrioletRuntime._partitionable(it):
            with meter.metered() as m:
                out = spec.seq_fn(it)
            self._merge_meter(m)
            return out, self.costs.task_seconds(m)
        partials, serial, nested, gc_time = self._run_tasks(it, spec, cores)
        result, combine_dt = self._combine_partials(spec, partials)
        return result, sum(serial) + sum(nested) + gc_time + combine_dt


class TrioletRuntime:
    """Executor implementing PAR/LOCAL hints on the simulated cluster."""

    def __init__(
        self,
        machine: MachineSpec,
        costs: CostContext | None = None,
        alloc: AllocatorModel = BOEHM_GC,
        limits: RuntimeLimits = UNLIMITED,
        task_grain: int = 4,
        topology: str = "two-level",
        scheduler: str = "worksteal",
        label: str = "",
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
        plane: DataPlane | None = None,
        budget: FailureBudget | None = None,
        checkpoint: CheckpointConfig | None = None,
        transport=None,
        planner_state=None,
        lost_ranks: int = 0,
    ):
        """``topology``: ``"two-level"`` (the paper's design: message
        passing across nodes, threads within) or ``"flat"`` (one rank per
        core, Eden-style -- the ablation of §1's third problem).
        ``scheduler``: ``"worksteal"`` (TBB-like) or ``"static"``
        (OpenMP-static-like) intra-node scheduling.
        ``faults``: optional deterministic fault schedule injected into
        every distributed section; ``recovery``: what the runtime does
        about fired faults (retry, re-execute, fragment, speculate) --
        consulted only when something actually fires, so the fault-free
        timeline is unchanged.  ``budget``: optional job-level
        :class:`~repro.runtime.recovery.FailureBudget` (deadline,
        job-wide re-executions, rank losses); ``checkpoint``: optional
        :class:`~repro.runtime.checkpoint.CheckpointConfig` persisting
        section outputs into a simulated durable store.

        Server-owned construction (:mod:`repro.service`): ``transport``
        reuses an already-resolved backend instead of resolving
        ``machine.transport`` again; ``planner_state`` is a
        :class:`~repro.core.fusion.planner.PlannerState` the runtime
        installs (:meth:`installed`), so attached jobs hit a
        resident server's warmed plan cache; ``lost_ranks`` seeds the
        permanent-loss count, so a job attaching after an earlier job's
        elastic shrink partitions over the survivors only."""
        if topology not in ("two-level", "flat"):
            raise ValueError(f"unknown topology: {topology!r}")
        if scheduler not in ("worksteal", "static"):
            raise ValueError(f"unknown scheduler: {scheduler!r}")
        self.machine = machine
        #: the backend executing this runtime's distributed sections
        #: (resolved once from ``machine.transport``, or shared from a
        #: resident server; see :mod:`repro.cluster.transport`)
        self.transport = (
            transport
            if transport is not None
            else resolve_transport(machine.transport)
        )
        #: server-owned plan cache, installed with the runtime (None: the
        #: caller's)
        self.planner_state = planner_state
        self.costs = costs if costs is not None else CostContext()
        self.alloc = alloc
        self.limits = limits
        self.task_grain = task_grain
        self.topology = topology
        self.scheduler = scheduler
        self.label = label
        self.faults = faults
        self.recovery = recovery
        self.plane = plane if plane is not None else DataPlane()
        self.budget = budget
        self.checkpoint = checkpoint
        self.recovery_report = RecoveryReport(attempts=0)
        self.clock = VirtualClock()
        # Permanent losses persist across sections: the machine shrank,
        # every later section partitions over the survivors only.  A
        # server seeds this with losses absorbed by earlier jobs.
        self.lost_ranks = lost_ranks
        # Distributed-section sequence counter -- the checkpoint key.  It
        # counts program order, so a restarted (deterministic) job lines
        # its sections up with the stored blobs.
        self._dist_seq = 0
        self.sections: list[SectionRecord] = []
        obs = _obs_active()
        if obs is not None:
            # Spans opened without an explicit clock (application phases,
            # plan consults) read this runtime's virtual timeline.
            obs.use_clock(self.clock)
        # Union of every metered region this runtime executed (task loops,
        # sequential glue).  Nested regions shadow the installed meter, so
        # merging each region once counts every tally exactly once.
        self.meter_total = meter.CostMeter()
        #: how this runtime's nodes run their chunks, in every rank
        self.node = NodeModel(self)

    @contextmanager
    def installed(self):
        """This runtime as the skeleton executor, with its cost context
        and -- when a server injected one -- its plan cache as the run
        state, for the dynamic extent; yields the runtime."""
        with use_executor(self), running(
                costs=self.costs,
                planner=self.planner_state or planner.current_state()):
            yield self

    def _merge_rank_extras(self, extras) -> None:
        """Merge what ranks outside the launcher published of driver
        state: per-rank cost meters, plan-cache and serialization
        copy counters and, under a recorder, their spans."""
        obs = _obs_active()
        for ext in extras or ():
            state = ext.get(ISOLATED)
            if state is None:
                continue  # ran on this heap: already counted, live
            self.meter_total.merge(state["meter"])
            planner.merge_stats(state["planner"])
            merge_copy_stats(state["serial"])
            if obs is not None and "spans" in state:
                obs.absorb_spans(state["spans"])

    # -- bookkeeping -----------------------------------------------------

    def _obs_section(self) -> None:
        """Fold the just-appended section record into the observability
        registry (no-op when no recorder is installed)."""
        obs = _obs_active()
        if obs is not None:
            obs.on_section(self.sections[-1])

    @property
    def elapsed(self) -> float:
        """Total virtual program time so far."""
        return self.clock.now

    @property
    def last_section(self) -> SectionRecord:
        if not self.sections:
            raise RuntimeError("no parallel section has run yet")
        return self.sections[-1]

    def total_gc_time(self) -> float:
        return sum(s.gc_time for s in self.sections)

    def total_bytes_shipped(self) -> int:
        return sum(s.bytes_shipped for s in self.sections)

    # -- the data plane ----------------------------------------------------

    def distribute(self, array, layout: str = "block"):
        """Place *array* on the data plane; returns a resident
        :class:`~repro.data.handle.DistArray` handle.

        Sections iterating (or closing) over the handle ship each rank
        its shard at most once; later compatible sections ship zero
        input bytes.  ``layout`` is ``"block"``, ``"block2d"`` or
        ``"replicated"``.
        """
        return self.plane.register(array, layout)

    def stencil(self, handle, radius: int, kernel, iterations: int = 1,
                label: str = "stencil"):
        """Run an iterative stencil sweep over *handle*.

        The call is one distributed section: block interiors reuse the
        handle's resident placement, ghost rows ``radius * iterations``
        deep ship as first-class halo placements (only the *dirty* ones
        once placed), the ranks run every iteration without a message,
        and the root gathers once, after the last.  See
        :mod:`repro.runtime.stencil` for the kernel contract and
        recovery semantics (the call is the unit of commit, recovery and
        checkpoint).  Returns the handle; its master copy holds the
        final state.
        """
        return run_stencil(self, handle, radius, kernel,
                           iterations=iterations, label=label)

    def report(self) -> str:
        """Human-readable ledger of every section this runtime ran."""
        lines = [
            f"TrioletRuntime on {self.machine.nodes}x"
            f"{self.machine.cores_per_node} cores "
            f"({self.topology}, {self.scheduler}): "
            f"{len(self.sections)} sections, {self.elapsed:.6f} virtual s"
        ]
        for i, s in enumerate(self.sections):
            lines.append(
                f"  [{i}] {s.hint:<8} {s.kind:<6} {s.partition:<10} "
                f"makespan={s.makespan:.6f}s bytes={s.bytes_shipped:,} "
                f"msgs={s.messages} gc={s.gc_time:.6f}s"
            )
        return "\n".join(lines)

    # -- sequential glue ---------------------------------------------------

    def _seq_section(self, label: str, kind: str, dt: float,
                     visits: int, osp) -> None:
        """Charge *dt* main-rank seconds and append their one-node ledger
        entry (called inside the section's span *osp*)."""
        self.clock.advance(dt)
        osp.set(kind=kind, visits=visits)
        self.sections.append(
            SectionRecord(
                label=label,
                kind=kind,
                hint="seq",
                nodes=1,
                cores=1,
                partition="none",
                makespan=dt,
                visits=visits,
            )
        )

    def _run_metered(self, label: str, kind: str, fn, *args, **kwargs) -> Any:
        """Run ``fn`` at the main rank as one sequential section,
        charging its metered time."""
        with _obs_span("section", label, clock=self.clock) as osp:
            with meter.metered() as m:
                out = fn(*args, **kwargs)
            self.node._merge_meter(m)
            self._seq_section(label, kind, self.costs.task_seconds(m),
                              m.visits, osp)
        self._obs_section()
        return out

    def run_sequential(self, fn, *args, label: str = "seq", **kwargs) -> Any:
        """Run plain code at the main rank, charging its metered time."""
        return self._run_metered(label, "seq", fn, *args, **kwargs)

    # -- the Executor interface ----------------------------------------------

    def execute(self, it: Iter, spec: ConsumeSpec) -> Any:
        if _node_ctx.get() is not None:
            # Nested hint inside a node task: feed the node's work pool.
            return self.node.execute(it, spec)
        if it.hint.outer is ParHint.LOCAL:
            return self._toplevel_local(it, spec)
        if it.hint.outer is ParHint.PAR:
            return self._distributed(it, spec)
        return spec.seq_fn(it)

    # -- partitioning helpers ---------------------------------------------

    @staticmethod
    def _partitionable(it: Iter) -> bool:
        return isinstance(it, (IdxFlat, IdxNest))

    @staticmethod
    def _reslice(it: Iter, lo: int, hi: int) -> Iter:
        """A sub-iterator over outer positions [lo, hi): no hint on its
        own loop any more, the inner one (its elements' work) kept.

        Constructs ``type(it)`` rather than the base constructor so
        refined iterators (``IndexedIter``) keep their structural plan
        key: every rank's slice must *hit* the plan the driver warmed.
        """
        if isinstance(it, (IdxFlat, IdxNest)):
            return type(it)(it.idx.slice(lo, hi), it.hint.of_elements)
        raise TypeError(f"cannot slice {type(it).__name__}")

    @staticmethod
    def _reslice_block(it: Iter, rows, cols) -> Iter:
        if isinstance(it, (IdxFlat, IdxNest)):
            return type(it)(it.idx.slice_block(rows, cols), it.hint.of_elements)
        raise TypeError(f"cannot slice {type(it).__name__}")

    def _can_block_2d(self, it: Iter) -> bool:
        if not isinstance(it, (IdxFlat, IdxNest)):
            return False
        if not isinstance(it.domain, Dim2):
            return False
        src = it.idx.source
        try:
            src.slice_inner(0, it.domain.w)
        except TypeError:
            return False
        return True

    def _warm_plan(self, it: Iter) -> str | None:
        """Compile (or fetch) the bulk-execution plan before partitioning.

        Sliced chunks share the parent pipeline's structural key, so every
        rank's tasks -- and post-crash re-executions -- hit the fusion-plan
        cache instead of recompiling.
        """
        if not vectorization_enabled():
            return None
        with _obs_span("plan", "plan_for", clock=self.clock) as sp:
            p = planner.plan_for(it)
            sp.set(compiled=p is not None)
        return p.describe() if p is not None else None

    # -- top-level localpar ---------------------------------------------------

    def _toplevel_local(self, it: Iter, spec: ConsumeSpec) -> Any:
        """``localpar`` at top level: the main node's cores, no network."""
        if not self._partitionable(it):
            return self._sequential_fallback(it, spec, "localpar-unpartitionable")
        with _obs_span("section", "localpar", clock=self.clock) as osp:
            plan = self._warm_plan(it)
            result, makespan, gc_time, _ = self.node._node_execute(
                it, spec, self.machine.cores_per_node
            )
            self.clock.advance(makespan)
            osp.set(kind=spec.kind, nodes=1, cores=self.machine.cores_per_node,
                    loop="engine" if plan is not None else "bound")
        self.sections.append(
            SectionRecord(
                label="localpar",
                kind=spec.kind,
                hint="localpar",
                nodes=1,
                cores=self.machine.cores_per_node,
                partition=f"1d x{min(it.domain.outer_extent, self.machine.cores_per_node * self.task_grain)}",
                makespan=makespan,
                gc_time=gc_time,
                plan=plan,
            )
        )
        self._obs_section()
        return result

    def _sequential_fallback(self, it: Iter, spec: ConsumeSpec, label: str) -> Any:
        return self._run_metered(label, spec.kind, spec.seq_fn, it)

    # -- distributed sections ---------------------------------------------

    def _partition(
        self, it: Iter, nranks_max: int, *, allow_2d: bool = True
    ) -> Parts:
        """Slice *it* into per-rank chunks (2-D grid when the source
        supports inner slicing, 1-D blocks otherwise).

        ``allow_2d=False`` forces 1-D outer blocks even for grid-sliceable
        Dim2 iterators -- required for order-sensitive consumers, whose
        partials must merge in element order (a 2-D grid's row-major
        block order interleaves rows).

        1-D partitions take part in cost-feedback repartitioning: for
        handle-backed sections the data plane's rebalancer may supply
        weighted bounds, migrating shard boundaries toward faster ranks
        (``Parts.rebalanced``).
        """
        if allow_2d and self._can_block_2d(it):
            dom: Dim2 = it.domain  # type: ignore[assignment]
            nchunks = min(nranks_max, max(1, dom.size))
            py, px = grid_shape(nchunks, dom.h, dom.w)
            blocks = block2d_bounds(dom.h, dom.w, py, px)
            chunks = [self._reslice_block(it, r, c) for r, c in blocks]
            return Parts(f"2d {py}x{px}", blocks, chunks)
        extent = it.domain.outer_extent
        nchunks = min(nranks_max, max(1, extent))
        bounds = None
        if nchunks > 1 and chunk_requirements(it):
            bounds = self.plane.partition_bounds(extent, nchunks)
        rebalanced = bounds is not None
        if bounds is None:
            bounds = block_bounds(extent, nchunks)
        chunks = [self._reslice(it, lo, hi) for lo, hi in bounds]
        label = f"1d x{nchunks}" + (" rebal" if rebalanced else "")
        return Parts(label, bounds, chunks, rebalanced, feedback=True)

    def _distributed(self, it: Iter, spec: ConsumeSpec) -> Any:
        """``par``: nodes via simulated MPI, cores via the threads model
        -- the pipeline-consumer kind of distributed section (see
        :func:`repro.runtime.section.run_section` for the attempt loop
        and its fault tolerance)."""
        if not self._partitionable(it):
            # Variable-length outer loops cannot be partitioned (§3.2's
            # whole point is to avoid producing them); run sequentially.
            return self._sequential_fallback(it, spec, "par-unpartitionable")
        cores = 1 if self.topology == "flat" else self.machine.cores_per_node
        # 2-D grid partitioning reorders partials (row-major blocks, not
        # element order): forbid it for order-sensitive reduces, and for
        # builds over nested iterators whose blocks are not rectangular.
        allow_2d = (
            isinstance(it, IdxFlat)
            if spec.kind == "build"
            else not spec.ordered
        )

        cover = _Cover(
            it, lambda sub, nranks: self._partition(
                sub, nranks, allow_2d=allow_2d
            )
        )
        # Pieces of an ordered reduce must fold in element order, which a
        # rank folding what it holds into what it computes would break:
        # such a section keeps nothing and is re-executed whole.
        salvage = not (spec.kind == "reduce" and spec.ordered)

        def plan_ship(parts: Parts, migrated: bool, recovery: bool):
            # Section-boundary placement planning: what handle rows does
            # each rank's chunk (sources + closure environments) need, and
            # which of them are already resident or cached there?  None
            # when the section touches no handles -- the legacy
            # ship-the-slice path is then byte-for-byte unchanged.
            return self.plane.plan_section(
                self.plane.requirements(
                    [[c for _, c in _todo(w, r)]
                     for r, w in enumerate(parts.work)]
                ),
                migrated=migrated, recovery=recovery,
            )

        def bound(plan: str | None) -> bool:
            # no bulk plan: ranks walk the bound closure tree per element
            return plan is None

        return run_section(self, SectionKind(
            kind=spec.kind,
            label="par",
            partition=lambda nranks: cover.residual([], nranks),
            plan_ship=plan_ship,
            rank_body=_PipelineRank(
                self.node, spec, cores, salvage and self.faults is not None,
                cover,
            ),
            commit=lambda result, parts: result,
            span_attrs=lambda ship, plan: {
                "loop": "bound" if bound(plan) else "engine"
            },
            observe={"iterator": it, "spec": spec},
            prepare=lambda: self._warm_plan(it),
            run_to_block=bound,
            residual=cover.residual if salvage else None,
        ))


@dataclass
class _PipelineRank:
    """What a rank of a pipeline section computes: each chunk it was sent,
    run on its node, then a reduce -- or a gather, the root assembling the
    build.  Sent to a rank in another process without the cover, which is
    the root's alone."""

    node: NodeModel
    spec: ConsumeSpec
    cores: int
    publish: bool  # keep finished partials across a failed attempt
    cover: "_Cover | None" = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "cover": None}

    def __call__(self, comm: Comm, mine, parts: Parts):
        spec = self.spec
        finished = []
        for key, chunk in _todo(mine, comm.rank):
            with _obs_span(
                "kernel", "node_execute", rank=comm.rank, clock=comm.clock,
            ) as ksp:
                result, makespan, gc_time, shape = self.node._node_execute(
                    chunk, spec, self.cores
                )
                comm.compute(makespan)
                ksp.set(makespan=makespan, gc_time=gc_time, **shape)
            comm.metrics.gc_time += gc_time  # already inside makespan
            comm.alloc(_result_bytes(result))
            finished.append((key, result))
        if self.publish:
            # Before the collective, where a rank may die or block for
            # good: what it finished outlives the attempt.
            rank_extras()[FINISHED] = finished
        if parts.held:
            # What this rank kept from failed attempts goes to the root
            # from here, at this rank's cost -- folded in below (reduce) or
            # inside its gather message (build).
            finished = parts.held[comm.rank] + finished
        if spec.kind == "reduce":
            charged = _charged_combine(comm, spec.combine, self.node.costs)
            return comm.reduce(
                functools.reduce(charged, [p for _, p in finished]),
                charged, root=0,
            )
        gathered = comm.gather(
            finished if parts.held else finished[0][1], root=0
        )
        if comm.rank != 0:
            return None
        return self.cover.assemble(
            dict(chain.from_iterable(gathered)) if parts.held
            else {(r,): g for r, g in enumerate(gathered)}
        )


def _todo(work, rank: int) -> list:
    """One rank's work item as ``(key, chunk)`` pairs: a residual attempt
    ships them as such, an ordinary one ships the bare chunk of block
    ``(rank,)``."""
    return work if isinstance(work, list) else [((rank,), work)]


def _shifted(block, origin):
    """*block* of the sub-iterator over the block *origin*, in the
    coordinates *origin* is given in."""
    if isinstance(block[0], tuple):  # 2-D: (rows, cols)
        return tuple(
            (lo + o, hi + o) for (lo, hi), (o, _) in zip(block, origin)
        )
    return (block[0] + origin[0], block[1] + origin[0])


class _Cover:
    """How a pipeline section's domain gets covered, attempt by attempt.

    ``grids[path]`` is the ordinary partition of the block at *path* --
    ``()`` the whole domain, ``(2,)`` block 2 of its partition, ``(2, 0)``
    block 0 of the partition of that block (§3.5: a block's chunk *is*
    the sliceable sub-iterator over it) -- and the key of a finished
    partial is the path of its block.  After a failed attempt the largest
    blocks nobody holds any part of are partitioned afresh over the
    survivors; when that is the whole domain, the attempt is an ordinary
    one.  The root assembles a build inside out: each partitioned block
    from its own grid, then the grid it sits in with it in place.
    """

    def __init__(self, it: Iter, partition):
        self.it = it
        self.partition = partition  # (sub-iterator, nranks) -> Parts
        self.grids: dict[tuple, Parts] = {}

    def _missing(self, path: tuple, holders: dict) -> list | None:
        """The largest blocks under *path* nobody holds a part of
        (``None``: *path* itself is one)."""
        if path in holders:
            return []
        if path not in self.grids:
            return None
        subs = [
            self._missing(path + (k,), holders)
            for k in range(len(self.grids[path].bounds))
        ]
        if all(sub is None for sub in subs):
            return None
        return [
            p for k, sub in enumerate(subs)
            for p in ([path + (k,)] if sub is None else sub)
        ]

    def _where(self, key: tuple):
        """The block *key* names, in the section's coordinates."""
        block = self.grids[key[:-1]].bounds[key[-1]]
        return _shifted(block, self._where(key[:-1])) if key[1:] else block

    def residual(self, held: list, nranks: int) -> Parts:
        """See ``SectionKind.residual``."""
        while held and not held[-1]:
            held = held[:-1]  # survivors the failed attempt never reached
        holders = {key: r for r, pairs in enumerate(held) for key, _ in pairs}
        todo = self._missing((), holders) or [()]
        for path in todo:
            for stale in [p for p in self.grids if p[:len(path)] == path]:
                del self.grids[stale]
            sub = self.grids[path[:-1]].work[path[-1]] if path else self.it
            self.grids[path] = self.partition(sub, nranks)
        fresh = [self.grids[path] for path in todo]
        if not holders:
            return fresh[0]
        work: list = [
            [] for _ in range(max(len(held), *(len(p.work) for p in fresh)))
        ]
        for path, parts in zip(todo, fresh):
            for k, chunk in enumerate(parts.work):
                work[k].append((path + (k,), chunk))
        return Parts(
            f"{fresh[0].label} +{len(holders)} kept",
            [self._where(key) for todo_r in work for key, _ in todo_r],
            work,
            rebalanced=any(p.rebalanced for p in fresh),
            held=held + [[] for _ in range(len(work) - len(held))],
            salvaged=[(r, self._where(key)) for key, r in holders.items()],
        )

    def assemble(self, values: dict, path: tuple = ()) -> Any:
        """The build over the block at *path* from the finished partials
        *values* (by key)."""
        parts = self.grids[path]
        return _assemble_build(
            [
                values[path + (k,)] if path + (k,) in values
                else self.assemble(values, path + (k,))
                for k in range(len(parts.bounds))
            ],
            parts.label,
        )


def _charged_combine(comm: Comm, combine, costs: CostContext):
    """Wrap a combine so each tree-reduction hop pays its compute cost."""

    def charged(a, b):
        comm.compute(costs.combine_seconds(_elements_of(b)))
        return combine(a, b)

    return charged


def _result_bytes(result: Any) -> int:
    if isinstance(result, np.ndarray):
        return result.size * result.dtype.itemsize
    return transitive_size(result)


def _concat_build(partials: list[Any]) -> Any:
    """Concatenate consecutive outer-block build partials."""
    if len(partials) == 1:
        return partials[0]
    if all(isinstance(p, np.ndarray) for p in partials):
        # Nested (variable-length) blocks whose elements were all
        # filtered out materialize as 0-element 1-D arrays whatever the
        # element shape, so ragged ndims can appear next to (k, ...)
        # blocks and a plain concatenate raises.  Only then drop the
        # empty partials (value-preserving; all-empty matches the
        # sequential result).  Rectangular partials of equal ndim --
        # including legitimately empty (0, w) row blocks -- concatenate
        # unfiltered so degenerate domain extents survive.
        if len({p.ndim for p in partials}) > 1:
            partials = [p for p in partials if p.size] or partials[:1]
        if len(partials) == 1:
            return partials[0]
        return np.concatenate(partials, axis=0)
    out = []
    for p in partials:
        out.extend(p)
    return out


def _assemble_build(gathered: list[Any], partition: str) -> Any:
    """Assemble the build partials of the blocks of one partition (in
    block order; *partition* is its ``Parts.label``) at the root."""
    if partition.startswith("2d"):
        # gathered[k] is the (rows x cols[, elem...]) block k of the
        # partition, row-major over the process grid.  Concatenate
        # explicitly along the two *domain* axes -- np.block joins along
        # the trailing axes, which scrambles element values that are
        # themselves arrays (pair-valued builds).
        # A zero-size block has no elements to infer the element shape
        # from, so it arrives as a bare (rows x cols) array even when the
        # elements are themselves arrays; restore the trailing dims from
        # any non-empty block before concatenating.
        proto = next((g for g in gathered if g.size), None)
        if proto is not None and proto.ndim > 2:
            gathered = [
                g.reshape(g.shape[:2] + proto.shape[2:])
                if g.size == 0 and g.ndim < proto.ndim
                else g
                for g in gathered
            ]
        # Row-major over a py x px grid, px blocks to a grid row.  Not
        # grouped by row interval: with more grid rows than rows, empty
        # intervals repeat or share a start with the next one.
        px = int(partition.split()[1].split("x")[1])
        grid_rows: list[np.ndarray] = []
        for k in range(0, len(gathered), px):
            row_blocks = gathered[k:k + px]
            grid_rows.append(
                row_blocks[0]
                if len(row_blocks) == 1
                else np.concatenate(row_blocks, axis=1)
            )
        if len(grid_rows) == 1:
            return grid_rows[0]
        return np.concatenate(grid_rows, axis=0)
    return _concat_build(gathered)


@contextmanager
def triolet_runtime(machine: MachineSpec, **kwargs):
    """Install a :class:`TrioletRuntime` as the skeleton executor
    (keywords are :class:`TrioletRuntime`'s)."""
    with TrioletRuntime(machine, **kwargs).installed() as rt:
        yield rt
