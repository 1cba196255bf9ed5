"""The differential runner: one generated program, every execution path.

For each ``(seed, case)`` program the runner executes:

* the plain-Python oracle (:func:`repro.testing.gen.ref_value`);
* the fused scalar interpreter (vectorization forced off);
* the vectorized bulk engine (vectorization forced on);
* the distributed runtime on a sampled 1..8-node machine, four ways:
  scalar tasks, vectorized tasks, vectorized over ``rt.distribute``
  handles (two sections, to check residency), and under a sampled
  :class:`~repro.cluster.faults.FaultPlan`.

Checks: the oracle match is semantic (value equality); everything else
is *bitwise* -- generated values are integral float64, so no partition
or fusion choice is allowed to flip a single bit.  CostMeter triples
(visits/steps/lookups) must agree between scalar, vectorized and every
fault-free distributed run; byte/message counts must agree between the
scalar and vectorized distributed runs; handle-backed second sections
must ship zero input bytes unless the rebalancer migrated boundaries.
The invariant checker observes every distributed section throughout.

:func:`crash_drill` is the deterministic guarantee that at least one run
per suite exercises crash re-execution (random fault sampling alone
could miss it when the crash rank exceeds the chunk count);
:func:`salvage_drill` the one that a section finishes from the partials
the survivors of a failed attempt kept, 1-D reduce and 2-D build alike;
:func:`nest_drill` the one that a ``par`` outer / ``localpar`` inner nest
gets faster with cores per node (the property whose absence hid a
flattened Fig. 7 for ten PRs).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.faults import (
    DelaySpike,
    FaultPlan,
    RankCrash,
    RankLoss,
    SendFault,
    SlowNode,
)
from repro.cluster.machine import MachineSpec
from repro.core import meter
from repro.core.engine.execute import use_vectorization
from repro.core.fusion.planner import reset_planner
from repro.data.handle import drop_handles
from repro.data.plane import DataPlane
from repro.runtime import FailureBudget, triolet_runtime
from repro.serial import closure, reset as reset_copy_stats
from repro.testing import kernels as K
from repro.testing.gen import build_iter, generate_program, ref_value, run_consumer
from repro.testing.invariants import InvariantViolation, check_plane, checking

import repro.triolet as tri


@dataclass
class CaseResult:
    seed: int
    case: int
    desc: str
    failures: list = field(default_factory=list)
    crash_exercised: bool = False
    sections: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def repro_line(self) -> str:
        return (
            f"PYTHONPATH=src python -m repro.testing "
            f"--seed {self.seed} --cases {self.case + 1} --only {self.case}"
        )


@dataclass
class SuiteResult:
    seed: int
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    @property
    def crash_exercised(self) -> bool:
        return any(r.crash_exercised for r in self.results)

    def summary(self) -> str:
        n = len(self.results)
        nf = len(self.failures)
        ncrash = sum(1 for r in self.results if r.crash_exercised)
        nsec = sum(r.sections for r in self.results)
        status = "OK" if self.ok else "FAIL"
        return (
            f"{status}: {n - nf}/{n} cases passed (seed {self.seed}), "
            f"{nsec} distributed sections invariant-checked, "
            f"{ncrash} cases exercised crash re-execution"
        )


# -- equality ----------------------------------------------------------------


def bits_equal(a, b) -> bool:
    """Strict bit-level equality between two triolet-path results."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            bits_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def semantic_equal(a, b) -> bool:
    """Value equality against the oracle (dtype/container agnostic)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a2, b2 = np.asarray(a), np.asarray(b)
        if a2.size == 0 and b2.size == 0:
            return True
        return a2.shape == b2.shape and bool(np.array_equal(a2, b2))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            semantic_equal(x, y) for x, y in zip(a, b)
        )
    try:
        return bool(a == b)
    except Exception:
        return False


def _meter_triple(m: meter.CostMeter) -> tuple:
    return (m.visits, m.steps, m.lookups)


# -- fault sampling ----------------------------------------------------------


def sample_fault_plan(rng: random.Random, nodes: int,
                      makespan: float = 0.0) -> FaultPlan:
    """One or two faults drawn over all five fault kinds.

    A rank dies either at once (before it computes anything) or somewhere
    in *makespan*, the fault-free section's: mid-compute, inside its
    collective after it published its partial, or -- past its own last
    instruction -- not at all.
    """
    faults = []
    for _ in range(rng.choice([1, 1, 2])):
        kind = rng.randrange(5)
        at = rng.choice([1e-7, rng.random() * makespan])
        if kind == 0 and nodes > 1:
            faults.append(RankCrash(rank=rng.randrange(1, nodes), at=at))
        elif kind == 1:
            faults.append(
                SendFault(
                    src=rng.randrange(nodes),
                    times=rng.choice([1, 2]),
                )
            )
        elif kind == 2:
            faults.append(DelaySpike(src=rng.randrange(nodes), delay=1e-5))
        elif kind == 3:
            faults.append(SlowNode(node=rng.randrange(nodes), factor=3.0))
        elif nodes > 2:
            # Permanent loss: the job must finish degraded via elastic
            # shrink, still bit-identical to the oracle.
            faults.append(RankLoss(rank=rng.randrange(1, nodes), at=at))
        else:
            faults.append(SlowNode(node=rng.randrange(nodes), factor=3.0))
    return FaultPlan(faults=tuple(faults))


def _caching_distribute(rt):
    """One handle per distinct source array per runtime."""
    handles: dict[int, object] = {}

    def dist(arr):
        key = id(arr)
        if key not in handles:
            handles[key] = rt.distribute(arr)
        return handles[key]

    return dist


# -- the per-case differential run ------------------------------------------


def run_case(seed: int, case: int) -> CaseResult:
    prog = generate_program(seed, case)
    out = CaseResult(seed=seed, case=case, desc=prog.describe())
    fails = out.failures

    reset_planner()
    reset_copy_stats()

    ref = ref_value(prog)

    with use_vectorization(False), meter.metered() as m_scalar:
        v_scalar = run_consumer(prog, build_iter(prog))
    with use_vectorization(True), meter.metered() as m_vector:
        v_vector = run_consumer(prog, build_iter(prog))

    if not semantic_equal(ref, v_scalar):
        fails.append(f"oracle mismatch: ref={ref!r} scalar={v_scalar!r}")
    if not bits_equal(v_scalar, v_vector):
        fails.append(
            f"scalar/vectorized not bit-identical: {v_scalar!r} vs {v_vector!r}"
        )
    if _meter_triple(m_scalar) != _meter_triple(m_vector):
        fails.append(
            f"meter drift scalar {_meter_triple(m_scalar)} vs "
            f"vectorized {_meter_triple(m_vector)}"
        )

    prng = random.Random(seed * 7_654_321 + case + 1)
    nodes = prng.choice([1, 2, 3, 4, 5, 6, 8])
    cores = prng.choice([1, 2, 4])
    machine = MachineSpec(nodes=nodes, cores_per_node=cores)

    try:
        with checking() as ck:
            _distributed_paths(prog, machine, prng, v_scalar, m_scalar, fails)
            out.crash_exercised = ck.crash_sections > 0
            out.sections = ck.sections
    except InvariantViolation as exc:
        fails.append(f"invariant violation: {exc}")
    return out


def _distributed_paths(prog, machine, prng, v_scalar, m_scalar, fails):
    nodes = machine.nodes

    # 1. distributed, scalar tasks
    with use_vectorization(False), triolet_runtime(machine) as rt_s:
        d_scalar = run_consumer(prog, build_iter(prog, hint="par"))
    if not bits_equal(v_scalar, d_scalar):
        fails.append(
            f"distributed-scalar differs on {nodes} nodes: "
            f"{d_scalar!r} vs {v_scalar!r}"
        )
    if _meter_triple(rt_s.meter_total) != _meter_triple(m_scalar):
        fails.append(
            f"distributed-scalar meter {_meter_triple(rt_s.meter_total)} "
            f"!= scalar meter {_meter_triple(m_scalar)}"
        )

    # 2. distributed, vectorized tasks
    with use_vectorization(True), triolet_runtime(machine) as rt_v:
        d_vector = run_consumer(prog, build_iter(prog, hint="par"))
    if not bits_equal(d_scalar, d_vector):
        fails.append(
            f"distributed vec/scalar not bit-identical on {nodes} nodes"
        )
    if _meter_triple(rt_v.meter_total) != _meter_triple(m_scalar):
        fails.append(
            f"distributed-vectorized meter "
            f"{_meter_triple(rt_v.meter_total)} != scalar meter "
            f"{_meter_triple(m_scalar)}"
        )
    # The wire does not care how tasks execute: byte/message counts of
    # the scalar and vectorized distributed runs must agree.
    ps, pv = rt_s.sections[-1], rt_v.sections[-1]
    if (ps.bytes_shipped, ps.messages) != (pv.bytes_shipped, pv.messages):
        fails.append(
            f"wire drift: scalar run shipped {ps.bytes_shipped}b/"
            f"{ps.messages}msg, vectorized {pv.bytes_shipped}b/"
            f"{pv.messages}msg"
        )

    # 3. distributed over data-plane handles, two sections (residency).
    # Distribute each source array once and reuse the handle across both
    # sections -- a fresh handle per section would defeat residency.
    with use_vectorization(True), triolet_runtime(machine, plane=DataPlane()) as rt_h:
        dist = _caching_distribute(rt_h)
        d_h1 = run_consumer(prog, build_iter(prog, dist, hint="par"))
        d_h2 = run_consumer(prog, build_iter(prog, dist, hint="par"))
    if not bits_equal(d_scalar, d_h1):
        fails.append(f"handle-backed run differs on {nodes} nodes")
    if not bits_equal(d_h1, d_h2):
        fails.append("handle-backed run is not repeatable (section 2)")
    plane_secs = [s for s in rt_h.sections if s.data_plane is not None]
    if len(plane_secs) >= 2:
        second = plane_secs[1]
        if (
            "rebal" not in second.partition
            and second.data_plane["input_bytes"] != 0
        ):
            fails.append(
                "second compatible handle section shipped "
                f"{second.data_plane['input_bytes']} input bytes (want 0)"
            )
    check_plane(rt_h.plane)

    # 4. under a sampled fault plan (values only; retries re-tally meters)
    plan = sample_fault_plan(prng, nodes, pv.makespan)
    use_handles = prng.random() < 0.5
    with use_vectorization(True), triolet_runtime(
        machine, faults=plan, plane=DataPlane()
    ) as rt_f:
        d_fault = run_consumer(
            prog,
            build_iter(
                prog, rt_f.distribute if use_handles else None, hint="par"
            ),
        )
    if not bits_equal(d_scalar, d_fault):
        fails.append(
            f"faulted run differs on {nodes} nodes under {plan!r}"
        )


# -- the guaranteed crash case ----------------------------------------------


def crash_drill(seed: int) -> CaseResult:
    """Deterministic crash-recovery case: a handle-backed sum on 4 nodes
    with rank 1 crashing mid-section, invariant checker active."""
    out = CaseResult(
        seed=seed,
        case=-1,
        desc=f"crash drill (seed {seed}): sum(square(par(handle[512]))) "
        f"on 4x2 with RankCrash(rank=1)",
    )
    xs = np.arange(512, dtype=np.float64) % 10
    machine = MachineSpec(nodes=4, cores_per_node=2)
    expect = tri.sum(tri.map(K.k_square, tri.seq(xs)))

    plan = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
    try:
        with checking() as ck:
            with triolet_runtime(machine, faults=plan, plane=DataPlane()) as rt:
                h = rt.distribute(xs)
                first = tri.sum(tri.map(K.k_square, tri.par(h)))
                second = tri.sum(tri.map(K.k_square, tri.par(h)))
            out.sections = ck.sections
            out.crash_exercised = ck.crash_sections > 0
    except InvariantViolation as exc:
        out.failures.append(f"invariant violation: {exc}")
        return out
    if not bits_equal(expect, first) or not bits_equal(expect, second):
        out.failures.append(
            f"crash drill value drift: {first!r}/{second!r} vs {expect!r}"
        )
    rep = rt.recovery_report
    if rep.reexecuted_chunks <= 0:
        out.failures.append("crash drill did not re-execute any chunk")
    if rep.reshipped_bytes <= 0:
        out.failures.append("crash drill attributed no reshipped bytes")
    if not out.crash_exercised:
        out.failures.append("invariant checker saw no crash section")
    return out


def salvage_drill(seed: int) -> CaseResult:
    """Deterministic kept-partial case: on 4x2, a handle-backed sum loses
    rank 2 and a ``Dim2`` build (on the three survivors) has rank 1 crash,
    each in the middle of its section.  Both must finish from what the
    other ranks had finished -- only the dead rank's block is computed
    again -- bit-identical to the oracle, with the checker's union tiling
    law (kept blocks + residual blocks) active."""
    out = CaseResult(
        seed=seed,
        case=-5,
        desc=f"salvage drill (seed {seed}): sum(square(par(handle[512]))) "
        f"then build(prod(par(outer[12x10]))) on 4x2 with mid-section "
        f"RankLoss(rank=2, section=0), RankCrash(rank=1, section=1)",
    )
    xs = np.arange(512, dtype=np.float64) % 10
    u, v = np.arange(12.0) % 5, np.arange(10.0) % 7
    machine = MachineSpec(nodes=4, cores_per_node=2)

    def job(rt, hint):
        return (
            tri.sum(tri.map(K.k_square, hint(rt.distribute(xs)))),
            tri.build(tri.map(K.k_pair_prod, hint(tri.outerproduct(u, v)))),
        )

    with triolet_runtime(machine, plane=DataPlane()) as clean:
        expect = job(clean, tri.seq)
        job(clean, tri.par)
    t0, t1 = (s.makespan for s in clean.sections[-2:])
    plan = FaultPlan(faults=(RankLoss(rank=2, at=0.5 * t0, section=0),
                             RankCrash(rank=1, at=0.5 * t1, section=1)))
    try:
        with checking() as ck:
            with triolet_runtime(machine, faults=plan, plane=DataPlane()) as rt:
                got = job(rt, tri.par)
            out.sections = ck.sections
            out.crash_exercised = ck.crash_sections > 0
            check_plane(rt.plane)
    except InvariantViolation as exc:
        out.failures.append(f"invariant violation: {exc}")
        return out
    if not bits_equal(expect[0], got[0]) or not bits_equal(expect[1], got[1]):
        out.failures.append(f"salvage drill value drift: {got!r} vs {expect!r}")
    kept = [s.recovery.salvaged_chunks if s.recovery else 0
            for s in rt.sections]
    if kept != [3, 2]:
        out.failures.append(
            f"salvage drill kept {kept} partials (want [3, 2]: every "
            "survivor's)"
        )
    if "2d" not in rt.sections[1].partition:
        out.failures.append(
            f"the build was partitioned {rt.sections[1].partition!r}, "
            "not on a 2-D grid"
        )
    return out


def loss_drill(seed: int) -> CaseResult:
    """Deterministic permanent-loss case: two handle-backed sections on
    4x2 where rank 1 is *lost* during the second -- the shrunken job
    must complete via lineage replay, bit-identical to the oracle."""
    out = CaseResult(
        seed=seed,
        case=-2,
        desc=f"loss drill (seed {seed}): sum(square(par(handle[512]))) x2 "
        f"on 4x2 with RankLoss(rank=1, section=1)",
    )
    xs = np.arange(512, dtype=np.float64) % 10
    machine = MachineSpec(nodes=4, cores_per_node=2)
    expect = tri.sum(tri.map(K.k_square, tri.seq(xs)))

    plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=1),))
    try:
        with checking() as ck:
            with triolet_runtime(machine, faults=plan, plane=DataPlane()) as rt:
                h = rt.distribute(xs)
                first = tri.sum(tri.map(K.k_square, tri.par(h)))
                second = tri.sum(tri.map(K.k_square, tri.par(h)))
            out.sections = ck.sections
            out.crash_exercised = ck.crash_sections > 0
            check_plane(rt.plane)
    except InvariantViolation as exc:
        out.failures.append(f"invariant violation: {exc}")
        return out
    if not bits_equal(expect, first) or not bits_equal(expect, second):
        out.failures.append(
            f"loss drill value drift: {first!r}/{second!r} vs {expect!r}"
        )
    rep = rt.recovery_report
    if rep.rank_losses != 1:
        out.failures.append(
            f"loss drill absorbed {rep.rank_losses} losses (want 1)"
        )
    if rep.lineage_replays <= 0 or rep.replayed_bytes <= 0:
        out.failures.append("loss drill replayed nothing through lineage")
    if rep.replayed_bytes >= rt.plane.totals["input_bytes"]:
        out.failures.append(
            "lineage replay re-shipped everything "
            f"({rep.replayed_bytes} of {rt.plane.totals['input_bytes']} "
            "input bytes) -- shrink kept no survivor shard"
        )
    if rt.plane.shrinks != 1:
        out.failures.append(f"plane shrank {rt.plane.shrinks} times (want 1)")
    return out


def checkpoint_drill(seed: int) -> CaseResult:
    """Deterministic restart case: checkpointing on, *no* in-run
    recovery; a gated loss kills the job in its second section and the
    restarted run must restore section one from the durable store and
    finish bit-identical to the oracle."""
    from repro.runtime import CheckpointConfig, CheckpointStore, run_restartable

    out = CaseResult(
        seed=seed,
        case=-3,
        desc=f"checkpoint drill (seed {seed}): restart-from-checkpoint "
        f"on 4x2 with RankLoss(rank=1, section=1), recovery=None",
    )
    xs = np.arange(512, dtype=np.float64) % 10
    machine = MachineSpec(nodes=4, cores_per_node=2)
    expect_pair = (
        tri.sum(tri.map(K.k_square, tri.seq(xs))),
        tri.sum(tri.map(K.k_double, tri.seq(xs))),
    )

    store = CheckpointStore()
    plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=1),))

    def make_runtime():
        return triolet_runtime(
            machine,
            faults=plan,
            recovery=None,
            plane=DataPlane(),
            checkpoint=CheckpointConfig(store=store, job=f"drill-{seed}"),
        )

    def job(rt):
        h = rt.distribute(xs)
        return (
            tri.sum(tri.map(K.k_square, tri.par(h))),
            tri.sum(tri.map(K.k_double, tri.par(h))),
        )

    try:
        value, rt, restarts = run_restartable(make_runtime, job)
    except Exception as exc:  # noqa: BLE001 - a dead drill is a failure
        out.failures.append(f"checkpoint drill did not complete: {exc!r}")
        return out
    out.sections = len(rt.sections)
    if not bits_equal(expect_pair[0], value[0]) or not bits_equal(
        expect_pair[1], value[1]
    ):
        out.failures.append(
            f"checkpoint drill value drift: {value!r} vs {expect_pair!r}"
        )
    if restarts != 1:
        out.failures.append(f"checkpoint drill restarted {restarts}x (want 1)")
    rep = rt.recovery_report
    if rep.restores != 1 or rep.restored_bytes <= 0:
        out.failures.append(
            f"restarted run restored {rep.restores} section(s) "
            f"({rep.restored_bytes} bytes) -- want exactly the durable one"
        )
    if store.puts < 2:
        out.failures.append(
            f"store holds {store.puts} checkpoint(s) (want both sections)"
        )
    return out


def stencil_drill(seed: int) -> CaseResult:
    """Deterministic halo-exchange case: 8 iterations of a radius-1
    Jacobi on 4x2 as three sweeps (3 + 3 + 2), losing rank 1 inside the
    second -- where the loss meets resident shards, so the retry replays
    the dead rank's rows through lineage.  The shrunken job must stay
    bit-identical to the sequential oracle, with zero interior bytes on
    the clean sweep after it, ghost state and wire counts that survive
    the invariant checker, and the loss charged to the job's
    ``FailureBudget``."""
    out = CaseResult(
        seed=seed,
        case=-4,
        desc=f"stencil drill (seed {seed}): jacobi[256] x(3+3+2) on 4x2 "
        f"with RankLoss(rank=1, section=1), FailureBudget(max_rank_losses=1)",
    )
    rng = np.random.default_rng(seed)
    init = rng.integers(0, 10, size=256).astype(np.float64)
    machine = MachineSpec(nodes=4, cores_per_node=2)

    def kern(xpad):
        return 0.5 * (xpad[:-2] + xpad[2:])

    expect = init.copy()
    for _ in range(8):
        nxt = expect.copy()
        nxt[1:-1] = kern(expect)
        expect = nxt

    plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=1),))
    budget = FailureBudget(max_rank_losses=1)
    try:
        with checking() as ck:
            with triolet_runtime(machine, faults=plan, plane=DataPlane(),
                                 budget=budget) as rt:
                h = rt.distribute(init.copy())
                for iterations in (3, 3, 2):
                    rt.stencil(h, radius=1, kernel=kern, iterations=iterations)
                got = h.array.copy()
            out.sections = ck.sections
            out.crash_exercised = ck.crash_sections > 0
            check_plane(rt.plane)
    except InvariantViolation as exc:
        out.failures.append(f"invariant violation: {exc}")
        return out
    if got.tobytes() != expect.tobytes():
        out.failures.append("stencil drill not bit-identical after loss")
    rep = rt.recovery_report
    if rep.rank_losses != 1:
        out.failures.append(
            f"stencil drill absorbed {rep.rank_losses} losses (want 1)"
        )
    if rep.lineage_replays <= 0:
        out.failures.append("stencil drill replayed nothing through lineage")
    if budget.rank_losses_used != 1:
        out.failures.append(
            f"stencil drill charged {budget.rank_losses_used} rank losses "
            "to the failure budget (want 1)"
        )
    clean = [
        s
        for s in rt.sections
        if s.kind == "stencil" and s.recovery is None
    ]
    if any(s.data_plane["input_bytes"] != 0 for s in clean[1:]):
        out.failures.append(
            "clean stencil sweep after the first re-shipped interior rows"
        )
    if all(s.data_plane["halo_refreshes"] == 0 for s in rt.sections
           if s.kind == "stencil"):
        out.failures.append("stencil drill never refreshed a ghost")
    return out


def nest_drill(seed: int) -> CaseResult:
    """Deterministic two-level case: the nested list ``[bin(r) for s in
    sets for r in s]`` as ONE fused level -- ``par`` over the sets, the
    rows of a set the ``localpar`` work of its element -- on 2 nodes with
    at most 4 sets each.  Every path histograms to the oracle's bits;
    scalar and vectorized ranks take the same virtual time; and that time
    falls strictly from 1 to 4 to 16 cores a node (the inner level is
    what there is to spread), while at 1 core the inner hint is free."""
    rng = np.random.default_rng(seed)
    nsets, nrows = 2 * int(rng.integers(2, 5)), int(rng.integers(6, 20))
    out = CaseResult(
        seed=seed,
        case=-6,
        desc=f"nest drill (seed {seed}): histogram(rowbins(par(sets"
        f"[{nsets}x{nrows}], inner=localpar))) on 2x1, 2x4, 2x16",
    )
    sets = rng.integers(0, 10, size=(nsets, nrows, 3)).astype(np.float64)
    bins = closure(K.e_rowbins, 16)
    expect = np.bincount(
        [int(sum(r)) % 16 for s in sets for r in s], minlength=16
    ).astype(np.float64)

    def makespan(cores, inner, vectorize):
        machine = MachineSpec(nodes=2, cores_per_node=cores)
        with use_vectorization(vectorize), triolet_runtime(machine) as rt:
            got = tri.histogram(16, tri.map(bins, tri.par(sets, inner=inner)))
        if not bits_equal(expect, got):
            out.failures.append(
                f"nest drill value drift at 2x{cores} (inner={inner}, "
                f"vectorize={vectorize}): {got!r} vs {expect!r}"
            )
        return rt.last_section.makespan

    try:
        with checking() as ck:
            spans = [makespan(c, tri.localpar, True) for c in (1, 4, 16)]
            scalar = [makespan(c, tri.localpar, False) for c in (1, 4, 16)]
            plain = makespan(1, None, True)
            out.sections = ck.sections
    except InvariantViolation as exc:
        out.failures.append(f"invariant violation: {exc}")
        return out
    if spans != scalar:
        out.failures.append(f"nest drill makespans: {spans} vs scalar {scalar}")
    if not spans[0] > spans[1] > spans[2]:
        out.failures.append(
            f"nest drill makespan did not fall with cores per node: {spans}"
        )
    if abs(spans[0] - plain) > 1e-12 * plain:
        out.failures.append(
            f"nest drill: the inner hint moved the 1-core makespan "
            f"{plain!r} -> {spans[0]!r}"
        )
    return out


# -- suites ------------------------------------------------------------------


def run_suite(
    seed: int,
    cases: int,
    only: int | None = None,
    fail_fast: bool = False,
    progress=None,
) -> SuiteResult:
    suite = SuiteResult(seed=seed)
    case_ids = [only] if only is not None else list(range(cases))
    for case in case_ids:
        r = run_case(seed, case)
        suite.results.append(r)
        if progress is not None:
            progress(r)
        if fail_fast and not r.ok:
            return suite
    if only is None:
        # Guarantee the acceptance properties: every suite exercises
        # transient crash re-execution, permanent-loss lineage recovery,
        # finishing from kept partials, restart-from-checkpoint, mid-run
        # loss under the stencil's halo exchange, and a two-level nest
        # whose makespan falls with cores per node, with the checker
        # active.
        for drill_fn in (crash_drill, loss_drill, salvage_drill,
                         checkpoint_drill, stencil_drill, nest_drill):
            drill = drill_fn(seed)
            suite.results.append(drill)
            if progress is not None:
                progress(drill)
    drop_handles()
    return suite
