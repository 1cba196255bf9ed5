"""The fault-tolerant Triolet runtime: retry, re-execution, degradation."""
import gc
import weakref
from dataclasses import fields as dc_fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.triolet as tri
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS, make_problem
from repro.cluster import (
    BufferOverflowError,
    FaultPlan,
    MachineSpec,
    RankCrash,
    RankFailure,
    RankLoss,
    SendFault,
    SlowNode,
    TransientSendError,
)
from repro.cluster.limits import EDEN_LIMITS
from repro.core.engine import register_bulk
from repro.runtime.driver import NodeModel
from repro.runtime import (
    DEFAULT_RECOVERY,
    BudgetExhausted,
    CostContext,
    FailureBudget,
    PermanentFault,
    RecoveryPolicy,
    RecoveryReport,
    classify_failure,
    triolet_runtime,
)
from repro.serial import closure, register_function

MACHINE = MachineSpec(nodes=4, cores_per_node=4)
XS = np.arange(2000.0)
EXPECTED = float(np.sum(XS * XS))


def squares_sum():
    return tri.sum(tri.map(lambda x: x * x, tri.par(XS)))


@register_function
def _square(x):
    return x * x


register_bulk(_square, lambda xs: xs * xs)


def squares_sum_engine():
    """``squares_sum`` with a bulk form: an engine-compiled section, whose
    ``sim`` rank threads run free (the lambda's run to block)."""
    return tri.sum(tri.map(closure(_square), tri.par(XS)))


class TestRetry:
    def test_transient_send_fault_is_retried(self):
        plan = FaultPlan(faults=(SendFault(src=1, times=2),))
        with triolet_runtime(MACHINE, faults=plan) as rt:
            out = squares_sum()
        assert out == pytest.approx(EXPECTED)
        report = rt.recovery_report
        assert report.retries == 2
        assert report.backoff_time > 0.0
        assert report.faults.get("send") == 2

    def test_exhausted_retries_propagate(self):
        # more consecutive failures than the policy's retry budget
        plan = FaultPlan(faults=(SendFault(src=1, times=99),))
        policy = RecoveryPolicy(max_retries=3)
        with triolet_runtime(MACHINE, faults=plan, recovery=policy):
            with pytest.raises(TransientSendError):
                squares_sum()

    def test_retry_makespan_is_deterministic(self):
        elapsed = []
        for _ in range(2):
            plan = FaultPlan(faults=(SendFault(src=1, times=2),))
            with triolet_runtime(MACHINE, faults=plan) as rt:
                squares_sum()
            elapsed.append(rt.elapsed)
        assert elapsed[0] == elapsed[1]


class TestReexecution:
    def test_crashed_rank_work_is_redistributed(self):
        with triolet_runtime(MACHINE) as rt:
            baseline = squares_sum()
            clean_elapsed = rt.elapsed
        plan = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
        with triolet_runtime(MACHINE, faults=plan) as rt:
            out = squares_sum()
        assert out == baseline == pytest.approx(EXPECTED)
        report = rt.recovery_report
        assert report.faults.get("crash") == 1
        assert report.attempts == 2
        assert report.reexecuted_chunks >= 1
        assert report.added_time > 0.0
        assert rt.elapsed > clean_elapsed

    def test_section_record_carries_recovery(self):
        plan = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
        with triolet_runtime(MACHINE, faults=plan) as rt:
            squares_sum()
        rec = rt.last_section.recovery
        assert rec is not None
        assert rec.faults.get("crash") == 1

    def test_crash_without_recovery_propagates(self):
        plan = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
        with triolet_runtime(MACHINE, faults=plan, recovery=None):
            with pytest.raises(RankFailure) as exc_info:
                squares_sum()
        infos = exc_info.value.rank_failures
        assert [i.rank for i in infos] == [1]

    def test_reexecution_budget_exhausted_propagates(self):
        # every attempt crashes the current rank 1 (a different physical
        # rank after each re-partition): budget of 1 is not enough
        plan = FaultPlan(
            faults=(
                RankCrash(rank=1, at=1e-6),
                RankCrash(rank=1, at=1e-6),
                RankCrash(rank=1, at=1e-6),
            )
        )
        policy = RecoveryPolicy(max_reexecutions=1)
        with triolet_runtime(MACHINE, faults=plan, recovery=policy):
            with pytest.raises(RankFailure):
                squares_sum()

    def test_reexecution_is_deterministic(self):
        outs, times = [], []
        for _ in range(2):
            plan = FaultPlan(faults=(RankCrash(rank=2, at=1e-6),))
            with triolet_runtime(MACHINE, faults=plan) as rt:
                outs.append(squares_sum())
            times.append(rt.elapsed)
        assert outs[0] == outs[1]
        assert times[0] == times[1]


class TestKeptPartials:
    """The survivors of a failed attempt keep what they finished."""

    def test_retry_computes_only_the_lost_block(self):
        with triolet_runtime(MACHINE) as clean:
            baseline = squares_sum_engine()
        plan = FaultPlan(faults=(RankCrash(rank=1, at=0.0),))
        with triolet_runtime(MACHINE, faults=plan) as rt:
            out = squares_sum_engine()
        assert out == baseline
        assert rt.meter_total.visits == clean.meter_total.visits == len(XS)
        report = rt.recovery_report
        assert report.salvaged_chunks == 3  # of 4: all but the dead rank's
        assert report.reexecuted_chunks == 3  # its block, over 3 survivors
        assert "3 kept from failed attempts" in report.describe()

    def test_added_time_is_the_failed_attempts_real_duration(self):
        # Not the failure instant (t = 0 here): the survivors' work is
        # kept, so the attempt is charged until the last of them stopped.
        with triolet_runtime(MACHINE) as clean:
            squares_sum_engine()
        plan = FaultPlan(faults=(RankLoss(rank=3, at=0.0),))
        with triolet_runtime(MACHINE, faults=plan) as rt:
            squares_sum_engine()
        added = rt.recovery_report.added_time
        assert added > DEFAULT_RECOVERY.backoff(0) + 0.5 * clean.elapsed
        assert rt.elapsed > added

    def test_no_plan_no_published_partial(self, launches):
        with triolet_runtime(MACHINE):
            squares_sum_engine()
        with triolet_runtime(MACHINE, faults=FaultPlan()):
            squares_sum_engine()
        assert [res.published for res in launches] \
            == [[False] * 4, [True] * 4]


class TestNothingOutlivesTheSection:
    """A failed attempt's exception sits on a reference cycle (its
    ``rank_failures`` point back at it) and pins every frame it passed
    through: whatever still hangs on it when the engine has recovered
    lives until a full collection.  The engine takes the partials off it
    and lets the traceback go, so plain reference counting frees them."""

    @pytest.fixture
    def partials(self, monkeypatch):
        """Weak references to every array a node execution returned."""
        refs = []
        node_execute = NodeModel._node_execute

        def spy(self, it, spec, cores):
            out = node_execute(self, it, spec, cores)
            refs.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(NodeModel, "_node_execute", spy)
        was_enabled = gc.isenabled()
        gc.disable()
        yield refs
        if was_enabled:
            gc.enable()

    @pytest.mark.parametrize("faults", [(RankLoss(rank=2, at=0.0),), ()],
                             ids=["faulted", "first-time"])
    def test_partials_are_dead_when_the_section_returns(self, partials,
                                                        faults):
        with triolet_runtime(MACHINE, faults=FaultPlan(faults=faults)) as rt:
            out = tri.build(tri.map(closure(_square), tri.par(XS)))
            alive = [ref() is not None for ref in partials]
        assert out.tobytes() == (XS * XS).tobytes()
        # the survivors' 3 blocks and the 3 residual ones, or all 4: gone
        assert alive == [False] * (6 if faults else 4)
        assert rt.recovery_report.salvaged_chunks == (3 if faults else 0)


class TestSpeculation:
    def test_straggler_capped_by_task_timeout(self):
        plan = FaultPlan(faults=(SlowNode(node=1, factor=50.0),))
        capped = RecoveryPolicy(task_timeout=1e-4)
        with triolet_runtime(MACHINE, faults=plan, recovery=capped) as rt:
            out = squares_sum()
        assert out == pytest.approx(EXPECTED)
        assert rt.recovery_report.speculations > 0

        plan = FaultPlan(faults=(SlowNode(node=1, factor=50.0),))
        uncapped = RecoveryPolicy(task_timeout=None)
        with triolet_runtime(MACHINE, faults=plan, recovery=uncapped) as rt2:
            out2 = squares_sum()
        assert out2 == pytest.approx(EXPECTED)
        assert rt2.elapsed > rt.elapsed


class TestGracefulDegradation:
    def test_sgemm_completes_under_eden_limits(self):
        """The Fig. 5 asymmetry: under Eden's 64 MB message cap at >= 2
        nodes, Eden still fails while Triolet fragments and completes."""
        from repro.apps import sgemm
        from repro.bench.calibrate import costs_for
        from repro.bench.harness import APPS, make_problem
        from repro.cluster.machine import PAPER_MACHINE

        p = make_problem("sgemm")
        machine = PAPER_MACHINE.scaled(nodes=2, cores_per_node=16)

        eden_run = sgemm.run_eden(p, machine, costs_for("sgemm", "eden", p))
        assert not eden_run.ok
        assert "buffer" in eden_run.failed

        costs = costs_for("sgemm", "triolet", p)
        tri_run = sgemm.run_triolet(p, machine, costs, limits=EDEN_LIMITS)
        assert tri_run.ok
        assert APPS["sgemm"].same_value(
            tri_run.value, APPS["sgemm"].solve_ref(p)
        )
        report = tri_run.detail["recovery"]
        assert report.rejected_messages >= 1
        assert report.fragments_sent >= 2

    def test_triolet_without_recovery_matches_eden_fate(self):
        from repro.apps import sgemm
        from repro.bench.calibrate import costs_for
        from repro.bench.harness import make_problem
        from repro.cluster.machine import PAPER_MACHINE

        p = make_problem("sgemm")
        machine = PAPER_MACHINE.scaled(nodes=2, cores_per_node=16)
        costs = costs_for("sgemm", "triolet", p)
        with pytest.raises(BufferOverflowError):
            sgemm.run_triolet(
                p, machine, costs, limits=EDEN_LIMITS, recovery=None
            )


class TestZeroCost:
    def test_default_policy_does_not_change_fault_free_timeline(self):
        with triolet_runtime(MACHINE, recovery=None) as rt_off:
            out_off = squares_sum()
        with triolet_runtime(MACHINE, recovery=DEFAULT_RECOVERY) as rt_on:
            out_on = squares_sum()
        assert out_off == out_on
        assert rt_off.elapsed == rt_on.elapsed
        assert rt_on.recovery_report.total_faults == 0
        assert rt_on.recovery_report.added_time == 0.0

    def test_installed_empty_plan_reports_all_zero(self):
        with triolet_runtime(MACHINE, faults=FaultPlan()) as rt:
            squares_sum()
        report = rt.recovery_report
        assert report.total_faults == 0
        assert report.retries == 0
        assert report.reexecuted_chunks == 0


class TestRecoveryReport:
    def test_merge_accumulates(self):
        acc = RecoveryReport(attempts=0)
        acc.merge(RecoveryReport(faults={"send": 1}, retries=1, attempts=1))
        acc.merge(RecoveryReport(faults={"send": 2, "crash": 1}, attempts=2))
        assert acc.faults == {"send": 3, "crash": 1}
        assert acc.retries == 1
        assert acc.attempts == 3
        assert acc.total_faults == 4

    def test_describe_mentions_every_mechanism(self):
        text = RecoveryReport(
            faults={"crash": 1}, retries=2, reexecuted_chunks=3
        ).describe()
        for needle in ("crash=1", "retries: 2", "re-executed chunks: 3"):
            assert needle in text


# -- durable recovery (lineage, shrink, budgets, taxonomy) -------------------

_NUMERIC_FIELDS = [
    f for f in dc_fields(RecoveryReport) if f.name not in ("faults", "failure")
]


@st.composite
def _reports(draw):
    """A random RecoveryReport, field-generic so a counter added later is
    exercised automatically.  Float fields draw dyadic rationals (k/8) so
    sums are exact and regrouping cannot introduce rounding."""
    kwargs = {
        "faults": draw(
            st.dictionaries(
                st.sampled_from(["send", "crash", "loss", "delay"]),
                st.integers(0, 5),
                max_size=3,
            )
        ),
        "failure": draw(
            st.sampled_from([None, "transient", "permanent", "budget"])
        ),
    }
    for f in _NUMERIC_FIELDS:
        if isinstance(f.default, float):
            kwargs[f.name] = draw(st.integers(0, 64)) / 8.0
        else:
            kwargs[f.name] = draw(st.integers(0, 100))
    return RecoveryReport(**kwargs)


def _fold(reports):
    acc = RecoveryReport(attempts=0)
    for r in reports:
        acc.merge(r)
    return acc


@pytest.mark.recovery
class TestMergeRoundTrip:
    """Satellite: a merge of per-run reports must equal the report over
    the concatenated runs, for *every* dataclass field -- the regression
    that motivated the field-generic merge was a hand-enumerated counter
    list silently dropping newly added fields."""

    @given(st.lists(_reports(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenated_totals(self, reports):
        acc = _fold(reports)
        for f in _NUMERIC_FIELDS:
            assert getattr(acc, f.name) == sum(
                getattr(r, f.name) for r in reports
            ), f"field {f.name} dropped or mis-merged"
        for kind in {k for r in reports for k in r.faults}:
            assert acc.faults[kind] == sum(
                r.faults.get(kind, 0) for r in reports
            )
        last = [r.failure for r in reports if r.failure is not None]
        assert acc.failure == (last[-1] if last else None)

    @given(st.lists(_reports(), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_regrouping_is_invariant(self, reports, cut):
        """Merging run-by-run equals merging pre-merged halves (the
        driver folds section reports; callers fold runtime reports)."""
        cut = min(cut, len(reports) - 1)
        flat = _fold(reports)
        halves = _fold([_fold(reports[:cut]), _fold(reports[cut:])])
        for f in _NUMERIC_FIELDS:
            assert getattr(flat, f.name) == getattr(halves, f.name)
        assert flat.faults == halves.faults
        assert flat.failure == halves.failure


@pytest.mark.recovery
class TestBackoffProperties:
    """Satellite: retry backoff is capped, monotone, and a pure function
    of (policy, attempt) -- no hidden randomness."""

    @given(base=st.floats(1e-6, 1e-2, allow_nan=False),
           cap=st.floats(1e-6, 1e-1, allow_nan=False),
           attempt=st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_backoff_capped_monotone_deterministic(self, base, cap, attempt):
        policy = RecoveryPolicy(backoff_base=base, backoff_cap=cap)
        b = policy.backoff(attempt)
        assert 0.0 < b <= cap  # never above the ceiling
        assert b == policy.backoff(attempt)  # pure
        assert policy.backoff(attempt + 1) >= b  # monotone in attempt
        twin = RecoveryPolicy(backoff_base=base, backoff_cap=cap)
        assert twin.backoff(attempt) == b  # deterministic across instances

    def test_runtime_backoff_matches_policy_schedule(self):
        """The virtual time charged for retries is exactly the policy's
        capped-exponential schedule -- same seed, same timeline."""
        policy = RecoveryPolicy(max_retries=4)
        plan = FaultPlan(faults=(SendFault(src=1, times=3),))
        with triolet_runtime(MACHINE, faults=plan, recovery=policy) as rt:
            squares_sum()
        rep = rt.recovery_report
        assert rep.retries == 3
        assert rep.backoff_time == sum(policy.backoff(i) for i in range(3))


@pytest.mark.recovery
class TestElasticShrink:
    def _loss(self, section=None):
        return FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=section),))

    def test_permanent_loss_completes_degraded_and_identical(self):
        with triolet_runtime(MACHINE) as rt0:
            baseline = squares_sum()
        with triolet_runtime(MACHINE, faults=self._loss()) as rt:
            out = squares_sum()
        assert out == baseline  # bit-identical scalar
        rep = rt.recovery_report
        assert rep.rank_losses == 1
        assert rep.faults.get("crash") == 1
        assert rt.lost_ranks == 1
        assert rep.failure is None

    def test_later_sections_run_on_the_survivors(self):
        with triolet_runtime(MACHINE, faults=self._loss()) as rt:
            first = squares_sum()
            second = squares_sum()
        assert first == second == pytest.approx(EXPECTED)
        # The machine did not heal: the first section re-executed on the
        # survivors (two attempts) and the next section never saw the
        # lost rank at all (one attempt, same reduced width).
        assert rt.sections[0].recovery.attempts == 2
        assert rt.sections[1].recovery is None or \
            rt.sections[1].recovery.attempts <= 1
        assert rt.sections[0].nodes == rt.sections[1].nodes == \
            MACHINE.nodes - 1

    def test_concurrent_losses_absorb_in_one_attempt_deterministically(self):
        # A lambda has no bulk form: the ranks of this section run to block.
        assert self._concurrent_losses(squares_sum).sections[-1].plan is None

    def test_concurrent_losses_with_free_running_ranks(self):
        rt = self._concurrent_losses(squares_sum_engine)
        assert rt.sections[-1].plan is not None

    def _concurrent_losses(self, squares_sum):
        # Two losses due within the same attempt: the survivors must keep
        # executing their own instruction streams after the first failure
        # (draining posted messages, applying shipping ops), so the
        # second loss always fires alongside the first and the recovery
        # accounting is a pure function of the plan -- never of how fast
        # the abort flag propagated between rank threads.
        runs = []
        for _ in range(3):
            plan = FaultPlan(
                faults=(RankLoss(rank=1, at=1e-6),
                        RankLoss(rank=2, at=1e-6))
            )
            with triolet_runtime(MACHINE, faults=plan) as rt:
                out = squares_sum()
            rep = rt.recovery_report
            runs.append((out, rep.rank_losses, rep.attempts,
                         rep.reshipped_bytes, rt.elapsed))
        assert len(set(runs)) == 1
        out, losses, attempts, _, _ = runs[0]
        assert out == pytest.approx(EXPECTED)
        assert losses == 2
        assert attempts == 2  # one failed attempt absorbed both losses
        return rt

    def test_loss_without_recovery_raises_permanent_fault(self):
        with triolet_runtime(MACHINE, faults=self._loss(),
                             recovery=None) as rt:
            with pytest.raises(PermanentFault) as exc_info:
                squares_sum()
        assert classify_failure(exc_info.value) == "permanent"
        assert rt.recovery_report.failure == "permanent"

    def test_loss_with_reexecution_budget_zero_is_permanent_fault(self):
        policy = RecoveryPolicy(max_reexecutions=0)
        with triolet_runtime(MACHINE, faults=self._loss(),
                             recovery=policy) as rt:
            with pytest.raises(PermanentFault):
                squares_sum()
        assert rt.recovery_report.failure == "permanent"


@pytest.mark.recovery
class TestEscalation:
    """mriq (one section) and tpacf (three) on 4 x 16 cores under 0, 1 and
    2 permanent losses, staggered in virtual time so each fires against
    the already-shrunken machine, recovered by lineage replay and by full
    invalidation (``lineage_recovery=False``).  The first loss fires at
    30 % of the fault-free makespan: mid-compute, when survivors hold
    their shards and partials."""

    MACHINE = MachineSpec(nodes=4, cores_per_node=16)
    ESCALATED = ("mriq", "tpacf")

    @pytest.fixture(scope="class")
    def runs(self):
        """``(app, losses, lineage) -> AppRun``; 0 losses is fault-free."""
        out = {}
        for app in self.ESCALATED:
            run = APPS[app].runners["triolet"]
            p = make_problem(app)
            costs = costs_for(app, "triolet", p)
            clean = out[app, 0, True] = run(p, self.MACHINE, costs)
            at = 0.3 * clean.elapsed
            for n, lineage in ((1, True), (1, False), (2, True), (2, False)):
                out[app, n, lineage] = run(
                    p, self.MACHINE, costs,
                    faults=FaultPlan(faults=tuple(
                        RankLoss(rank=1 + i, at=at * (1.0 + 0.25 * i))
                        for i in range(n))),
                    recovery=RecoveryPolicy(lineage_recovery=lineage),
                    budget=FailureBudget(max_rank_losses=3),
                )
        return out

    @staticmethod
    def _bits(value):
        if isinstance(value, dict):  # tpacf's histograms
            return {k: np.asarray(v).tobytes() for k, v in value.items()}
        return np.asarray(value).tobytes()

    def test_every_loss_count_completes_bit_identically(self, runs):
        for (app, n, _lineage), run in runs.items():
            assert run.ok, run.failed
            assert self._bits(run.value) == self._bits(runs[app, 0, True].value)
            if n:
                assert run.detail["recovery"].rank_losses == n

    def test_makespan_overhead_grows_with_losses(self, runs):
        """Every failed attempt is charged the same honest way, so the
        virtual makespan grows with each loss: a model that charges some
        attempts differently from others breaks the order."""
        for app in self.ESCALATED:
            clean, one, two = (runs[app, n, True].elapsed for n in (0, 1, 2))
            assert clean < one < two, (app, clean, one, two)

    def test_lineage_ships_strictly_fewer_bytes(self, runs):
        for app in self.ESCALATED:
            for n in (1, 2):
                lin = runs[app, n, True].detail["recovery"]
                inv = runs[app, n, False].detail["recovery"]
                assert 0 < lin.reshipped_bytes < inv.reshipped_bytes
                assert lin.lineage_replays > 0 and inv.lineage_replays == 0


@pytest.mark.recovery
class TestFailureBudgets:
    def _loss(self):
        return FaultPlan(faults=(RankLoss(rank=1, at=1e-6),))

    def test_rank_loss_budget_exhaustion(self):
        budget = FailureBudget(max_rank_losses=0)
        with triolet_runtime(MACHINE, faults=self._loss(),
                             budget=budget) as rt:
            with pytest.raises(BudgetExhausted):
                squares_sum()
        assert rt.recovery_report.failure == "budget"
        assert budget.rank_losses_used == 1

    def test_reexecution_budget_spans_sections(self):
        # Two transient crashes in different sections: each alone is
        # recoverable, but a job-wide budget of 1 dies on the second.
        plan = FaultPlan(
            faults=(RankCrash(rank=1, at=1e-6, section=0),
                    RankCrash(rank=2, at=1e-6, section=1))
        )
        budget = FailureBudget(max_reexecutions=1)
        with triolet_runtime(MACHINE, faults=plan, budget=budget) as rt:
            squares_sum()
            with pytest.raises(BudgetExhausted):
                squares_sum()
        assert rt.recovery_report.failure == "budget"
        assert budget.reexecutions_used == 2

    def test_deadline_kills_a_healthy_job(self):
        budget = FailureBudget(deadline=1e-12)
        with triolet_runtime(MACHINE, budget=budget) as rt:
            with pytest.raises(BudgetExhausted):
                squares_sum()
        assert rt.recovery_report.failure == "budget"

    def test_unlimited_budget_never_fires(self):
        budget = FailureBudget()
        with triolet_runtime(MACHINE, faults=self._loss(),
                             budget=budget) as rt:
            out = squares_sum()
        assert out == pytest.approx(EXPECTED)
        assert rt.recovery_report.failure is None


@pytest.mark.recovery
class TestTaxonomy:
    def test_classify_walks_the_cause_chain(self):
        try:
            try:
                raise TransientSendError(1, 0, 7, 3)
            except TransientSendError as inner:
                raise RuntimeError("wrapped") from inner
        except RuntimeError as exc:
            assert classify_failure(exc) == "transient"

    def test_classify_permanent_rank_failure(self):
        assert classify_failure(
            RankFailure(1, 1e-6, 2e-6, permanent=True)
        ) == "permanent"
        assert classify_failure(RankFailure(1, 1e-6, 2e-6)) == "transient"

    def test_classify_budget_and_unknown(self):
        assert classify_failure(BudgetExhausted("x")) == "budget"
        assert classify_failure(ValueError("x")) == "unknown"

    def test_exhausted_retries_classify_transient(self):
        plan = FaultPlan(faults=(SendFault(src=1, times=99),))
        policy = RecoveryPolicy(max_retries=2)
        with triolet_runtime(MACHINE, faults=plan, recovery=policy) as rt:
            with pytest.raises(TransientSendError):
                squares_sum()
        assert rt.recovery_report.failure == "transient"
