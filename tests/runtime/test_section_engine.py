"""The section-engine contract: every kind of distributed section gets
the same recovery accounting and the same observer payload, because one
attempt loop (``repro.runtime.section.run_section``) serves them all."""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import FaultPlan, MachineSpec, RankCrash, RankLoss
from repro.core.engine import use_vectorization
from repro.obs import capture
from repro.runtime import (
    DEFAULT_RECOVERY,
    BudgetExhausted,
    CheckpointConfig,
    CheckpointStore,
    FailureBudget,
    PermanentFault,
    observing_sections,
    run_restartable,
    section,
    triolet_runtime,
)
from repro.testing.invariants import check_plane, checking
from repro.testing.kernels import k_pair_prod, k_square

pytestmark = pytest.mark.recovery

MACHINE = MachineSpec(nodes=4, cores_per_node=2)
FIELD = (np.arange(512.0) * 7.0) % 23.0

PAYLOAD_KEYS = {
    "runtime", "record", "iterator", "partition", "bounds", "nchunks",
    "ship", "spec", "attempts", "dead_ranks", "survivors", "rank_losses",
    "salvaged",
}


def _relax(xpad):
    return 0.5 * (xpad[:-2] + xpad[2:])


def _pipeline(rt):
    return tri.sum(tri.map(k_square, tri.par(rt.distribute(FIELD.copy()))))


def _stencil(rt):
    h = rt.distribute(FIELD.copy())
    rt.stencil(h, radius=1, kernel=_relax, iterations=1)
    return h.array.copy()


KINDS = {"pipeline": _pipeline, "stencil": _stencil}

#: scenario -> (fault, runtime keywords (a factory: budgets are stateful),
#:              raised error,
#:              (attempts, reexecuted_chunks, rank_losses, failure))
SCENARIOS = {
    "crash": (RankCrash(rank=2, at=1e-6), dict, None, (2, 3, 0, None)),
    "loss": (RankLoss(rank=1, at=1e-6), dict, None, (2, 3, 1, None)),
    "budget": (
        RankLoss(rank=1, at=1e-6),
        lambda: {"budget": FailureBudget(max_rank_losses=0)},
        BudgetExhausted,
        (0, 0, 0, "budget"),
    ),
    "unrecoverable": (
        RankLoss(rank=1, at=1e-6), lambda: {"recovery": None}, PermanentFault,
        (0, 0, 0, "permanent"),
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", KINDS)
def test_same_recovery_contract_from_every_kind(kind, scenario):
    fault, make_kwargs, error, expected = SCENARIOS[scenario]
    payloads = []
    with triolet_runtime(MACHINE) as clean:
        want = KINDS[kind](clean)
    with capture() as cap, observing_sections(payloads.append), \
            triolet_runtime(MACHINE, faults=FaultPlan(faults=(fault,)),
                            **make_kwargs()) as rt:
        if error is None:
            got = KINDS[kind](rt)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        else:
            with pytest.raises(error):
                KINDS[kind](rt)
    rep = rt.recovery_report
    assert (rep.attempts, rep.reexecuted_chunks, rep.rank_losses,
            rep.failure) == expected
    if error is None:
        assert rep.added_time > 0
        assert rt.last_section.recovery.added_time == rep.added_time
        (payload,) = payloads
        extra = {"halo"} if kind == "stencil" else set()
        assert set(payload) == PAYLOAD_KEYS | extra
        assert payload["attempts"] == 2 and payload["dead_ranks"] == 1
        assert payload["survivors"] == 3 == payload["nchunks"]
        assert payload["rank_losses"] == rep.rank_losses
        assert payload["record"] is rt.last_section
        # The span, the payload, the record and the report render one
        # outcome: wherever two of them carry a fact, they agree.
        (span,) = cap.spans_of_kind("section")
        attrs, record = span.attrs, rt.last_section
        assert attrs["attempts"] == payload["attempts"] \
            == record.recovery.attempts
        assert attrs["dead_ranks"] == payload["dead_ranks"]
        assert attrs.get("rank_losses", 0) == payload["rank_losses"] \
            == record.recovery.rank_losses
        assert attrs["salvaged"] == len(payload["salvaged"]) \
            == record.recovery.salvaged_chunks
        assert (attrs["makespan"], attrs["bytes_shipped"]) \
            == (record.makespan, record.bytes_shipped)
    else:
        assert rep.added_time == 0 and not payloads and not rt.sections


def test_untraced_sections_build_no_span_attributes(monkeypatch):
    """The obs contract: the disabled path allocates nothing.  With no
    recorder no section builds its outcome's or its kind's span
    attributes; under a recorder the section span carries both."""
    calls = []
    real_run, real_attrs = section._run, section.SectionOutcome.span_attrs

    def spy(who, fn):
        def wrapped(*args):
            calls.append((who, fn(*args)))
            return calls[-1][1]
        return wrapped

    def spy_run(rt, kind, osp):
        kind.span_attrs = spy("kind", kind.span_attrs)
        return real_run(rt, kind, osp)

    monkeypatch.setattr(section, "_run", spy_run)
    monkeypatch.setattr(section.SectionOutcome, "span_attrs",
                        spy("outcome", real_attrs))
    for build in KINDS.values():
        with triolet_runtime(MACHINE) as rt:
            build(rt)
        assert len(rt.sections) == 1
    assert calls == []
    for build in KINDS.values():
        with capture() as cap, triolet_runtime(MACHINE) as rt:
            build(rt)
        (span,) = cap.spans_of_kind("section")
        (_, outcome), (_, extra) = calls
        assert [who for who, _ in calls] == ["outcome", "kind"]
        assert outcome == real_attrs(rt.last_section) and extra
        assert span.attrs == {**outcome, **extra}
        calls.clear()


# -- what a failed attempt keeps -------------------------------------------
#
# The ranks that did not fail keep the partials they finished; the next
# attempt computes only the blocks nobody holds.

GRID_U, GRID_V = np.arange(12.0) % 5.0, np.arange(10.0) % 7.0


def _handle_sum(rt):
    return tri.sum(tri.map(k_square, tri.par(rt.distribute(FIELD.copy()))))


def _free_sum(rt):
    return tri.sum(tri.map(k_square, tri.par(FIELD)))


def _build_1d(rt):
    return tri.build(tri.map(k_square, tri.par(FIELD)))


def _build_2d(rt):
    return tri.build(
        tri.map(k_pair_prod, tri.par(tri.outerproduct(GRID_U, GRID_V)))
    )


def _ordered(rt):
    return tri.collect_list(tri.map(k_square, tri.par(FIELD)))


PIPELINES = {
    "handle-sum": _handle_sum, "free-sum": _free_sum,
    "build-1d": _build_1d, "build-2d": _build_2d,
}


def _run(pipeline, nodes, *faults, **kw):
    """*pipeline* on *nodes* x 2 cores under *faults*, invariant checker
    on; returns ``(value, runtime)``."""
    plan = FaultPlan(faults=faults) if faults else None
    machine = MachineSpec(nodes=nodes, cores_per_node=2)
    with checking(), triolet_runtime(machine, faults=plan, **kw) as rt:
        value = pipeline(rt)
    check_plane(rt.plane)
    return value, rt


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestComputesNothingTwice:
    @pytest.mark.parametrize("fault", [RankLoss, RankCrash])
    @pytest.mark.parametrize("nodes", [3, 4])
    @pytest.mark.parametrize("name", PIPELINES)
    def test_an_early_failure_costs_no_visit(self, name, nodes, fault):
        want, clean = _run(PIPELINES[name], nodes)
        for rank in range(1, nodes):
            got, rt = _run(PIPELINES[name], nodes, fault(rank=rank, at=0.0))
            assert _same(got, want)
            assert rt.meter_total.visits == clean.meter_total.visits
            rep = rt.recovery_report
            assert (rep.attempts, rep.salvaged_chunks) == (2, nodes - 1)
            assert rt.last_section.recovery.salvaged_chunks == nodes - 1
            assert rt.last_section.partition.endswith(f"+{nodes - 1} kept")

    @pytest.mark.parametrize("to_block", [False, True])
    def test_nor_on_the_scalar_bound_tier(self, to_block, launches):
        launches.kw = {"run_to_block": True} if to_block else {}
        with use_vectorization(False):
            want, clean = _run(_free_sum, 4)
            assert clean.last_section.plan is None
            for rank in (1, 2, 3):
                got, rt = _run(_free_sum, 4, RankLoss(rank=rank, at=0.0))
                assert _same(got, want)
                assert rt.meter_total.visits == clean.meter_total.visits
                assert rt.recovery_report.salvaged_chunks == 3

    @pytest.mark.parametrize("name", PIPELINES)
    def test_two_ranks_lost_in_one_attempt(self, name):
        want, clean = _run(PIPELINES[name], 4)
        got, rt = _run(PIPELINES[name], 4, RankLoss(rank=1, at=0.0),
                       RankCrash(rank=2, at=0.0))
        assert _same(got, want)
        assert rt.meter_total.visits == clean.meter_total.visits
        rep = rt.recovery_report
        # each of the two lost blocks is split over both survivors
        assert (rep.attempts, rep.salvaged_chunks, rep.reexecuted_chunks) \
            == (2, 2, 4)

    def test_nothing_held_is_the_whole_section_again(self):
        # The root dies before it ships a chunk: no rank ever computes.
        want, clean = _run(_build_1d, 4)
        got, rt = _run(_build_1d, 4, RankCrash(rank=0, at=0.0))
        assert _same(got, want)
        assert rt.meter_total.visits == clean.meter_total.visits
        assert rt.recovery_report.salvaged_chunks == 0
        assert rt.last_section.partition == "1d x3"


class TestADeadRankKeepsNothing:
    def _recv_time(self, rank, peer):
        """When *rank* has *peer*'s message of the fault-free reduce."""
        with capture() as rec:
            _run(_free_sum, 4)
        return next(e["time"] for e in rec.events if e["kind"] == "recv"
                    and (e["rank"], e["peer"]) == (rank, peer))

    def test_interior_node_of_the_reduce_tree(self, launches):
        # Rank 2 of 4 is rank 3's parent in the binomial tree.  It dies
        # with rank 3's partial in hand: inside its collective, after it
        # published its own -- which is not used.
        at = self._recv_time(2, 3)
        want, clean = _run(_free_sum, 4)
        del launches[:]
        payloads = []
        with observing_sections(payloads.append):
            got, rt = _run(_free_sum, 4, RankLoss(rank=2, at=at))
        failed, _ok = launches
        assert [i.rank for i in failed.rank_failures] == [2]
        assert failed.rank_failures[0].vtime >= at
        assert failed.published == [True] * 4
        assert _same(got, want)
        rep = rt.recovery_report
        assert (rep.attempts, rep.salvaged_chunks) == (2, 3)
        # rank 2's block was computed twice, nothing else was
        assert rt.meter_total.visits - clean.meter_total.visits \
            == len(FIELD) // 4
        # rank 3 posted to the dead rank and finished: its partial is kept
        # (it is rank 2 now), only the dead rank's block is computed again
        (payload,) = payloads
        assert sorted(payload["salvaged"]) == [
            (0, (0, 128)), (1, (128, 256)), (2, (384, 512))
        ]
        assert payload["bounds"] == [(256, 298), (298, 341), (341, 384)]

    def test_a_loss_during_the_residual_attempt(self):
        # The second loss takes the new rank 1 (the old rank 2) with the
        # block it kept: that block goes back on the missing list.
        faults = (RankLoss(rank=1, at=0.0), RankLoss(rank=1, at=0.0))
        for name, pipeline in PIPELINES.items():
            want, clean = _run(pipeline, 4)
            got, rt = _run(pipeline, 4, *faults)
            assert _same(got, want), name
            rep = rt.recovery_report
            assert (rep.attempts, rep.rank_losses) == (3, 2)
            # kept: old ranks 0 and 3's blocks, and the two thirds of old
            # rank 1's block that the residual attempt's survivors finished
            assert rep.salvaged_chunks == 4
            assert rt.meter_total.visits > clean.meter_total.visits
        with pytest.raises(BudgetExhausted):
            _run(_free_sum, 4, *faults,
                 budget=FailureBudget(max_rank_losses=1))


class TestRecoveryIsDeterministic:
    FAULTS = (RankLoss(rank=2, at=0.0), RankCrash(rank=1, at=0.0))

    def _observe(self, pipeline):
        with capture() as rec:
            value, rt = _run(pipeline, 4, *self.FAULTS)
        events = sorted(
            (e["time"], e["kind"], e["rank"], e["peer"], e["tag"],
             e["nbytes"]) for e in rec.events
        )
        return (np.asarray(value).tobytes(),
                [s.makespan for s in rt.sections], rt.recovery_report,
                events)

    @pytest.mark.parametrize("name", PIPELINES)
    def test_same_plan_same_everything(self, name, launches):
        first = self._observe(PIPELINES[name])
        assert first == self._observe(PIPELINES[name])
        launches.kw = {"run_to_block": True}
        assert first == self._observe(PIPELINES[name])


class TestKindsThatKeepNothing:
    """Ordered reduces and stencil sweeps cannot finish from partials:
    they re-execute in full, charged as before."""

    @pytest.mark.parametrize("kind", [_ordered, _stencil])
    @pytest.mark.parametrize("fault", [RankLoss, RankCrash])
    def test_full_reexecution_charged_to_the_failure_instant(
        self, kind, fault, launches
    ):
        with triolet_runtime(MACHINE) as clean:
            want = kind(clean)
        with capture() as rec, triolet_runtime(
            MACHINE, faults=FaultPlan(faults=(fault(rank=2, at=1e-6),))
        ) as rt:
            got = kind(rt)
        assert _same(got, want) if kind is _stencil else got == want
        failed, ok = launches[-2:]
        rep = rt.last_section.recovery
        assert (rep.attempts, rep.salvaged_chunks, rep.reexecuted_chunks) \
            == (2, 0, 3)
        assert rt.last_section.partition.startswith("1d x3")
        assert "kept" not in rt.last_section.partition
        assert rep.added_time == (
            max(i.vtime for i in failed.rank_failures)
            + DEFAULT_RECOVERY.backoff(0)
        )
        assert rt.last_section.makespan == rep.added_time + ok.makespan
        assert rt.meter_total.visits > clean.meter_total.visits
        (span,) = [s for s in rec.spans_of_kind("section")
                   if s.attrs.get("attempts", 1) > 1]
        assert span.attrs["salvaged"] == 0


class TestHonestClock:
    """Kept work is paid for: the failed attempt lasts until its last
    rank stops, and a held partial travels at its holder's cost."""

    @pytest.mark.parametrize("name", PIPELINES)
    def test_makespan_is_failed_attempt_plus_backoff_plus_residual(
        self, name, launches
    ):
        _, rt = _run(PIPELINES[name], 4, RankLoss(rank=2, at=0.0))
        failed, ok = launches
        rec = rt.last_section
        assert max(failed.final_clocks) > failed.rank_failures[0].vtime
        assert rec.recovery.added_time == (
            max(failed.final_clocks) + DEFAULT_RECOVERY.backoff(0)
        )
        assert rec.makespan == rec.recovery.added_time + ok.makespan
        assert rt.elapsed == rec.makespan

    def test_a_held_partial_is_combined_where_it_lives(self, launches):
        # Reduce: every rank of the residual attempt folds what it holds
        # into what it computes and pays for that combine, on top of the
        # two the root pays for what it receives.
        with capture() as rec:
            _, rt = _run(_free_sum, 4, RankLoss(rank=3, at=0.0))
        residual = launches[-1]
        start = rt.last_section.recovery.added_time
        kernel = {s.rank: s.attrs["makespan"]
                  for s in rec.spans_of_kind("kernel") if s.t0 >= start}
        one = rt.costs.combine_seconds(1)
        assert [m.compute_time - kernel[m.rank]
                for m in residual.metrics.per_rank] \
            == pytest.approx([3 * one, one, one])

    def test_a_held_block_travels_in_its_holders_gather_message(
        self, launches
    ):
        # Build: the root gets the held non-root blocks over the wire.
        _run(_build_1d, 4, RankLoss(rank=3, at=0.0))
        residual = launches[-1]
        held_elsewhere = 2 * (len(FIELD) // 4) * FIELD.itemsize
        gathered = sum(m.bytes_sent for m in residual.metrics.per_rank[1:])
        assert gathered >= held_elsewhere
        assert residual.metrics.per_rank[0].bytes_received >= held_elsewhere


class TestSalvageAndCheckpoints:
    def test_a_salvaged_sections_blob_restores_bit_identically(self):
        def job(rt):
            h = rt.distribute(FIELD.copy())
            return (tri.build(tri.map(k_square, tri.par(h))),
                    tri.sum(tri.map(k_square, tri.par(h))))

        with triolet_runtime(MACHINE) as clean:
            want = job(clean)
        store = CheckpointStore()
        # Section 0 loses a rank and finishes from kept partials; the
        # loss in section 1 exhausts the budget and kills the job.
        plan = FaultPlan(faults=(RankLoss(rank=2, at=0.0, section=0),
                                 RankLoss(rank=1, at=0.0, section=1)))
        reports = []

        def make_runtime():
            return triolet_runtime(
                MACHINE, faults=plan,
                budget=FailureBudget(max_rank_losses=1),
                checkpoint=CheckpointConfig(store=store, job="salvaged"),
            )

        with observing_sections(lambda p: reports.append(p["record"])):
            (built, total), rt, restarts = run_restartable(make_runtime, job)
        assert restarts == 1
        assert reports[0].recovery.salvaged_chunks == 3
        assert rt.recovery_report.restores == 1
        assert _same(built, want[0]) and total == want[1]
