"""Span-layer causality: every absorbed recv joins a departed send.

The recorder absorbs each section's CommEvents (including those of
*crashed* attempts) and links them to the section span; the span-layer
causality check must hold on every capture -- the check a single
cluster trace passes (``tests/cluster/test_trace_and_requests.py``), but
over the joined, cross-section stream.
"""
import numpy as np
import pytest

from repro.cluster.faults import FaultPlan, RankCrash, RankLoss
from repro.cluster.machine import MachineSpec
from repro.cluster.trace import FAULT_EVENT_KINDS
from repro.data.plane import DataPlane
from repro.obs.export import check_event_causality, load_jsonl, write_jsonl
from repro.obs.report import render_summary, summarize
from repro.obs.runapp import capture_app
from repro.obs.spans import capture
from repro.runtime import DEFAULT_RECOVERY, triolet_runtime
from repro.testing import kernels as K
from repro.testing.gen import build_iter, generate_program, run_consumer

import repro.triolet as tri

pytestmark = pytest.mark.obs


class TestSpanLayerCausality:
    @pytest.mark.parametrize("app,nodes", [
        ("sgemm", 2), ("sgemm", 4), ("mriq", 3), ("cutcp", 2),
    ])
    def test_app_captures_are_causal(self, app, nodes):
        rec, _run = capture_app(app, nodes)
        assert rec.events, f"{app}@{nodes}: no comm events absorbed"
        assert check_event_causality(rec.events) == []

    def test_events_link_to_their_section_span(self):
        rec, _run = capture_app("sgemm", 2)
        section_sids = {s.sid for s in rec.spans if s.kind == "section"}
        for e in rec.events:
            assert e["section"] in section_sids

    def test_crashed_attempt_events_are_absorbed_and_causal(self):
        xs = np.arange(256, dtype=np.float64)
        machine = MachineSpec(nodes=4, cores_per_node=2)
        plan = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
        with capture() as rec:
            with triolet_runtime(machine, faults=plan,
                                 plane=DataPlane()) as rt:
                h = rt.distribute(xs)
                tri.sum(tri.map(K.k_square, tri.par(h)))
        faults = [e for e in rec.events
                  if e["kind"] in FAULT_EVENT_KINDS and e["peer"] < 0]
        assert faults, "crashed attempt left no fault events in the capture"
        assert any(e["rank"] == 1 for e in faults)
        # Message events -- across the failed and the retried attempt --
        # must still satisfy FIFO send-before-recv per channel.
        assert check_event_causality(rec.events) == []

    def test_fuzzed_multi_section_capture_is_causal(self):
        prog = generate_program(13, 1)
        machine = MachineSpec(nodes=5, cores_per_node=2)
        with capture() as rec:
            with triolet_runtime(machine, plane=DataPlane()) as rt:
                run_consumer(prog, build_iter(prog, rt.distribute,
                                              hint="par"))
                run_consumer(prog, build_iter(prog, rt.distribute,
                                              hint="par"))
        assert check_event_causality(rec.events) == []

    def test_checker_detects_orphan_recv(self):
        events = [
            {"kind": "recv", "time": 1.0, "rank": 1, "peer": 0,
             "tag": 7, "nbytes": 8},
        ]
        assert check_event_causality(events)

    def test_checker_detects_time_travel(self):
        events = [
            {"kind": "send", "time": 2.0, "rank": 0, "peer": 1,
             "tag": 7, "nbytes": 8},
            {"kind": "recv", "time": 1.0, "rank": 1, "peer": 0,
             "tag": 7, "nbytes": 8},
        ]
        assert check_event_causality(events)


class TestAttemptSpans:
    """A section that needed more than one attempt shows each of them, and
    the recovery act between two, as children of its span -- on the
    virtual timeline and with wall stamps.  Its later attempts' rank spans
    and events start where the attempt does, not at the section's start."""

    @pytest.fixture(scope="class")
    def recovered(self):
        xs = np.arange(512, dtype=np.float64)
        plan = FaultPlan(faults=(RankLoss(rank=2, at=0.0),))
        with capture() as rec:
            with triolet_runtime(MachineSpec(nodes=4, cores_per_node=2),
                                 faults=plan, plane=DataPlane()) as rt:
                tri.sum(tri.map(K.k_square, tri.par(rt.distribute(xs))))
        (sec,) = [s for s in rec.spans_of_kind("section")
                  if s.attrs.get("attempts", 1) > 1]
        steps = sorted((s for s in rec.spans if s.parent == sec.sid
                        and s.kind in ("attempt", "recover")),
                       key=lambda s: s.t0)
        return rec, sec, steps

    def test_attempts_and_the_shrink_between_them(self, recovered):
        _rec, sec, steps = recovered
        assert [(s.kind, s.name) for s in steps] == [
            ("attempt", "attempt 1"), ("recover", "shrink"),
            ("attempt", "attempt 2"),
        ]
        first, shrink, second = steps
        keys = ("outcome", "nranks", "blocks", "salvaged")
        assert [first.attrs[k] for k in keys] == ["failed", 4, 4, 0]
        assert [second.attrs[k] for k in keys] == ["ok", 3, 3, 3]
        assert shrink.attrs["lost_rows"] == 128
        assert sec.attrs["salvaged"] == 3

    def test_virtual_and_wall_stamps_line_up(self, recovered):
        _rec, sec, (first, shrink, second) = recovered
        assert first.t0 == sec.t0 and first.t1 == shrink.t0 == shrink.t1
        assert second.t0 == pytest.approx(
            first.t1 + DEFAULT_RECOVERY.backoff(0))
        assert second.t1 == pytest.approx(sec.t0 + sec.attrs["makespan"])
        stamps = [first.attrs["wall_ns0"], first.attrs["wall_ns1"],
                  second.attrs["wall_ns0"], second.attrs["wall_ns1"]]
        assert stamps == sorted(stamps) and stamps[0] < stamps[-1]

    def test_a_retrys_rank_spans_and_events_start_with_it(self, recovered):
        rec, sec, (first, _shrink, second) = recovered
        kernels = rec.spans_of_kind("kernel")
        assert len([s for s in kernels if s.t1 <= first.t1]) == 3
        assert len([s for s in kernels
                    if second.t0 <= s.t0 and s.t1 <= second.t1]) == 3
        assert len(kernels) == 6
        for e in rec.events:
            assert sec.t0 <= e["time"] <= second.t1
        assert check_event_causality(rec.events) == []

    def test_the_summary_prints_them_per_section(self, recovered, tmp_path):
        rec, sec, _steps = recovered
        write_jsonl(rec, str(tmp_path / "run.jsonl"))
        summary = summarize(load_jsonl(str(tmp_path / "run.jsonl")))
        (row,) = summary["recovered_sections"]
        assert row["section"] == f"par#{sec.sid}"
        assert [st["name"] for st in row["steps"]] == [
            "attempt 1", "shrink", "attempt 2"]
        text = render_summary(summary)
        assert f"attempts of section par#{sec.sid}:" in text
        assert "lost_rows=128" in text and "failed" in text

    def test_a_first_time_section_has_no_attempt_children(self):
        rec, _run = capture_app("sgemm", 2)
        assert not rec.spans_of_kind("attempt")
        assert not rec.spans_of_kind("recover")
        assert summarize({"spans": [s.as_dict() for s in rec.spans]})[
            "recovered_sections"] == []
