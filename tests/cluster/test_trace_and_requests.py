"""Tests for nonblocking requests and communication tracing."""
import numpy as np
import pytest

from repro.cluster import MachineSpec, run_spmd
from repro.obs.export import check_event_causality

MACHINE = MachineSpec(nodes=4, cores_per_node=2)


def _dicts(events):
    """A cluster trace in the form the causality checker reads."""
    return [e.as_dict() for e in events]


class TestNonblocking:
    def test_isend_irecv_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend({"a": 7}, dest=1, tag=11)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=11)
            return req.wait()

        res = run_spmd(MACHINE, main, nranks=2)
        assert res.results[1] == {"a": 7}

    def test_send_request_is_immediately_complete(self):
        def main(comm):
            if comm.rank == 0:
                return comm.isend(1, dest=1).test()
            return comm.recv(source=0)

        res = run_spmd(MACHINE, main, nranks=2)
        assert res.results[0] is True

    def test_irecv_not_complete_until_waited(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                return None
            req = comm.irecv(source=0)
            before = req.test()
            value = req.wait()
            return (before, req.test(), value)

        res = run_spmd(MACHINE, main, nranks=2)
        assert res.results[1] == (False, True, "x")

    def test_overlapping_irecvs(self):
        """The mri-q §4.2 pattern: post receives, then wait for each."""

        def main(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(source=s, tag=5) for s in range(1, comm.size)]
                return sorted(r.wait() for r in reqs)
            comm.compute(0.01 * comm.rank)
            comm.send(comm.rank * 100, dest=0, tag=5)
            return None

        res = run_spmd(MACHINE, main, nranks=4)
        assert res.results[0] == [100, 200, 300]

    def test_double_wait_returns_same_value(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(42, dest=1)
                return None
            req = comm.irecv(source=0)
            return (req.wait(), req.wait())

        res = run_spmd(MACHINE, main, nranks=2)
        assert res.results[1] == (42, 42)


class TestTracing:
    def _traced_run(self, nranks=4):
        def main(comm):
            total = comm.allreduce(comm.rank, op=lambda a, b: a + b)
            if comm.rank == 0:
                comm.Send(np.arange(10.0), dest=1, tag=3)
            elif comm.rank == 1:
                comm.Recv(source=0, tag=3)
            return total

        return run_spmd(MACHINE, main, nranks=nranks, trace=True)

    def test_trace_disabled_by_default(self):
        def main(comm):
            return comm.bcast(comm.rank if comm.rank == 0 else None)

        res = run_spmd(MACHINE, main, nranks=2)
        assert res.trace is None

    def test_trace_records_events(self):
        res = self._traced_run()
        assert res.trace is not None
        assert len(res.trace.of_kind("send")) == len(res.trace.of_kind("recv"))
        assert len(res.trace.events) > 6

    def test_trace_is_causally_consistent(self):
        res = self._traced_run()
        assert check_event_causality(_dicts(res.trace.events)) == []

    def test_per_rank_view_is_time_ordered(self):
        res = self._traced_run()
        for rank in range(4):
            times = [e.time for e in res.trace.for_rank(rank)]
            assert times == sorted(times)

    def test_bytes_in_trace_match_metrics(self):
        res = self._traced_run()
        traced = sum(e.nbytes for e in res.trace.of_kind("send"))
        assert traced == res.metrics.bytes_sent

    def test_causality_detects_violations(self):
        from repro.cluster.trace import CommEvent, TraceLog

        log = TraceLog()
        log.record(CommEvent("send", 5.0, 0, 1, 0, 100))
        log.record(CommEvent("recv", 1.0, 1, 0, 0, 100))  # before the send!
        assert len(check_event_causality(_dicts(log.events))) == 1

    def test_causality_detects_orphan_recv(self):
        from repro.cluster.trace import CommEvent, TraceLog

        log = TraceLog()
        log.record(CommEvent("recv", 1.0, 1, 0, 0, 100))
        violations = check_event_causality(_dicts(log.events))
        assert any("no departed send" in v for v in violations)


class TestSpanLayer:
    """The observability layer's view of the same traced runs: absorbed
    events stay causal, collectives appear as per-rank spans, and the
    event dict form round-trips the CommEvent fields."""

    def _traced_run(self, nranks=4):
        return TestTracing._traced_run(self, nranks=nranks)

    def test_absorbed_events_stay_causal_at_span_layer(self):
        from repro.obs.spans import capture

        res = self._traced_run()
        with capture() as rec:
            rec.absorb_events(res.trace.events, None)
        assert len(rec.events) == len(res.trace.events)
        assert check_event_causality(rec.events) == []

    def test_comm_event_dict_roundtrips_fields(self):
        res = self._traced_run()
        for e in res.trace.events:
            d = e.as_dict()
            assert d == {"kind": e.kind, "time": e.time, "rank": e.rank,
                         "peer": e.peer, "tag": e.tag, "nbytes": e.nbytes}

    def test_collectives_record_spans_under_capture(self):
        from repro.obs.spans import capture

        with capture() as rec:
            res = self._traced_run()
        assert res is not None
        coll = rec.spans_of_kind("collective")
        # allreduce decomposes into reduce + bcast; all three names show
        # up, once per rank.
        names = {s.name for s in coll}
        assert {"allreduce", "reduce", "bcast"} <= names
        assert {s.rank for s in coll} == {0, 1, 2, 3}

    def test_collectives_record_nothing_when_disabled(self):
        from repro.obs.spans import Span, active

        assert active() is None
        before = Span.allocated
        self._traced_run()
        assert Span.allocated == before
