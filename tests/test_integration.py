"""Cross-module integration tests: ledgers, conservation, consistency.

These exercise whole flows (skeletons -> runtime -> simulated cluster ->
metrics) and assert the invariants the figures depend on: bytes are
conserved between senders and receivers, the program clock equals the sum
of section makespans, parallel results equal sequential results for the
same pipeline, and virtual timelines are causal.
"""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import MachineSpec, run_spmd
from repro.obs.export import check_event_causality
from repro.runtime import CostContext, triolet_runtime
from repro.serial import register_function

MACHINE = MachineSpec(nodes=4, cores_per_node=4)


@register_function
def sq(x):
    return x * x


@register_function
def pos(x):
    return x > 0


@register_function
def spread(x):
    return np.arange(float(int(x) % 4))


class TestLedgerConsistency:
    def test_bytes_conserved(self):
        def main(comm):
            comm.allreduce(np.arange(100.0), op=lambda a, b: a + b)
            return None

        res = run_spmd(MACHINE, main, nranks=4)
        sent = sum(m.bytes_sent for m in res.metrics.per_rank)
        received = sum(m.bytes_received for m in res.metrics.per_rank)
        assert sent == received
        msgs_out = sum(m.messages_sent for m in res.metrics.per_rank)
        msgs_in = sum(m.messages_received for m in res.metrics.per_rank)
        assert msgs_out == msgs_in

    def test_program_clock_is_sum_of_sections(self):
        xs = np.arange(1000.0)
        with triolet_runtime(MACHINE) as rt:
            tri.sum(tri.par(xs))
            tri.sum(tri.localpar(xs))
            rt.run_sequential(lambda: tri.sum(xs))
        assert rt.elapsed == pytest.approx(
            sum(s.makespan for s in rt.sections)
        )

    def test_makespan_at_least_any_rank_time(self):
        def main(comm):
            comm.compute(0.01 * (comm.rank + 1))
            comm.barrier()
            return None

        res = run_spmd(MACHINE, main, nranks=4)
        assert res.makespan == pytest.approx(max(res.final_clocks))
        assert all(res.makespan >= t for t in res.final_clocks)

    def test_traced_runtime_sections_are_causal(self):
        def main(comm):
            chunk = comm.scatter(
                [np.arange(50.0) + i for i in range(comm.size)]
                if comm.rank == 0
                else None
            )
            return comm.reduce(chunk.sum(), op=lambda a, b: a + b, root=0)

        res = run_spmd(MACHINE, main, nranks=4, trace=True)
        assert check_event_causality(
            [e.as_dict() for e in res.trace.events]) == []


class TestParallelEqualsSequential:
    """The paper's core promise: hints change performance, not meaning."""

    PIPELINES = {
        "map-sum": lambda it: tri.sum(tri.map(sq, it)),
        "filter-sum": lambda it: tri.sum(tri.filter(pos, it)),
        "concat-count": lambda it: tri.count(tri.concat_map(spread, it)),
        "filter-of-map-histogram": lambda it: tri.histogram(
            5, tri.map(lambda x: int(abs(x)) % 5, tri.filter(pos, it))
        ),
        "group": lambda it: tri.group_reduce(
            lambda x: int(x) % 3, lambda a, b: a + b, it
        ),
    }

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_hint_invariance(self, name):
        consume = self.PIPELINES[name]
        xs = np.arange(317.0) - 158.0  # odd size, positive and negative
        seq_result = consume(tri.iterate(xs))
        with triolet_runtime(MACHINE):
            par_result = consume(tri.par(xs))
            local_result = consume(tri.localpar(xs))
        if isinstance(seq_result, np.ndarray):
            np.testing.assert_allclose(par_result, seq_result)
            np.testing.assert_allclose(local_result, seq_result)
        else:
            assert par_result == seq_result
            assert local_result == seq_result

    def test_hint_invariance_across_machine_shapes(self):
        xs = np.arange(100.0) - 50.0
        seq = tri.sum(tri.filter(pos, tri.iterate(xs)))
        for nodes in (1, 2, 3, 5, 8):
            for cores in (1, 3, 16):
                with triolet_runtime(MachineSpec(nodes=nodes, cores_per_node=cores)):
                    assert tri.sum(tri.filter(pos, tri.par(xs))) == seq


class TestEndToEndPipelines:
    def test_chained_sections_share_data(self):
        """Output of one parallel section feeds the next."""
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(400)
        with triolet_runtime(MACHINE) as rt:
            squared = tri.build(tri.map(sq, tri.par(xs)))
            total = tri.sum(tri.par(squared))
        assert total == pytest.approx(float((xs**2).sum()))
        assert len(rt.sections) == 2

    def test_mixed_hints_in_one_program(self):
        xs = np.arange(500.0)
        with triolet_runtime(MACHINE) as rt:
            a = tri.sum(tri.par(xs))
            b = tri.sum(tri.localpar(xs))
            c = tri.sum(tri.iterate(xs))  # sequential, no section
        assert a == b == c
        hints = [s.hint for s in rt.sections]
        assert hints == ["par", "localpar"]

    def test_virtual_time_monotone_in_work(self):
        costs = CostContext(unit_time=1e-6)
        times = []
        for n in (1000, 2000, 4000):
            with triolet_runtime(MACHINE, costs=costs) as rt:
                tri.sum(tri.map(sq, tri.par(np.arange(float(n)))))
            times.append(rt.elapsed)
        assert times[0] < times[1] < times[2]
