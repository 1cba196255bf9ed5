"""Property-based tests for the simulated cluster (hypothesis).

Invariants: determinism of virtual timelines under arbitrary
communication patterns, byte conservation, collective correctness for
random payloads and machine shapes, and clock monotonicity.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import MachineSpec, run_spmd

machines = st.builds(
    MachineSpec,
    nodes=st.integers(1, 6),
    cores_per_node=st.integers(1, 4),
)


@st.composite
def ring_programs(draw):
    """A random ring-communication schedule: (rounds, compute weights)."""
    rounds = draw(st.integers(1, 4))
    nranks = draw(st.integers(2, 6))
    weights = draw(
        st.lists(
            st.floats(0, 0.01, allow_nan=False),
            min_size=nranks,
            max_size=nranks,
        )
    )
    return rounds, nranks, weights


class TestTimelineProperties:
    @given(ring_programs())
    @settings(max_examples=25, deadline=None)
    def test_ring_deterministic_and_causal(self, program):
        rounds, nranks, weights = program

        def main(comm):
            token = float(comm.rank)
            for _ in range(rounds):
                comm.compute(weights[comm.rank])
                comm.send(token, dest=(comm.rank + 1) % comm.size, tag=1)
                token = comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
            return token

        machine = MachineSpec(nodes=nranks, cores_per_node=1)
        r1 = run_spmd(machine, main, nranks=nranks, trace=True)
        r2 = run_spmd(machine, main, nranks=nranks)
        assert r1.final_clocks == r2.final_clocks
        from repro.obs.export import check_event_causality

        assert check_event_causality(
            [e.as_dict() for e in r1.trace.events]) == []
        # Every rank waited through `rounds` hops: clocks are positive.
        assert all(t > 0 for t in r1.final_clocks)

    @given(
        st.integers(2, 8),
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_allreduce_sums_any_payload(self, nranks, values):
        arr = np.array(values)

        def main(comm):
            return comm.allreduce(arr * (comm.rank + 1), op=lambda a, b: a + b)

        machine = MachineSpec(nodes=nranks, cores_per_node=1)
        res = run_spmd(machine, main, nranks=nranks)
        expected = arr * sum(range(1, nranks + 1))
        for r in res.results:
            np.testing.assert_allclose(r, expected, atol=1e-9)

    @given(st.integers(1, 8), st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_bytes_conserved_in_scatter_gather(self, nranks, payload):
        data = [np.arange(float(payload)) + i for i in range(nranks)]

        def main(comm):
            chunk = comm.scatter(data if comm.rank == 0 else None)
            return comm.gather(chunk.sum() if len(chunk) else 0.0)

        machine = MachineSpec(nodes=max(1, nranks), cores_per_node=1)
        res = run_spmd(machine, main, nranks=nranks)
        sent = sum(m.bytes_sent for m in res.metrics.per_rank)
        recvd = sum(m.bytes_received for m in res.metrics.per_rank)
        assert sent == recvd

    @given(machines, st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_clock_monotone_through_barriers(self, machine, nbarriers):
        nranks = machine.nodes

        def main(comm):
            marks = []
            for k in range(nbarriers):
                comm.compute(1e-4 * (comm.rank + 1))
                comm.barrier()
                marks.append(comm.clock.now)
            return marks

        res = run_spmd(machine, main, nranks=nranks)
        for marks in res.results:
            assert marks == sorted(marks)
        # After each barrier, every rank has the same lower bound: the
        # slowest rank's compute so far.
        finals = [m[-1] for m in res.results]
        assert max(finals) - min(finals) < 1e-3
