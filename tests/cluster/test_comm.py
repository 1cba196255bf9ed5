"""Point-to-point communication tests on the simulated cluster."""
import numpy as np
import pytest

from repro.cluster import (
    BufferOverflowError,
    MachineSpec,
    RuntimeLimits,
    run_spmd,
)
from repro.cluster.machine import NetworkModel

SMALL = MachineSpec(nodes=4, cores_per_node=2)


class TestSendRecv:
    def test_object_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        res = run_spmd(SMALL, main, nranks=2)
        assert res.results[1] == {"a": 7, "b": 3.14}

    def test_array_buffer_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(100, dtype=np.float64), dest=1)
                return None
            return comm.Recv(source=0)

        res = run_spmd(SMALL, main, nranks=2)
        np.testing.assert_array_equal(res.results[1], np.arange(100.0))

    def test_buffer_recv_is_private_copy(self):
        src = np.arange(10.0)

        def main(comm):
            if comm.rank == 0:
                comm.Send(src, dest=1)
                return None
            got = comm.Recv(source=0)
            got[0] = -1.0
            return got[0]

        run_spmd(SMALL, main, nranks=2)
        assert src[0] == 0.0

    def test_messages_not_overtaking_same_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(5)]

        res = run_spmd(SMALL, main, nranks=2)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("tag2", dest=1, tag=2)
                comm.send("tag1", dest=1, tag=1)
                return None
            # Receive in the opposite order of sending.
            a = comm.recv(source=0, tag=1)
            b = comm.recv(source=0, tag=2)
            return (a, b)

        res = run_spmd(SMALL, main, nranks=2)
        assert res.results[1] == ("tag1", "tag2")

    def test_bad_dest_raises(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=99)

        with pytest.raises(ValueError):
            run_spmd(SMALL, main, nranks=2)


class TestVirtualTime:
    def test_compute_advances_only_local_clock(self):
        def main(comm):
            if comm.rank == 0:
                comm.compute(5.0)
            return comm.clock.now

        res = run_spmd(SMALL, main, nranks=2)
        assert res.results[0] == pytest.approx(5.0)
        assert res.results[1] == pytest.approx(0.0)
        assert res.makespan == pytest.approx(5.0)

    def test_recv_waits_for_sender(self):
        def main(comm):
            if comm.rank == 0:
                comm.compute(1.0)
                comm.send("x", dest=1)
                return comm.clock.now
            comm.recv(source=0)
            return comm.clock.now

        res = run_spmd(SMALL, main, nranks=2)
        # Receiver finishes after the sender's 1s of compute plus latency.
        assert res.results[1] > 1.0
        assert res.results[1] >= res.results[0]

    def test_determinism_across_runs(self):
        def main(comm):
            token = comm.rank
            for _ in range(3):
                comm.send(token, dest=(comm.rank + 1) % comm.size, tag=7)
                token = comm.recv(source=(comm.rank - 1) % comm.size, tag=7)
            comm.compute(0.001 * comm.rank)
            return comm.clock.now

        r1 = run_spmd(SMALL, main, nranks=4)
        r2 = run_spmd(SMALL, main, nranks=4)
        assert r1.final_clocks == r2.final_clocks
        assert r1.makespan == r2.makespan

    def test_bigger_message_costs_more_time(self):
        def main(nbytes, comm):
            if comm.rank == 0:
                comm.Send(np.zeros(nbytes // 8), dest=1)
                return None
            comm.Recv(source=0)
            return comm.clock.now

        small = run_spmd(SMALL, lambda c: main(8_000, c), nranks=2)
        large = run_spmd(SMALL, lambda c: main(8_000_000, c), nranks=2)
        assert large.results[1] > small.results[1]

    def test_intra_node_cheaper_than_inter_node(self):
        machine = MachineSpec(nodes=2, cores_per_node=2)

        def main(peer, comm):
            arr = np.zeros(100_000)
            if comm.rank == 0:
                comm.Send(arr, dest=peer)
                return None
            if comm.rank == peer:
                comm.Recv(source=0)
                return comm.clock.now
            return None

        # ranks 0,1 on node 0; ranks 2,3 on node 1 (2 ranks per node)
        intra = run_spmd(machine, lambda c: main(1, c), nranks=4, ranks_per_node=2)
        inter = run_spmd(machine, lambda c: main(2, c), nranks=4, ranks_per_node=2)
        assert intra.results[1] < inter.results[2]


class TestLimitsAndErrors:
    def test_buffer_overflow_raised(self):
        limits = RuntimeLimits(max_message_bytes=1000)

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(10_000), dest=1)
            else:
                comm.Recv(source=0)

        with pytest.raises(BufferOverflowError):
            run_spmd(SMALL, main, nranks=2, limits=limits)

    def test_rank_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom on rank 1")
            comm.recv(source=1)  # would otherwise block forever

        with pytest.raises(RuntimeError, match="boom on rank 1"):
            run_spmd(SMALL, main, nranks=2)

    def test_too_many_ranks_for_machine(self):
        def main(comm):
            return None

        with pytest.raises(ValueError):
            run_spmd(MachineSpec(nodes=2, cores_per_node=2), main, nranks=5)


class TestMetrics:
    def test_bytes_counted(self):
        payload = np.zeros(1000)  # 8000 raw bytes

        def main(comm):
            if comm.rank == 0:
                comm.Send(payload, dest=1)
            else:
                comm.Recv(source=0)

        res = run_spmd(SMALL, main, nranks=2)
        assert res.metrics.per_rank[0].bytes_sent >= 8000
        assert res.metrics.per_rank[1].bytes_received >= 8000
        assert res.metrics.messages_sent == 1

    def test_alloc_cost_hook(self):
        def main(comm):
            comm.alloc(1_000_000)
            return comm.clock.now

        res = run_spmd(
            SMALL, main, nranks=1, alloc_cost=lambda nbytes: nbytes * 1e-9
        )
        assert res.results[0] == pytest.approx(1e-3)
        assert res.metrics.per_rank[0].gc_time == pytest.approx(1e-3)
        assert res.metrics.alloc_bytes == 1_000_000

    def test_negative_alloc_cost_rejected(self):
        def main(comm):
            comm.alloc(1_000)

        with pytest.raises(ValueError, match="negative time"):
            run_spmd(SMALL, main, nranks=1, alloc_cost=lambda nbytes: -1e-6)


class TestMachineSpec:
    def test_paper_machine_shape(self):
        from repro.cluster.machine import PAPER_MACHINE

        assert PAPER_MACHINE.total_cores == 128

    def test_link_selection(self):
        m = MachineSpec(nodes=2, cores_per_node=2)
        assert m.link(0, 0) is m.shm
        assert m.link(0, 1) is m.net

    def test_scaled_preserves_constants(self):
        m = MachineSpec(nodes=8, cores_per_node=16, net=NetworkModel(latency=1.0))
        m2 = m.scaled(nodes=2)
        assert m2.nodes == 2 and m2.cores_per_node == 16
        assert m2.net.latency == 1.0

    @pytest.mark.parametrize("bad", [
        {"latency": -1e-6}, {"overhead": -1e-6}, {"bandwidth": 0.0},
        {"bandwidth": -1.0e9},
    ])
    def test_invalid_link_rejected(self, bad):
        with pytest.raises(ValueError, match="a link needs"):
            NetworkModel(**bad)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(nodes=0)
