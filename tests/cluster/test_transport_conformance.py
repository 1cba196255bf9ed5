"""Transport conformance: every available backend runs the same programs.

The matrix parametrizes over :func:`available_transports` (``sim``
always; ``local`` on POSIX; ``mpi`` only under an ``mpiexec`` world with
mpi4py installed -- it skips cleanly otherwise) and asserts the
cross-backend contract: identical results, identical *virtual* timing
(availability stamps are causal, computed from the cost model, never
from wall time), and identical driver-observable state for a full app
run.
"""
import functools

import numpy as np
import pytest

from repro import cluster
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster import MachineSpec, run_spmd
from repro.cluster.transport import SHM_MIN_BYTES, available_transports

pytestmark = pytest.mark.transport

TRANSPORTS = available_transports(nranks=4)


@pytest.fixture(params=TRANSPORTS + ["sim-run_to_block"])
def transport(request, monkeypatch):
    """Every backend, plus ``sim`` scheduled run-to-block: for that case
    every ``run_spmd`` call of the test passes ``run_to_block=True``, and
    the oracle below stays the free-running simulator."""
    name, _, run_to_block = request.param.partition("-")
    if run_to_block:
        monkeypatch.setitem(
            globals(), "run_spmd",
            functools.partial(cluster.run_spmd, run_to_block=True),
        )
    return name


def machine_for(transport: str, nodes: int = 4) -> MachineSpec:
    return MachineSpec(nodes=nodes, cores_per_node=1, transport=transport)


def sim_reference(rank_fn, nranks, **kw):
    """The same program on the sim backend (the conformance oracle)."""
    return cluster.run_spmd(
        machine_for("sim", nranks), rank_fn, nranks=nranks, **kw
    )


class TestPointToPoint:
    def test_echo(self, transport):
        def rank_fn(comm):
            if comm.rank == 0:
                for dst in range(1, comm.size):
                    comm.send({"ping": dst * 10}, dst, tag=1)
                return sorted(comm.recv(src, tag=2) for src in range(1, comm.size))
            got = comm.recv(0, tag=1)
            comm.send(got["ping"] + comm.rank, 0, tag=2)
            return got["ping"]

        res = run_spmd(machine_for(transport), rank_fn, nranks=4)
        ref = sim_reference(rank_fn, 4)
        assert res.results == ref.results
        assert res.results[0] == [11, 22, 33]
        assert res.makespan == ref.makespan
        assert res.final_clocks == ref.final_clocks

    def test_buffer_send_small_and_shm_sized(self, transport):
        """Buffer-protocol sends below and above the shared-memory
        threshold both round-trip bitwise."""
        small = np.arange(7.0)
        big = np.arange(SHM_MIN_BYTES // 8 + 64, dtype=np.float64)

        def rank_fn(comm):
            if comm.rank == 0:
                comm.Send(small, 1, tag=3)
                comm.Send(big, 1, tag=4)
                return None
            a = comm.Recv(0, tag=3)
            b = comm.Recv(0, tag=4)
            return (a.tobytes(), b.tobytes(), a.dtype.str, b.shape)

        res = run_spmd(machine_for(transport, nodes=2), rank_fn, nranks=2)
        a_bytes, b_bytes, dts, shape = res.results[1]
        assert a_bytes == small.tobytes()
        assert b_bytes == big.tobytes()
        assert dts == small.dtype.str
        assert shape == big.shape

    def test_message_matching_by_source_and_tag(self, transport):
        """Out-of-order (src, tag) consumption: per-sender FIFO holds."""

        def rank_fn(comm):
            if comm.rank == 0:
                comm.send("a1", 2, tag=1)
                comm.send("a2", 2, tag=1)
                comm.send("b", 2, tag=5)
                return None
            if comm.rank == 1:
                comm.send("c", 2, tag=1)
                return None
            late = comm.recv(0, tag=5)  # posted last, consumed first
            first = comm.recv(0, tag=1)
            other = comm.recv(1, tag=1)
            second = comm.recv(0, tag=1)
            return (late, first, second, other)

        res = run_spmd(machine_for(transport, nodes=3), rank_fn, nranks=3)
        assert res.results[2] == ("b", "a1", "a2", "c")


def assert_matches_sim(transport, rank_fn, nranks, **kw):
    """Run *rank_fn* on *transport* and on the oracle: values, virtual
    makespan, per-rank clocks and byte counts must be equal."""
    res = run_spmd(machine_for(transport, nranks), rank_fn, nranks=nranks, **kw)
    ref = sim_reference(rank_fn, nranks, **kw)
    assert res.results == ref.results
    assert res.makespan == ref.makespan
    assert res.final_clocks == ref.final_clocks
    assert res.metrics.bytes_sent == ref.metrics.bytes_sent
    assert res.metrics.messages_sent == ref.metrics.messages_sent
    return res


class TestBoundedWire:
    """Cases a bounded pipe can get wrong where an unbounded in-process
    queue cannot: every transport must finish them exactly like sim."""

    def test_large_serialized_exchange_before_either_recv(self, transport):
        """Both ranks ``send`` (serialized, not raw) 2 MiB to each other
        before either receives: neither may block on the other's read."""

        def rank_fn(comm):
            peer = 1 - comm.rank
            blob = np.full(1 << 18, comm.rank + 1.5)  # 2 MiB of float64
            comm.send({"from": comm.rank, "blob": blob}, peer, tag=2)
            got = comm.recv(peer, tag=2)
            return (got["from"], got["blob"].tobytes() == np.full(
                1 << 18, peer + 1.5).tobytes())

        res = assert_matches_sim(transport, rank_fn, 2)
        assert res.results == [(1, True), (0, True)]

    def test_flood_of_small_messages_both_ways(self, transport):
        """20 000 small messages each way, all posted before any is read."""
        n = 20_000

        def rank_fn(comm):
            peer = 1 - comm.rank
            for i in range(n):
                comm.send(i + comm.rank, peer, tag=i % 3)
            return sum(comm.recv(peer, tag=i % 3) for i in range(n))

        res = assert_matches_sim(transport, rank_fn, 2, real_timeout=120.0)
        base = n * (n - 1) // 2
        assert res.results == [base + n, base]

    def test_self_send(self, transport):
        def rank_fn(comm):
            comm.send(("me", comm.rank), comm.rank, tag=4)
            comm.Send(np.arange(SHM_MIN_BYTES // 8 + 1.0), comm.rank, tag=5)
            big = comm.Recv(comm.rank, tag=5)
            return comm.recv(comm.rank, tag=4), float(big.sum())

        res = assert_matches_sim(transport, rank_fn, 2)
        assert res.results[1][0] == ("me", 1)

    def test_out_of_order_tags_around_a_shm_sized_payload(self, transport):
        big = np.arange(SHM_MIN_BYTES // 8 + 64, dtype=np.float64)

        def rank_fn(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=1)
                comm.Send(big, 1, tag=2)
                comm.send(big[:5000], 1, tag=3)  # serialized, shm-sized too
                comm.send("last", 1, tag=1)
                return None
            c = comm.recv(0, tag=3)
            b = comm.Recv(0, tag=2)
            return (c.tobytes() == big[:5000].tobytes(), b.tobytes() == big.tobytes(),
                    comm.recv(0, tag=1), comm.recv(0, tag=1))

        res = assert_matches_sim(transport, rank_fn, 2)
        assert res.results[1] == (True, True, "first", "last")

    @pytest.mark.parametrize("nranks", [3, 4])
    def test_ring_and_collectives_at_more_than_two_ranks(self, transport, nranks):
        def rank_fn(comm):
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            comm.Send(np.full(SHM_MIN_BYTES // 8, float(comm.rank)), right, tag=6)
            comm.send([comm.rank] * 10, left, tag=7)
            a = comm.Recv(left, tag=6)
            b = comm.recv(right, tag=7)
            total = comm.allreduce(float(a[0]) + b[0], op=lambda x, y: x + y)
            return total, comm.allgather(comm.rank), comm.alltoall(
                [comm.rank * 10 + d for d in range(comm.size)])

        res = assert_matches_sim(transport, rank_fn, nranks)
        assert res.results[0][1] == list(range(nranks))

    def test_relay_behind_a_flood(self, transport):
        """Rank 0 awaits rank 1, which awaits rank 2, which is busy
        posting more to rank 0 than a pipe holds: a receiver that watched
        only its awaited source would deadlock all three."""
        piece = np.zeros(1024)  # 8 KiB serialized: stays on the pipe

        def rank_fn(comm):
            if comm.rank == 2:
                for _ in range(64):
                    comm.send(piece, 0, tag=8)
                comm.send("go", 1, tag=9)
                return None
            if comm.rank == 1:
                comm.send(comm.recv(2, tag=9) + "!", 0, tag=9)
                return None
            word = comm.recv(1, tag=9)
            return word, sum(comm.recv(2, tag=8).size for _ in range(64))

        res = assert_matches_sim(transport, rank_fn, 3, real_timeout=20.0)
        assert res.results[0] == ("go!", 64 * 1024)


class TestCollectives:
    def test_scatter_gather(self, transport):
        def rank_fn(comm):
            chunk = comm.scatter(
                [np.full(4, r, dtype=np.int64) for r in range(comm.size)]
                if comm.rank == 0
                else None,
                root=0,
            )
            out = comm.gather(int(chunk.sum()), root=0)
            return out

        res = run_spmd(machine_for(transport), rank_fn, nranks=4)
        ref = sim_reference(rank_fn, 4)
        assert res.results[0] == [0, 4, 8, 12]
        assert res.results == ref.results
        assert res.makespan == ref.makespan

    def test_barrier_and_allreduce(self, transport):
        def rank_fn(comm):
            comm.barrier()
            total = comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
            comm.barrier()
            return total

        res = run_spmd(machine_for(transport), rank_fn, nranks=4)
        ref = sim_reference(rank_fn, 4)
        assert res.results == [10, 10, 10, 10]
        assert res.makespan == ref.makespan


class TestHandles:
    def test_handle_round_trip_ships_id_not_rows(self, transport):
        """A DistArray handle crosses the wire as a few-byte id; the
        receiving rank resolves the same rows."""
        from repro.data.plane import DataPlane
        from repro.serial import serialize

        plane = DataPlane()
        data = np.arange(64.0).reshape(16, 4)
        handle = plane.register(data, "block")
        # The handle itself serializes small -- ids, not rows.
        assert len(serialize(handle)) < data.nbytes / 4

        def rank_fn(comm):
            if comm.rank == 0:
                comm.send(handle, 1, tag=7)
                return None
            got = comm.recv(0, tag=7)
            return (got.array_id, got.array.tobytes())

        res = run_spmd(machine_for(transport, nodes=2), rank_fn, nranks=2)
        got_id, got_bytes = res.results[1]
        assert got_id == handle.array_id
        assert got_bytes == data.tobytes()


class TestFullApp:
    @pytest.mark.parametrize("app", ["mriq", "sgemm", "tpacf", "cutcp"])
    def test_app_bit_identical_to_sim(self, transport, app):
        """A whole driver run -- partitioning, data plane, collectives,
        meters -- is bit-identical across backends."""
        if transport == "sim":
            pytest.skip("sim is the oracle")
        spec = APPS[app]
        problem = spec.make_problem(**spec.sandbox_params)
        costs = costs_for(app, "triolet", problem)

        def run(tr):
            from repro.bench import reset_run_state

            reset_run_state()
            m = machine_for(tr, nodes=2)
            return spec.runners["triolet"](problem, m, costs)

        ref = run("sim")
        got = run(transport)
        assert got.ok and ref.ok
        if isinstance(ref.value, dict):
            assert set(ref.value) == set(got.value)
            for k in ref.value:
                assert np.asarray(got.value[k]).tobytes() == np.asarray(
                    ref.value[k]
                ).tobytes()
        else:
            assert np.asarray(got.value).tobytes() == np.asarray(
                ref.value
            ).tobytes()
        # The virtual timeline and the merged driver state match too.
        assert got.elapsed == ref.elapsed
        assert got.bytes_shipped == ref.bytes_shipped
        assert got.detail["meter"] == ref.detail["meter"]
        assert got.detail["data_plane"] == ref.detail["data_plane"]


class TestErrors:
    def test_rank_error_propagates(self, transport):
        def rank_fn(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()
            return comm.rank

        with pytest.raises(ValueError, match="exploded"):
            run_spmd(machine_for(transport, nodes=2), rank_fn, nranks=2,
                     real_timeout=20.0)
