"""Transport conformance of the stencil sweep: rank 0 ships each member
its block and ghost rows ``radius * iterations`` deep in one work item,
the ranks run every iteration without a message and rank 0 gathers once,
so ``sim`` and ``local`` must agree on the value, the virtual makespan and
every byte and message -- with rows both under and over the
shared-window threshold -- and a deep sweep on forked ranks must leave
the host as it found it once their crew has retired."""
import os

import numpy as np
import pytest

from repro.cluster import MachineSpec
from repro.cluster.transport import SHM_MIN_BYTES, available_transports
from repro.runtime import triolet_runtime
from repro.testing.invariants import check_plane, checking
from tests.cluster.test_transport_local import _host_state, _on_its_own_thread

pytestmark = [pytest.mark.transport, pytest.mark.views]

needs_local = pytest.mark.skipif(
    "local" not in available_transports(nranks=5),
    reason="LocalTransport unavailable (no fork)",
)


def _kernel(radius):
    def kernel(x):
        m = len(x) - 2 * radius
        return sum((j + 1) * 0.1 * x[j:j + m] for j in range(2 * radius + 1))

    return kernel


def _sweep(transport, init, radius, ranks, iterations):
    machine = MachineSpec(nodes=ranks, cores_per_node=1, transport=transport)
    with checking(), triolet_runtime(machine) as rt:
        h = rt.distribute(init.copy())
        rt.stencil(h, radius=radius, kernel=_kernel(radius),
                   iterations=iterations)
        value = h.array.copy()
    check_plane(rt.plane)
    (sec,) = rt.sections
    per_rank = [(m.bytes_sent, m.bytes_received, m.messages_sent,
                 m.messages_received) for m in sec.metrics.per_rank]
    return (value.tobytes(), rt.elapsed, sec.bytes_shipped, sec.messages,
            per_rank, sec.data_plane)


def _sequential(init, radius, iterations):
    x, n = init.copy(), len(init)
    for _ in range(iterations):
        nxt = x.copy()
        nxt[radius:n - radius] = _kernel(radius)(x)
        x = nxt
    return x


@needs_local
class TestSweepParity:
    @pytest.mark.parametrize("iterations", [1, 4, 32])
    @pytest.mark.parametrize("ranks", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 3])
    def test_local_is_bit_equal_to_sim(self, radius, ranks, iterations):
        for n in (5, 64, 4099):
            init = np.random.default_rng(n).random(n)
            ref = _sweep("sim", init, radius, ranks, iterations)
            got = _sweep("local", init, radius, ranks, iterations)
            assert got == ref, n
            if n > 2 * radius:
                want = _sequential(init, radius, iterations)
                assert ref[0] == want.tobytes(), n

    @pytest.mark.parametrize("width", [8, SHM_MIN_BYTES // 8 + 64])
    def test_ghost_rows_under_and_over_the_segment_threshold(self, width):
        """Rows of 64 B travel in the pipe frame, rows of 32 KiB + through
        the pair's shared window; either way a member's ghost rows ride in
        its one work item."""
        init = np.random.default_rng(width).random((24, width))
        assert (init[0].nbytes >= SHM_MIN_BYTES) == (width > 8)
        ref = _sweep("sim", init, 1, 3, 4)
        got = _sweep("local", init, 1, 3, 4)
        assert got == ref
        assert ref[0] == _sequential(init, 1, 4).tobytes()
        # 3 member sides (rank 1 two, rank 2 one) x 4 rows, 1 x 4 deep
        assert ref[5]["halo_bytes"] == 3 * 4 * init[0].nbytes
        assert ref[3] == 2 * (3 - 1)  # work items and gathers only


@needs_local
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_deep_sweep_leaks_no_segment_no_zombie_and_no_descriptor():
    init = np.random.default_rng(0).random((96, SHM_MIN_BYTES // 8 + 64))
    before = _host_state()
    _on_its_own_thread(_sweep, "local", init, 1, 3, 32)  # its crew retires
    assert _host_state() == before
