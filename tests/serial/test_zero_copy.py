"""Zero-copy array shipping in the serial layer."""
import numpy as np
import pytest

from repro.serial import (
    copy_stats,
    deserialize,
    ensure_contiguous,
    reset_copy_stats,
    serialize,
)
from repro.serial.arrays import pack_array, pack_array_into, unpack_array


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_copy_stats()
    yield
    reset_copy_stats()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(17.0),
            np.arange(12).reshape(3, 4),
            np.zeros((0, 5)),
            np.array(3.5),  # 0-d
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([1 + 2j, 3 - 4j]),
        ],
    )
    def test_pack_unpack(self, arr):
        buf = pack_array(arr)
        out, end = unpack_array(memoryview(buf))
        assert end == len(buf)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()

    def test_serializer_uses_same_encoding(self):
        arr = np.linspace(0.0, 1.0, 33)
        assert np.array_equal(deserialize(serialize(arr)), arr)
        assert np.float32(2.5) == deserialize(serialize(np.float32(2.5)))


class TestZeroCopy:
    def test_contiguous_slice_ships_without_copy(self):
        base = np.arange(100.0).reshape(20, 5)
        view = base[3:11]  # row slice of a C-contiguous array: still contiguous
        assert view.flags.c_contiguous and view.base is not None
        out = bytearray()
        pack_array_into(view, out)
        stats = copy_stats()
        assert stats["compacted"] == 0
        assert stats["zero_copy_bytes"] == view.nbytes
        restored, _ = unpack_array(memoryview(bytes(out)))
        assert restored.tobytes() == view.tobytes()

    def test_strided_view_is_compacted(self):
        base = np.arange(100.0).reshape(10, 10)
        view = base.T
        assert not view.flags.c_contiguous
        out = bytearray()
        pack_array_into(view, out)
        stats = copy_stats()
        assert stats["compacted"] == 1
        assert stats["compacted_bytes"] == view.nbytes
        restored, _ = unpack_array(memoryview(bytes(out)))
        assert restored.tobytes() == np.ascontiguousarray(view).tobytes()

    def test_serialize_counts_arrays(self):
        serialize({"a": np.arange(10.0), "b": (np.ones(3), 2)})
        assert copy_stats()["arrays"] == 2


class TestContiguityGate:
    """The buffer-view ship gate (Comm.Send, shared windows):
    contiguous data passes through untouched, anything else pays an
    explicit, *counted* compaction -- never a silent fallback."""

    def test_contiguous_passes_through_identically(self):
        arr = np.arange(24.0).reshape(4, 6)
        assert ensure_contiguous(arr) is arr
        assert copy_stats()["noncontiguous_compacted"] == 0

    def test_contiguous_row_slice_passes_through(self):
        view = np.arange(50.0).reshape(10, 5)[2:7]
        assert view.base is not None and view.flags.c_contiguous
        assert ensure_contiguous(view) is view
        assert copy_stats()["noncontiguous_compacted"] == 0

    @pytest.mark.parametrize(
        "make_view",
        [
            lambda a: a.T,  # transposed
            lambda a: a[::2],  # strided rows
            lambda a: a[:, 1:],  # strided columns
            lambda a: np.asfortranarray(a),  # Fortran order
        ],
    )
    def test_noncontiguous_views_are_compacted_and_counted(self, make_view):
        base = np.arange(64.0).reshape(8, 8)
        view = make_view(base)
        assert not view.flags.c_contiguous
        out = ensure_contiguous(view)
        assert out.flags.c_contiguous
        assert out.tobytes() == np.ascontiguousarray(view).tobytes()
        stats = copy_stats()
        assert stats["noncontiguous_compacted"] == 1
        assert stats["compacted_bytes"] == out.nbytes

    def test_comm_buffer_send_hits_the_gate(self):
        """Comm.Send routes every buffer payload through the gate: a
        strided view is compacted (and counted) before injection, and the
        receiver sees the compacted bytes."""
        from repro.cluster import MachineSpec, run_spmd

        base = np.arange(36.0).reshape(6, 6)

        def rank_fn(comm):
            if comm.rank == 0:
                comm.Send(base.T, 1)
                return None
            return comm.Recv(0).tobytes()

        res = run_spmd(MachineSpec(nodes=2, cores_per_node=1), rank_fn,
                       nranks=2)
        assert res.results[1] == np.ascontiguousarray(base.T).tobytes()
        assert copy_stats()["noncontiguous_compacted"] == 1
