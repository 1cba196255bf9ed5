"""Block-copy serialization for numpy arrays.

The paper (§3.4): "Since the majority of serialized data typically resides
in pointer-free arrays, such arrays are serialized using a block copy to
minimize serialization time."

An array is encoded as a small fixed header (dtype string, number of
dimensions, shape) followed by the raw C-contiguous buffer.  A
C-contiguous array -- in particular the row-slice views the §3.5
partition layer produces -- is appended to the output buffer as a
zero-copy ``memoryview`` of its data (no ``tobytes()`` intermediate);
Fortran-ordered and strided views are made contiguous first, and that
compaction is counted in :func:`copy_stats` and charged to the caller
through :func:`array_payload_bytes` so the cost model sees it.
"""
from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np

# Header layout: dtype-string length (H), ndim (B), then shape as q's.
_HEADER_FMT = "<HB"
_HEADER = struct.Struct(_HEADER_FMT)
#: dtype string -> dtype, as arrays are decoded (a handful per program)
_DTYPES: dict = {}


def new_copy_stats() -> dict:
    """A fresh, zeroed copy-counter dict (see :func:`use_copy_stats`)."""
    return {
        "arrays": 0,  # arrays packed
        "zero_copy_bytes": 0,  # payload bytes appended as buffer views
        "compacted": 0,  # non-contiguous arrays that needed a copy
        "compacted_bytes": 0,
        # non-contiguous views compacted at the buffer-view *ship* gate
        # (Comm.Send, shared windows): gpaw's contiguity rule -- a
        # buffer send requires contiguous data, so strided views pay an
        # explicit compaction copy instead of silently degrading to a
        # pickled/element-wise path.
        "noncontiguous_compacted": 0,
    }


#: The process-default counter set; a resident server scopes its own
#: with :func:`use_copy_stats` instead of resetting this between jobs.
_GLOBAL_STATS = new_copy_stats()
_stats = _GLOBAL_STATS


@contextmanager
def use_copy_stats(stats: dict):
    """Install *stats* as the active copy-counter sink.

    A plain module-global swap (not a context variable) so counters
    tallied from simulated rank threads land in the same dict the
    installing driver reads.
    """
    global _stats
    prev = _stats
    _stats = stats
    try:
        yield stats
    finally:
        _stats = prev


def copy_stats() -> dict:
    """Serialization copy counters (see :func:`reset_copy_stats`)."""
    return dict(_stats)


def merge_copy_stats(delta: dict) -> None:
    """Fold counters tallied in a ``local`` member (carried back through
    ``rank_extras``) into the active set, as ``sim`` threads do directly."""
    for k, v in delta.items():
        _stats[k] += v


def reset_copy_stats() -> None:
    """Zero the *active* counter set (per-run compatibility shim)."""
    for k in _stats:
        _stats[k] = 0


def ensure_contiguous(arr: np.ndarray) -> np.ndarray:
    """Contiguity gate for the zero-copy buffer ship paths.

    Buffer-protocol sends (``Comm.Send``, shared windows) move one
    contiguous block.  A C-contiguous array
    passes through untouched; any other layout -- Fortran order, strided
    or transposed views -- is compacted with an explicit copy, counted
    under ``copy_stats()["noncontiguous_compacted"]``, and never falls
    back to a pickled element-wise encoding.
    """
    if arr.flags.c_contiguous:
        return arr
    a = np.ascontiguousarray(arr)
    _stats["noncontiguous_compacted"] += 1
    _stats["compacted_bytes"] += a.nbytes
    return a


def pack_array_into(arr: np.ndarray, out: bytearray) -> None:
    """Append *arr*'s encoding to *out*, zero-copy for contiguous data.

    The payload of a C-contiguous array is appended directly from its
    buffer; only non-contiguous views pay a compaction copy first.
    """
    a = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
    _stats["arrays"] += 1
    if a is not arr:
        _stats["compacted"] += 1
        _stats["compacted_bytes"] += a.nbytes
    dt = a.dtype.str.encode("ascii")
    out += struct.pack(_HEADER_FMT, len(dt), a.ndim) + dt
    out += struct.pack("<%dq" % a.ndim, *a.shape)
    if a.nbytes:
        out += memoryview(a).cast("B")
        _stats["zero_copy_bytes"] += a.nbytes


def pack_array(arr: np.ndarray) -> bytes:
    """Serialize *arr* to bytes: header + one block copy of the buffer."""
    out = bytearray()
    pack_array_into(arr, out)
    return bytes(out)


def unpack_array(buf: memoryview, offset: int = 0) -> tuple[np.ndarray, int]:
    """Deserialize an array from *buf* at *offset*.

    Returns the array and the offset one past its encoding.  The array is a
    fresh writable copy (a receiver owns its message payload).
    """
    dtlen, ndim = _HEADER.unpack_from(buf, offset)
    offset += _HEADER.size
    dtype = _DTYPES.get(dt := str(buf[offset : offset + dtlen], "ascii"))
    if dtype is None:
        dtype = _DTYPES[dt] = np.dtype(dt)
    offset += dtlen
    shape = struct.unpack_from("<%dq" % ndim, buf, offset)
    offset += 8 * ndim
    count = 1
    for s in shape:
        count *= s
    nbytes = count * dtype.itemsize
    arr = np.frombuffer(buf[offset : offset + nbytes], dtype=dtype).copy()
    return (arr if ndim == 1 else arr.reshape(shape)), offset + nbytes


def array_payload_bytes(arr: np.ndarray) -> int:
    """Wire size of *arr*: raw data plus the (tiny) header."""
    dt = arr.dtype.str.encode("ascii")
    return (
        struct.calcsize(_HEADER_FMT)
        + len(dt)
        + 8 * arr.ndim
        + arr.size * arr.dtype.itemsize
    )
