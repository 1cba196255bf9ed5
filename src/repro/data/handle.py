"""DistArray handles and handle-backed iterator sources.

A :class:`DistArray` is a first-class handle to an array that the data
plane has placed across rank stores.  The handle itself is tiny -- an id
plus metadata -- and that is all that ever crosses the simulated wire:
it serializes as its id (a few bytes), the way Triolet serializes a
pointer to global data as segment + offset (paper §3.4).  The array's
*bytes* move only through explicit data-plane shipping operations, at
section boundaries, at most once per rank (§3.5 decoupling of data
distribution from work distribution).

A :class:`HandleSource` is the iterator-side view: a ``DataSource`` that
names a half-open row interval of a handle.  Slicing it is index
arithmetic -- no bytes are touched -- and ``context()`` resolves against
the executing rank's :class:`~repro.data.store.RankStore` (bound in a
context variable by the runtime), falling back to the master copy on the
main rank.
"""
from __future__ import annotations

import contextlib
import contextvars
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.domains import Seq
from repro.core.encodings import indexer as _ix
from repro.core.sources import DataSource
from repro.serial.closures import closure, set_env_resolver
from repro.serial.serializer import (
    SerializationError,
    _pack_varint,
    _unpack_varint,
    register_type,
)


class MissingShardError(RuntimeError):
    """A rank touched handle data that the plane never shipped to it."""


# Master handle registry.  All simulated ranks share the interpreter, so
# one registry faithfully models "every node knows the handle metadata";
# only store contents are per-rank.  Weak values: a handle (and its
# master array) lives as long as some plane or program references it,
# not as long as the process.
_HANDLES: "weakref.WeakValueDictionary[int, DistArray]" = (
    weakref.WeakValueDictionary()
)
_next_id = 0
_id_lock = threading.Lock()

#: The executing rank's store, bound by the runtime for ranks > 0 while a
#: parallel task runs.  Unbound (None) means "main rank": resolve against
#: the master copy.
_CURRENT_STORE: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "repro_data_store", default=None
)

LAYOUTS = ("block", "block2d", "replicated")


def current_store():
    return _CURRENT_STORE.get()


@contextlib.contextmanager
def bind_store(store):
    """Bind *store* as the executing rank's store (no-op for ``None``)."""
    if store is None:
        yield
        return
    token = _CURRENT_STORE.set(store)
    try:
        yield
    finally:
        _CURRENT_STORE.reset(token)


def lookup_handle(array_id: int) -> "DistArray":
    h = _HANDLES.get(array_id)
    if h is None:
        raise SerializationError(f"unknown DistArray id: {array_id}")
    return h


class DistArray:
    """Handle to an array resident across rank stores.

    Supports the iterable surface the apps need -- ``len``, ``shape``,
    ``dtype``, and the ``__triolet_idx__`` protocol that makes
    ``tri.iterate``/``tri.rows`` build handle-backed indexers -- but is
    *not* an ndarray: element access goes through :meth:`resolve` so it
    always lands on rank-local data.
    """

    __slots__ = ("array_id", "array", "layout", "__weakref__")

    def __init__(self, array: np.ndarray, layout: str = "block",
                 array_id: int | None = None):
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
        arr = np.asarray(array)
        if arr.ndim == 0:
            raise ValueError("cannot distribute a 0-d array")
        global _next_id
        with _id_lock:
            if array_id is None:
                array_id = _next_id
                _next_id += 1
            elif array_id in _HANDLES:
                raise ValueError(f"DistArray id already in use: {array_id}")
            self.array_id = array_id
            self.array = arr
            self.layout = layout
            _HANDLES[array_id] = self

    # -- array-like surface -------------------------------------------------
    def __len__(self) -> int:
        return len(self.array)

    @property
    def shape(self):
        return self.array.shape

    @property
    def dtype(self):
        return self.array.dtype

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def row_nbytes(self) -> int:
        """Bytes per outer row (the plane's shipping unit)."""
        n = len(self.array)
        return self.array.nbytes // n if n else self.array.itemsize

    def resolve(self) -> np.ndarray:
        """The full array as seen from the executing rank."""
        store = _CURRENT_STORE.get()
        if store is None:
            return self.array
        return store.view(self.array_id, 0, len(self.array))

    def __triolet_idx__(self) -> "_ix.Idx":
        """Iterator protocol hook: a handle-backed indexer over the rows."""
        return _ix.Idx(
            Seq(len(self.array)),
            closure(_ix._extract_array),
            HandleSource(self.array_id, 0, len(self.array)),
            closure(_ix._bulk_array),
        )

    def __reduce__(self):
        # Pickled -- in a program sent to a rank process -- a handle is its
        # metadata: the master copy never leaves the driver.
        return _handle, (self.array_id, self.shape, self.dtype.str, self.layout)

    def __repr__(self) -> str:
        return (f"DistArray(id={self.array_id}, shape={self.array.shape}, "
                f"dtype={self.array.dtype}, layout={self.layout!r})")


def _handle(aid: int, shape: tuple, dtype: str, layout: str) -> DistArray:
    """Handle *aid* as this process knows it, or a stand-in with its
    metadata whose ``array`` holds no rows (a zero-stride view)."""
    h = _HANDLES.get(aid)
    if h is None:
        dt = np.dtype(dtype)
        h = DistArray(np.ndarray(shape, dt, bytes(dt.itemsize), 0, (0,) * len(shape)),
                      layout, aid)
    return h


def drop_handles() -> None:
    """Forget all handles (test hygiene)."""
    _HANDLES.clear()


@dataclass(frozen=True)
class HandleSource(DataSource):
    """A half-open row interval ``[lo, hi)`` of a :class:`DistArray`.

    Ships as a fixed-width id plus two varints; the referenced rows never
    travel with the iterator.  ``context()`` resolves on the executing
    rank's store.  (The id is fixed-width deliberately: handle ids grow
    monotonically for the life of the process, and a varint id would make
    a section's wire bytes -- and so its virtual time -- depend on how
    many handles earlier runs created.)
    """

    array_id: int
    lo: int
    hi: int

    def context(self):
        handle = lookup_handle(self.array_id)
        store = _CURRENT_STORE.get()
        if store is None or self.hi <= self.lo:
            # Main rank, or a valid empty block (ranks > elements): a
            # zero-length view carries dtype/shape only, never shard data.
            return handle.array[self.lo:self.hi]
        return store.view(self.array_id, self.lo, self.hi)

    def slice_outer(self, lo: int, hi: int) -> "HandleSource":
        n = self.hi - self.lo
        if not (0 <= lo <= hi <= n):
            raise ValueError(f"slice [{lo}, {hi}) out of bounds for extent {n}")
        return HandleSource(self.array_id, self.lo + lo, self.lo + hi)

    def wire_size(self) -> int:
        return 24  # type tag + three varints, give or take


def _encode_handle_source(obj: HandleSource, out: bytearray) -> None:
    out += struct.pack("<Q", obj.array_id)
    _pack_varint(obj.lo, out)
    _pack_varint(obj.hi, out)


def _decode_handle_source(buf: memoryview, offset: int):
    (aid,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    lo, offset = _unpack_varint(buf, offset)
    hi, offset = _unpack_varint(buf, offset)
    return HandleSource(aid, lo, hi), offset


register_type(
    "repro.HandleSource", HandleSource,
    _encode_handle_source, _decode_handle_source,
)


def _encode_dist_array(obj: DistArray, out: bytearray) -> None:
    out += struct.pack("<Q", obj.array_id)


def _decode_dist_array(buf: memoryview, offset: int):
    (aid,) = struct.unpack_from("<Q", buf, offset)
    return lookup_handle(aid), offset + 8


register_type("repro.DistArray", DistArray, _encode_dist_array, _decode_dist_array)


def _resolve_handle(entry: DistArray) -> np.ndarray:
    return entry.resolve()


# Closure environments carrying handles resolve to rank-local views at
# call time (replicated-layout use: big read-only arrays in closure envs).
set_env_resolver((DistArray,), _resolve_handle)
