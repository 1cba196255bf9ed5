"""Self-describing binary serializer with a type registry.

Triolet's compiler "automatically generates serialization code from the
definitions of algebraic data types" (§3.4).  The Python analogue: any
dataclass decorated with :func:`serializable` gets field-by-field
serialization derived from its declaration, registered under a stable type
tag.  Built-in containers, scalars and numpy arrays are handled natively;
numpy arrays take the block-copy fast path of :mod:`repro.serial.arrays`.

The format is intentionally simple (one tag byte per value) so the byte
counts reported to the simulated network are honest and reproducible --
this module never falls back to ``pickle``.
"""
from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable

import numpy as np

from repro.serial.arrays import pack_array_into, unpack_array


class SerializationError(TypeError):
    """Raised when a value has no registered serialization."""


# Tag bytes.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_COMPLEX = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
_T_ARRAY = 0x0B
_T_REGISTERED = 0x0C
_T_NPSCALAR = 0x0D
_T_SET = 0x0E
_T_FROZENSET = 0x0F
_T_SLICE = 0x10

# name -> (encoder(obj, out), decoder(buf, offset) -> (obj, offset))
_REGISTRY: dict[str, tuple[Callable, Callable]] = {}
# python type -> registered name (for encoding dispatch)
_TYPE_TO_NAME: dict[type, str] = {}


def register_type(
    name: str,
    typ: type,
    encode: Callable[[Any, bytearray], None],
    decode: Callable[[memoryview, int], tuple[Any, int]],
) -> None:
    """Register a custom type under a stable wire *name*."""
    if name in _REGISTRY and _TYPE_TO_NAME.get(typ) != name:
        raise ValueError(f"serializer type name already registered: {name!r}")
    _REGISTRY[name] = (encode, decode)
    _TYPE_TO_NAME[typ] = name


def serializable(cls):
    """Class decorator: derive serialization for a dataclass ADT.

    Mirrors Triolet's compiler-generated serialization for algebraic data
    types.  Fields are encoded in declaration order with the generic
    encoder, so they may hold arrays, containers, or other serializable
    ADTs.
    """
    if not dataclasses.is_dataclass(cls):
        cls = dataclasses.dataclass(cls)
    fields = [f.name for f in dataclasses.fields(cls)]
    name = f"{cls.__module__}.{cls.__qualname__}"

    def encode(obj, out: bytearray) -> None:
        for f in fields:
            _encode(getattr(obj, f), out)

    def decode(buf: memoryview, offset: int):
        values = []
        for _ in fields:
            v, offset = _decode(buf, offset)
            values.append(v)
        return cls(*values), offset

    register_type(name, cls, encode, decode)
    cls.__serial_name__ = name
    return cls


def _pack_varint(n: int, out: bytearray) -> None:
    """Unsigned LEB128."""
    if n < 0:
        raise ValueError("varint must be non-negative")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _unpack_varint(buf: memoryview, offset: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        b = buf[offset]
        offset += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            return result, offset
        shift += 7


def _encode_str(s: str, out: bytearray) -> None:
    data = s.encode("utf-8")
    _pack_varint(len(data), out)
    out += data


def _decode_str(buf: memoryview, offset: int) -> tuple[str, int]:
    n = buf[offset]
    if n < 0x80:  # a one-byte length: every string the e2e workloads send
        offset += 1
    else:
        n, offset = _unpack_varint(buf, offset)
    return bytes(buf[offset : offset + n]).decode("utf-8"), offset + n


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is False:
        out.append(_T_FALSE)
    elif obj is True:
        out.append(_T_TRUE)
    elif type(obj) is int:
        out.append(_T_INT)
        _pack_varint(_zigzag(obj), out)
    elif type(obj) is float:
        out.append(_T_FLOAT)
        out += struct.pack("<d", obj)
    elif type(obj) is complex:
        out.append(_T_COMPLEX)
        out += struct.pack("<dd", obj.real, obj.imag)
    elif type(obj) is str:
        out.append(_T_STR)
        _encode_str(obj, out)
    elif type(obj) is bytes:
        out.append(_T_BYTES)
        _pack_varint(len(obj), out)
        out += obj
    elif type(obj) is tuple:
        out.append(_T_TUPLE)
        _pack_varint(len(obj), out)
        for x in obj:
            _encode(x, out)
    elif type(obj) is list:
        out.append(_T_LIST)
        _pack_varint(len(obj), out)
        for x in obj:
            _encode(x, out)
    elif type(obj) is dict:
        out.append(_T_DICT)
        _pack_varint(len(obj), out)
        for k, v in obj.items():
            _encode(k, out)
            _encode(v, out)
    elif type(obj) is set or type(obj) is frozenset:
        out.append(_T_SET if type(obj) is set else _T_FROZENSET)
        _pack_varint(len(obj), out)
        for x in sorted(obj, key=repr):
            _encode(x, out)
    elif type(obj) is slice:
        out.append(_T_SLICE)
        _encode(obj.start, out)
        _encode(obj.stop, out)
        _encode(obj.step, out)
    elif isinstance(obj, np.ndarray):
        out.append(_T_ARRAY)
        pack_array_into(obj, out)
    elif isinstance(obj, np.generic):
        out.append(_T_NPSCALAR)
        pack_array_into(np.asarray(obj), out)
    else:
        name = _TYPE_TO_NAME.get(type(obj))
        if name is None:
            raise SerializationError(
                f"no serialization registered for {type(obj).__name__}; "
                f"decorate it with @serializable or register_type()"
            )
        out.append(_T_REGISTERED)
        _encode_str(name, out)
        _REGISTRY[name][0](obj, out)


def _zigzag(n: int) -> int:
    """Map signed ints to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _decode(buf: memoryview, offset: int) -> tuple[Any, int]:
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_INT:
        z, offset = _unpack_varint(buf, offset)
        return (z >> 1) ^ -(z & 1), offset  # zigzag undone
    if tag == _T_FLOAT:
        (v,) = struct.unpack_from("<d", buf, offset)
        return v, offset + 8
    if tag == _T_COMPLEX:
        re, im = struct.unpack_from("<dd", buf, offset)
        return complex(re, im), offset + 16
    if tag == _T_STR:
        return _decode_str(buf, offset)
    if tag == _T_BYTES:
        n, offset = _unpack_varint(buf, offset)
        return bytes(buf[offset : offset + n]), offset + n
    if tag == _T_TUPLE or tag == _T_LIST:
        n = buf[offset]
        if n < 0x80:  # a one-byte length: every sequence the e2e workloads send
            offset += 1
        else:
            n, offset = _unpack_varint(buf, offset)
        items = []
        for _ in range(n):
            # an int item (a bound, a row index) without a nested call:
            # 7-34 % of an e2e workload's decodes
            if buf[offset] == _T_INT:
                z, offset = _unpack_varint(buf, offset + 1)
                items.append((z >> 1) ^ -(z & 1))
            else:
                v, offset = _decode(buf, offset)
                items.append(v)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_DICT:
        n, offset = _unpack_varint(buf, offset)
        d = {}
        for _ in range(n):
            k, offset = _decode(buf, offset)
            v, offset = _decode(buf, offset)
            d[k] = v
        return d, offset
    if tag in (_T_SET, _T_FROZENSET):
        n, offset = _unpack_varint(buf, offset)
        items = []
        for _ in range(n):
            v, offset = _decode(buf, offset)
            items.append(v)
        return (set(items) if tag == _T_SET else frozenset(items)), offset
    if tag == _T_SLICE:
        start, offset = _decode(buf, offset)
        stop, offset = _decode(buf, offset)
        step, offset = _decode(buf, offset)
        return slice(start, stop, step), offset
    if tag == _T_ARRAY:
        return unpack_array(buf, offset)
    if tag == _T_NPSCALAR:
        arr, offset = unpack_array(buf, offset)
        return arr[()], offset
    if tag == _T_REGISTERED:
        name, offset = _decode_str(buf, offset)
        entry = _REGISTRY.get(name)
        if entry is None:
            raise SerializationError(f"unknown registered type on wire: {name!r}")
        return entry[1](buf, offset)
    raise SerializationError(f"bad tag byte {tag:#x} at offset {offset - 1}")


def serialize(obj: Any) -> bytes:
    """Serialize *obj* to a self-describing byte string."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def deserialize(data: bytes | bytearray | memoryview) -> Any:
    """Inverse of :func:`serialize`."""
    buf = memoryview(data)
    obj, offset = _decode(buf, 0)
    if offset != len(buf):
        raise SerializationError(
            f"trailing garbage: consumed {offset} of {len(buf)} bytes"
        )
    return obj
