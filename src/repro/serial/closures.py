"""Closure and global-data serialization.

Paper §3.4: "Functions are represented by heap-allocated closures and are
also serialized.  Serializing an object transitively serializes all objects
that it references.  Pointers to global data are serialized as a segment
identifier and offset."

Python functions cannot be shipped by value safely or cheaply, and on a
real cluster Triolet ships a *code pointer* (all nodes run the same
program image) plus a captured environment.  We reproduce exactly that
split:

* every function that can appear inside a message is registered once (at
  import time on "all nodes") under a stable code id via
  :func:`register_function` -- the analogue of the shared program image;
* a :class:`Closure` pairs a code id with a tuple of captured values, and
  serializes as the id plus the environment, so the wire cost is dominated
  by the environment -- which is what the paper's array-partitioning work
  (§3.5) minimizes;
* :class:`GlobalSegment` registers large read-only data once per node;
  a :class:`GlobalRef` into it serializes as (segment id, offset) in O(1)
  bytes, never dragging the data itself across the network.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.serial import serializer
from repro.serial.serializer import (
    SerializationError,
    _decode,
    _decode_str,
    _encode,
    _encode_str,
    register_type,
)

# The "program image": code id -> function object.  Populated identically
# on every simulated rank because ranks share the interpreter.
_CODE_SEGMENT: dict[str, Callable] = {}
_FUNC_TO_ID: dict[Callable, str] = {}


def register_function(fn: Callable, code_id: str | None = None) -> Callable:
    """Register *fn* in the shared code segment.

    Usable as a decorator.  The default code id is the qualified name,
    which is stable across ranks because all ranks import the same
    modules.
    """
    if getattr(fn, "_bound", False):
        raise SerializationError("a bound callable dies with its slice: ship its Closure")
    if code_id is not None:
        existing = _CODE_SEGMENT.get(code_id)
        if existing is not None and existing is not fn:
            raise ValueError(
                f"code id already bound to a different function: {code_id!r}"
            )
        cid = code_id
    else:
        # Default ids come from the qualified name.  Distinct lambdas (or
        # distinct invocations of a def) can share a qualname; disambiguate
        # with a counter.  Safe here because every simulated rank shares
        # this interpreter's registry; a real cluster would additionally
        # need deterministic registration order on all nodes.
        base = f"{fn.__module__}.{fn.__qualname__}"
        cid = base
        k = 1
        while _CODE_SEGMENT.get(cid) is not None and _CODE_SEGMENT[cid] is not fn:
            k += 1
            cid = f"{base}#{k}"
    _CODE_SEGMENT[cid] = fn
    _FUNC_TO_ID[fn] = cid
    return fn


def lookup_function(code_id: str) -> Callable:
    fn = _CODE_SEGMENT.get(code_id)
    if fn is None:
        raise SerializationError(f"code id not in program image: {code_id!r}")
    return fn


# Environment-entry resolver hook.  The data plane (repro.data) registers
# its DistArray handle type here so that closure environments carrying
# handles are resolved to rank-local array views at call time, on whichever
# rank the closure actually runs.  Kept as a hook to avoid a serial -> data
# import cycle.
_ENV_TYPES: tuple = ()
_ENV_RESOLVER: Callable[[Any], Any] | None = None
_ENV_EPOCH = 0  # bumped per registration: dates each Closure's cached call state


def set_env_resolver(types: tuple, fn: Callable[[Any], Any]) -> None:
    """Register *fn* to resolve environment entries of the given *types*."""
    global _ENV_TYPES, _ENV_RESOLVER, _ENV_EPOCH
    _ENV_TYPES, _ENV_RESOLVER = types, fn
    _ENV_EPOCH += 1


def resolve_env(env: tuple) -> tuple:
    """Return *env* with its handle-typed entries resolved to local data.

    Returns *env* itself (no allocation) when no resolver is registered
    or the environment carries no handles -- the overwhelmingly common
    case; otherwise a new tuple, the original is never mutated.
    """
    if _ENV_RESOLVER is None or not env:
        return env
    if not any(isinstance(e, _ENV_TYPES) for e in env):
        return env
    fn = _ENV_RESOLVER
    return tuple(fn(e) if isinstance(e, _ENV_TYPES) else e for e in env)


@dataclass(frozen=True)
class Closure:
    """A serializable function: code pointer + captured environment.

    Calling the closure applies the underlying function to the environment
    followed by the call arguments, i.e. ``Closure(f, (a, b))(x)`` computes
    ``f(a, b, x)``.  Environment entries that are data-plane handles are
    resolved to local data at call time (see :func:`set_env_resolver`).
    Loops call :func:`bind` once instead of this once per element.
    """

    code_id: str
    env: tuple = ()

    # (resolver epoch, function, env carries handles) as of the last call.
    # Not a field: eq, hash, repr, planner key, wire form and pickle skip it.
    _call = (-1, None, False)

    def __call__(self, *args: Any) -> Any:
        epoch, fn, handles = self._call
        if epoch != _ENV_EPOCH:
            fn = lookup_function(self.code_id)
            handles = any(isinstance(e, _ENV_TYPES) for e in self.env)
            object.__setattr__(self, "_call", (_ENV_EPOCH, fn, handles))
        return fn(*(resolve_env(self.env) if handles else self.env), *args)

    def __reduce__(self):
        return Closure, (self.code_id, self.env)

    def bind(self, *extra: Any) -> "Closure":
        """Partially apply: extend the captured environment."""
        return Closure(self.code_id, self.env + extra)


def closure(fn: Callable, *env: Any) -> Closure:
    """Build a :class:`Closure` over *fn*, registering it if needed."""
    cid = _FUNC_TO_ID.get(fn)
    if cid is None:
        register_function(fn)
        cid = _FUNC_TO_ID[fn]
    return Closure(cid, env)


_BINDERS: dict[Callable, Callable] = {}  # function -> specialiser(*resolved_env)


def binds(fn: Callable) -> Callable:
    """Decorator: the specialiser :func:`bind` uses for closures over *fn*."""
    return lambda specialiser: _BINDERS.setdefault(fn, specialiser)


def bind(f: Any) -> Callable:
    """Compile a closure tree into one plain callable, once per slice.

    One code-id lookup and one resolution of the environment's handles,
    against the executing rank's store.  A combinator with a specialiser
    (:func:`binds`) binds the closures it *calls*; anything else becomes
    ``partial(fn, *resolved_env)``, so closures a function receives as
    data (``tmap``'s ``f``) stay closures.  Non-closures pass through.

    The result holds resolved shard views: bind on the executing rank,
    inside the attempt, for a non-empty slice; never cache, ship or
    serialize it (:func:`closure` rejects it).
    """
    if not isinstance(f, Closure):
        return f
    fn = lookup_function(f.code_id)
    env = resolve_env(f.env)
    specialiser = _BINDERS.get(fn)
    if specialiser is None and not env:
        return fn  # nothing captured: the registered function itself
    bound = specialiser(*env) if specialiser else partial(fn, *env)
    bound._bound = True
    return bound


def _encode_closure(obj: Closure, out: bytearray) -> None:
    _encode_str(obj.code_id, out)
    _encode(obj.env, out)


def _decode_closure(buf: memoryview, offset: int):
    cid, offset = _decode_str(buf, offset)
    env, offset = _decode(buf, offset)
    # Fail fast if the receiving "program image" lacks the code.
    lookup_function(cid)
    return Closure(cid, env), offset


register_type("repro.Closure", Closure, _encode_closure, _decode_closure)


# ---------------------------------------------------------------------------
# Global segments


class GlobalSegment:
    """A named, node-resident pool of read-only global data.

    ``intern`` returns a :class:`GlobalRef` whose wire representation is a
    (segment, offset) pair -- a handful of bytes regardless of how large the
    referenced object is.  All simulated ranks share the interpreter, so a
    single registry faithfully models "the same global data exists at the
    same offset in every node's image".
    """

    _segments: dict[str, "GlobalSegment"] = {}

    def __init__(self, name: str):
        if name in GlobalSegment._segments:
            raise ValueError(f"global segment already exists: {name!r}")
        self.name = name
        self._objects: list[Any] = []
        GlobalSegment._segments[name] = self

    @classmethod
    def get(cls, name: str) -> "GlobalSegment":
        seg = cls._segments.get(name)
        if seg is None:
            raise SerializationError(f"unknown global segment: {name!r}")
        return seg

    @classmethod
    def get_or_create(cls, name: str) -> "GlobalSegment":
        return cls._segments.get(name) or cls(name)

    @classmethod
    def drop(cls, name: str) -> None:
        """Remove a segment (test hygiene)."""
        cls._segments.pop(name, None)

    def intern(self, obj: Any) -> "GlobalRef":
        self._objects.append(obj)
        return GlobalRef(self.name, len(self._objects) - 1)

    def fetch(self, offset: int) -> Any:
        return self._objects[offset]


@dataclass(frozen=True)
class GlobalRef:
    """Serializable pointer to global data: segment id + offset."""

    segment: str
    offset: int

    def deref(self) -> Any:
        return GlobalSegment.get(self.segment).fetch(self.offset)


def _encode_globalref(obj: GlobalRef, out: bytearray) -> None:
    _encode_str(obj.segment, out)
    serializer._pack_varint(obj.offset, out)


def _decode_globalref(buf: memoryview, offset: int):
    seg, offset = _decode_str(buf, offset)
    off, offset = serializer._unpack_varint(buf, offset)
    return GlobalRef(seg, off), offset


register_type("repro.GlobalRef", GlobalRef, _encode_globalref, _decode_globalref)
