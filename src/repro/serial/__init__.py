"""Serialization substrate.

Triolet's runtime serializes objects to byte arrays before sending them
between cluster nodes (paper §3.4).  The compiler generates serialization
code from algebraic data type definitions; functions are serialized as
closures; pointers to global data are serialized as a segment identifier
plus offset; pointer-free arrays are block-copied.

This package reproduces each of those mechanisms:

* :mod:`repro.serial.serializer` -- self-describing binary format with a
  type registry; ``@serializable`` plays the role of compiler-generated
  serialization for dataclass ADTs.
* :mod:`repro.serial.arrays` -- numpy arrays serialized as a small header
  plus a single block copy of the raw buffer.
* :mod:`repro.serial.closures` -- closures as (code id, environment);
  global data as segment references that cost O(1) bytes on the wire.
* :mod:`repro.serial.sizeof` -- transitive byte accounting used by the
  simulated network's cost model.
"""
from repro.serial.serializer import (
    serialize,
    deserialize,
    serializable,
    SerializationError,
)
from repro.serial.arrays import (
    copy_stats,
    ensure_contiguous,
    merge_copy_stats,
    new_copy_stats,
    reset_copy_stats,
    use_copy_stats,
)
from repro.serial.sizeof import transitive_size
from repro.serial.closures import (
    Closure,
    bind,
    binds,
    closure,
    register_function,
    resolve_env,
    set_env_resolver,
    GlobalSegment,
    GlobalRef,
)


def reset() -> None:
    """Reset per-run serialization statistics.

    ``copy_stats()`` counters otherwise accumulate across benchmark
    repetitions; :mod:`repro.bench` calls this between runs so reported
    deltas are per-run.
    """
    reset_copy_stats()


__all__ = [
    "serialize",
    "deserialize",
    "serializable",
    "SerializationError",
    "copy_stats",
    "ensure_contiguous",
    "merge_copy_stats",
    "new_copy_stats",
    "use_copy_stats",
    "reset_copy_stats",
    "reset",
    "transitive_size",
    "Closure",
    "bind",
    "binds",
    "closure",
    "register_function",
    "resolve_env",
    "set_env_resolver",
    "GlobalSegment",
    "GlobalRef",
]
