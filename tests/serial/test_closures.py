"""Tests for closure serialization."""
import numpy as np
import pytest

from repro.serial import (
    Closure,
    closure,
    deserialize,
    register_function,
    serialize,
)
from repro.serial.sizeof import transitive_size


def scale_add(factor, offset, x):
    return factor * x + offset


register_function(scale_add)


class TestClosures:
    def test_call_applies_env_then_args(self):
        c = closure(scale_add, 2.0, 1.0)
        assert c(10.0) == 21.0

    def test_roundtrip_preserves_behaviour(self):
        c = closure(scale_add, 3.0, -1.0)
        c2 = deserialize(serialize(c))
        assert isinstance(c2, Closure)
        assert c2(5.0) == c(5.0) == 14.0

    def test_bind_extends_env(self):
        c = closure(scale_add, 2.0)
        assert c.bind(100.0)(1.0) == 102.0

    def test_env_with_array_roundtrips(self):
        def first_elem(arr, i):
            return arr[i]

        register_function(first_elem)
        c = closure(first_elem, np.arange(10.0))
        c2 = deserialize(serialize(c))
        assert c2(3) == 3.0

    def test_duplicate_code_id_rejected(self):
        def f():
            pass

        def g():
            pass

        register_function(f, "tests.dupe-id")
        with pytest.raises(ValueError):
            register_function(g, "tests.dupe-id")

    def test_unknown_code_id_fails_at_decode(self):
        from repro.serial import SerializationError
        from repro.serial import closures as cl

        c = Closure("tests.never-registered", ())
        data = serialize(c)
        with pytest.raises(SerializationError):
            deserialize(data)
        assert "tests.never-registered" not in cl._CODE_SEGMENT


class TestTransitiveSize:
    def test_array_dominates(self):
        a = np.zeros(1000)
        assert abs(transitive_size(a) - 8000) < 100

    def test_closure_env_counted(self):
        c = closure(scale_add, np.zeros(500))
        sz = transitive_size(c)
        assert sz > 4000

    def test_estimate_tracks_serializer(self):
        for obj in [42, "hello", [1.0, 2.0], {"a": (1, 2)}, np.arange(33.0)]:
            est = transitive_size(obj)
            actual = len(serialize(obj))
            assert 0.3 * actual <= est <= 3.5 * actual + 16

    def test_nested_structures(self):
        obj = [np.zeros(100)] * 3  # shared refs counted per occurrence here
        assert transitive_size(obj) >= 800
