"""Registration dedupe: ``distribute()`` of the same (or equal) array
must resolve to the already-resident handle, not re-place it.

Identity dedupe covers re-distributing the same ndarray object (the
common pattern in a resident server: every job distributes its inputs);
content dedupe covers arrays *rebuilt* with equal bytes (e.g. sgemm's
per-job transposed matrix).  Distinct layouts never dedupe -- the same
bytes sharded block-wise and replicated are different placements.
"""
import numpy as np
import pytest

from repro.data.plane import DataPlane

pytestmark = pytest.mark.dataplane


def test_identity_dedupe():
    plane = DataPlane()
    a = np.arange(12.0).reshape(3, 4)
    h1 = plane.register(a)
    h2 = plane.register(a)
    assert h2 is h1
    assert plane.dedup_hits == 1
    assert len(plane.handles) == 1


def test_content_dedupe():
    plane = DataPlane()
    a = np.arange(12.0).reshape(3, 4)
    h1 = plane.register(a)
    h2 = plane.register(a.copy())  # distinct object, equal bytes
    assert h2 is h1
    assert plane.dedup_hits == 1


def test_different_content_is_not_deduped():
    plane = DataPlane()
    a = np.arange(12.0).reshape(3, 4)
    b = a + 1.0
    h1 = plane.register(a)
    h2 = plane.register(b)
    assert h2 is not h1
    assert plane.dedup_hits == 0
    assert len(plane.handles) == 2


def test_layouts_do_not_dedupe_against_each_other():
    plane = DataPlane()
    a = np.arange(12.0).reshape(3, 4)
    h1 = plane.register(a, layout="block")
    h2 = plane.register(a, layout="replicated")
    assert h2 is not h1
    assert plane.dedup_hits == 0


def test_derived_arrays_are_never_deduped():
    """Provenance-tracked registrations (section outputs) are lineage
    nodes; collapsing equal-content outputs would corrupt replay."""
    plane = DataPlane()
    a = np.arange(12.0).reshape(3, 4)
    h1 = plane.register(a)
    h2 = plane.register(a.copy(), provenance=(0, "map", (h1.array_id,)))
    assert h2 is not h1
    assert plane.dedup_hits == 0


def test_negative_zero_is_not_zero():
    """Equal content means equal bytes: ``-0.0 == 0.0`` as numbers, but
    their bytes differ, so they are two arrays -- even where the sample
    (every 62nd element of 1,000) does not look."""
    plane = DataPlane()
    a = np.zeros(1000)
    b = a.copy()
    b[1] = -0.0
    h = plane.register(a)
    assert plane.register(b) is not h
    assert plane.register(a.copy()) is h
    assert plane.dedup_hits == 1 and len(plane.handles) == 2


def test_a_strided_view_dedupes_against_its_contiguous_copy():
    plane = DataPlane()
    base = np.arange(200.0).reshape(10, 20)
    view = base[:, ::2]
    assert not view.flags.c_contiguous
    h = plane.register(np.ascontiguousarray(view))
    assert plane.register(view) is h
    assert plane.register(base[:, 1::2]) is not h
    assert plane.dedup_hits == 1


def test_object_arrays_dedupe_only_on_the_same_objects():
    """An object array's bytes are its element pointers: a copy holding
    the same objects dedupes, one holding equal but distinct objects does
    not."""
    plane = DataPlane()
    items = [(i, str(i)) for i in range(8)]
    a = np.empty(8, dtype=object)
    a[:] = items
    same = a.copy()
    equal = np.empty(8, dtype=object)
    equal[:] = [(i, str(i)) for i in range(8)]
    h = plane.register(a)
    assert plane.register(same) is h
    assert plane.register(equal) is not h
    assert plane.dedup_hits == 1


def test_dedupe_counter_in_stats():
    plane = DataPlane()
    a = np.arange(6.0)
    plane.register(a)
    plane.register(a)
    assert plane.stats_dict()["dedup_hits"] == 1
