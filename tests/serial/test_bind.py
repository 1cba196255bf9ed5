"""``bind``: a closure tree compiled to one plain callable, once per slice.

Pins the contract the scalar loops rely on -- one lookup and one handle
resolution per bind, bound == unbound on every call -- and the three
ways a bound callable or the cached ``Closure`` call state could leak:
onto the wire, into equality/hash/repr, or past a resolver change.
"""
import copy
import pickle
from functools import partial

import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster.machine import PAPER_MACHINE
from repro.core.domains import Seq
from repro.core.encodings.indexer import (
    Idx,
    array_indexer,
    as_closure,
    map_idx,
    zip_idx,
)
from repro.core.engine import use_vectorization
from repro.core.fusion.planner import _closure_key
from repro.core.sources import ArraySource, TupleSource
from repro.data import DistArray
from repro.data.handle import MissingShardError, _resolve_handle, bind_store
from repro.data.store import RankStore
from repro.runtime import triolet_runtime
from repro.serial import (
    Closure,
    SerializationError,
    bind,
    closure,
    deserialize,
    register_function,
    serialize,
    set_env_resolver,
)
from repro.serial import closures as cl


@register_function
def _affine(a, b, x):
    return a * x + b


@register_function
def _dot_with(w, x):
    return float(np.dot(w, x))


@register_function
def _triple(t):
    return t[0] + 10 * t[1] + 100 * t[2]


class TestBind:
    def test_partial_over_the_resolved_env(self):
        bound = bind(closure(_affine, 2.0, 1.0))
        assert isinstance(bound, partial)
        assert bound.func is _affine and bound.args == (2.0, 1.0)
        assert bound(10.0) == 21.0

    def test_empty_env_is_the_registered_function(self):
        assert bind(closure(_triple)) is _triple

    def test_non_closures_pass_through(self):
        assert bind(len) is len

    def test_handles_resolve_once_at_bind_time(self, monkeypatch):
        h = DistArray(np.arange(4.0))
        resolved = []

        def counting(handle):
            resolved.append(handle)
            return _resolve_handle(handle)

        monkeypatch.setattr(cl, "_ENV_RESOLVER", counting)
        c = closure(_dot_with, h)
        bound = bind(c)
        assert resolved == [h]
        for _ in range(5):
            assert bound(np.ones(4)) == 6.0
        assert resolved == [h]
        c(np.ones(4))
        assert len(resolved) == 2  # the unbound call resolves every time

    def test_specialised_tree_equals_unbound_tree(self):
        x, y, z = np.arange(6.0), np.arange(6.0) + 1, np.arange(6.0) * 2
        idx = map_idx(_triple, zip_idx(*(array_indexer(a) for a in (x, y, z))))
        ctx = idx.source.context()
        bound = bind(idx.extract)
        assert not isinstance(bound, partial)  # map o zip3: direct functions
        for i in range(6):
            assert bound(ctx, i) == idx.extract(ctx, i)

    def test_closures_received_as_data_stay_closures(self):
        seen = []

        @register_function
        def _records_f(f, x):
            seen.append(f)
            return f(x)

        inner = closure(_affine, 1.0, 0.0)
        assert bind(closure(_records_f, inner))(3.0) == 3.0
        assert seen == [inner]

    def test_unknown_code_id_fails_at_bind(self):
        with pytest.raises(SerializationError, match="not in program image"):
            bind(Closure("tests.bind.never-registered"))


class TestBoundCallablesNeverShip:
    @pytest.mark.parametrize(
        "c",
        [
            closure(_affine, 2.0, 1.0),  # partial
            map_idx(_triple, array_indexer(np.arange(3.0))).extract,  # lambda
        ],
    )
    def test_not_registered_as_new_code(self, c):
        bound = bind(c)
        before = dict(cl._CODE_SEGMENT)
        with pytest.raises(SerializationError, match="bound callable"):
            as_closure(bound)
        with pytest.raises(SerializationError, match="bound callable"):
            register_function(bound, "tests.bind.smuggled")
        with pytest.raises(SerializationError):
            serialize(bound)
        assert cl._CODE_SEGMENT == before


class TestZipContextIsValidated:
    @pytest.mark.parametrize("members,given", [(2, 1), (3, 2), (4, 3), (2, 3)])
    def test_mismatched_context_raises_at_first_call(self, members, given):
        arrays = [np.arange(5.0) + k for k in range(members)]
        good = zip_idx(*(array_indexer(a) for a in arrays))
        bad = Idx(
            Seq(5),
            good.extract,
            TupleSource(tuple(ArraySource(arrays[0]) for _ in range(given))),
        )
        bound = bind(bad.extract)  # binding alone sees no context
        with pytest.raises(ValueError, match="_extract_array.*context of %d" % given):
            bound(bad.source.context(), 0)
        with pytest.raises(ValueError, match="zip extractor"):
            bad.eval_all()
        if given < members:  # what the per-element form lets slide
            assert len(bad.extract(bad.source.context(), 0)) == given

    @pytest.mark.parametrize("members", [1, 2, 3, 4, 5])
    def test_matching_context_is_untouched(self, members):
        arrays = [np.arange(5.0) + k for k in range(members)]
        idx = zip_idx(*(array_indexer(a) for a in arrays))
        assert idx.eval_all() == [
            tuple(a[i] for a in arrays) for i in range(5)
        ]


def _consumers():
    from repro.core.encodings.collector import collector_from_indexer, pack_into
    from repro.core.encodings.fold import fold_from_indexer
    from repro.core.encodings.stepper import stepper_from_indexer
    from repro.core.iterators.indexed import materialize_index

    return {
        "eval_all": lambda idx: idx.eval_all(),
        "elements": lambda idx: list(tri.IdxFlat(idx).elements()),
        "reduce": lambda idx: tri.reduce(_push, [], tri.IdxFlat(idx)),
        "nest": lambda idx: tri.collect_list(
            tri.concat_map(_ints_below, tri.IdxFlat(idx))
        ),
        "nest_elements": lambda idx: list(
            tri.concat_map(_ints_below, tri.IdxFlat(idx)).elements()
        ),
        "fold": lambda idx: fold_from_indexer(idx).to_list(),
        "collector": lambda idx: pack_into(collector_from_indexer(idx), []),
        "stepper": lambda idx: stepper_from_indexer(idx).to_list(),
        "index": lambda idx: list(materialize_index(idx)),
    }


@register_function
def _push(acc, x):
    return acc + [x]


@register_function
def _ints_below(x):
    return list(range(int(x)))


@register_function
def _scaled_int(w, x):
    return int(w[0] * x)


class TestBindingIsLazyInTheDomain:
    """An empty slice binds nothing, so it never resolves a handle its
    rank was never shipped -- as the per-element path never did."""

    def test_more_ranks_than_elements_with_a_replicated_handle(self):
        machine = PAPER_MACHINE.scaled(nodes=4, cores_per_node=1)
        rows = np.outer(np.arange(1.0, 4.0), np.ones(4))
        with use_vectorization(False), triolet_runtime(machine) as rt:
            w = rt.distribute(np.array([1.0, 2.0, 4.0, 8.0]), layout="replicated")
            out = tri.sum(tri.map(closure(_dot_with, w), tri.par(rows)))
        assert out == 15.0 * (1 + 2 + 3)
        assert rt.recovery_report.rank_losses == 0

    @pytest.mark.parametrize("consumer", sorted(_consumers()))
    def test_worker_without_the_shard(self, consumer):
        consume = _consumers()[consumer]
        w = DistArray(np.array([2.0]), layout="replicated")
        idx = map_idx(closure(_scaled_int, w), array_indexer(np.arange(1.0, 5.0)))
        with bind_store(RankStore(1)):  # a worker that was never shipped w
            assert len(consume(idx.slice(2, 2))) == 0
            with pytest.raises(MissingShardError):
                consume(idx.slice(1, 3))
        assert consume(idx.slice(1, 3)) is not None  # main rank: master copy


class TestCachedCallState:
    def test_wire_bytes_eq_hash_repr_and_key_do_not_change(self):
        c = closure(_affine, 2.0, 1.0)
        fresh = Closure(c.code_id, c.env)
        before = (serialize(c), hash(c), repr(c), _closure_key(c))
        assert c(1.0) == 3.0
        assert "_call" in vars(c)  # the state is there ...
        assert (serialize(c), hash(c), repr(c), _closure_key(c)) == before
        assert c == fresh and hash(c) == hash(fresh)  # ... and invisible
        assert serialize(c) == serialize(fresh)
        assert deserialize(serialize(c)) == fresh

    def test_pickle_and_copy_carry_fields_only(self):
        c = closure(lambda x: x + 1)  # a lambda would not pickle by value
        assert c(1) == 2
        for dup in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert dup == c and "_call" not in vars(dup)
            assert dup(1) == 2

    def test_called_once_then_bound_agree(self):
        c = closure(_affine, 3.0, -1.0)
        assert c(5.0) == bind(c)(5.0) == 14.0

    def test_resolver_registered_after_a_call_is_seen(self):
        class Box:
            def __init__(self, value):
                self.value = value

        c = closure(_affine, Box(2.0), 1.0)
        prev = (cl._ENV_TYPES, cl._ENV_RESOLVER)
        try:
            set_env_resolver((), None)
            with pytest.raises(TypeError):
                c(10.0)  # caches "no handles" under this epoch
            epoch = cl._ENV_EPOCH
            set_env_resolver((Box,), lambda b: b.value)
            assert cl._ENV_EPOCH == epoch + 1
            assert c(10.0) == 21.0
            assert bind(c)(10.0) == 21.0
        finally:
            set_env_resolver(*prev)
        h = DistArray(np.arange(3.0))
        assert closure(_dot_with, h)(np.ones(3)) == 3.0  # handles again
