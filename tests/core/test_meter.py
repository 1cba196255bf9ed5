"""Tests for the cost meter (the measurement half of the timing model)."""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster.machine import MachineSpec
from repro.core import meter
from repro.core.domains import Seq
from repro.core.engine import register_bulk, use_vectorization
from repro.core.meter import CostMeter, TallyError
from repro.runtime import triolet_runtime
from repro.serial import register_function
from repro.serial.closures import _FUNC_TO_ID


class TestMetering:
    def test_no_meter_is_noop(self):
        assert meter.current_meter() is None
        meter.tally_visits(5)  # must not raise
        meter.tally_steps()
        meter.tally_pass()
        meter.tally_materialization(100)

    def test_basic_tallies(self):
        with meter.metered() as m:
            meter.tally_visits(3)
            meter.tally_steps(2)
            meter.tally_lookups()
            meter.tally_pass()
            meter.tally_materialization(64)
        assert m.visits == 3
        assert m.steps == 2
        assert m.lookups == 1
        assert m.passes == 1
        assert m.materializations == 1 and m.materialized_bytes == 64

    def test_nesting_isolates_inner(self):
        with meter.metered() as outer:
            meter.tally_visits(1)
            with meter.metered() as inner:
                meter.tally_visits(10)
            meter.tally_visits(1)
        assert inner.visits == 10
        assert outer.visits == 2  # the inner region did not leak out

    def test_meter_restored_after_exception(self):
        with meter.metered() as outer:
            with pytest.raises(RuntimeError):
                with meter.metered():
                    raise RuntimeError("inner")
            meter.tally_visits(1)
        assert outer.visits == 1
        assert meter.current_meter() is None

    def test_explicit_meter_reuse(self):
        m = CostMeter()
        with meter.metered(m):
            meter.tally_visits(2)
        with meter.metered(m):
            meter.tally_visits(3)
        assert m.visits == 5

    def test_tally_inner_subtracts_the_library_count(self):
        with meter.metered() as m:
            meter.tally_inner(10)  # kernel saw 10, library counts 1
        assert m.visits == 9

    def test_tally_inner_small_values(self):
        with meter.metered() as m:
            meter.tally_inner(1)
            meter.tally_inner(0)
        assert m.visits == 0

    def test_merge(self):
        a = CostMeter(visits=1, steps=2, passes=1)
        b = CostMeter(visits=10, materializations=1, materialized_bytes=8)
        a.merge(b)
        assert a.visits == 11 and a.steps == 2
        assert a.materializations == 1 and a.materialized_bytes == 8
        assert a.passes == 1

    def test_threads_have_independent_meters(self):
        import threading

        results = {}

        def worker(name, n):
            with meter.metered() as m:
                meter.tally_visits(n)
            results[name] = m.visits

        threads = [
            threading.Thread(target=worker, args=(f"t{i}", (i + 1) * 100))
            for i in range(4)
        ]
        with meter.metered() as main_meter:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {"t0": 100, "t1": 200, "t2": 300, "t3": 400}
        assert main_meter.visits == 0  # thread tallies never leak to main


# -- the tally rule (repro.core.engine.bulk_forms) ---------------------------

@register_function
def _lump(x):
    meter.tally_inner(3)
    return x + 1.0


def _lump_bulk(xs):
    meter.tally_visits(2 * len(xs))  # a scalar: which elements is it for?
    return xs + 1.0


register_bulk(_lump, _lump_bulk)


@register_function
def _off_by_one(x):
    meter.tally_inner(3)
    return x + 1.0


def _off_by_one_bulk(xs):
    meter.tally_uniform(len(xs) + 1, 2)
    return xs + 1.0


register_bulk(_off_by_one, _off_by_one_bulk)


class TestTallyRule:
    """A bulk form tallies per element of its batch.  A scalar tally made
    while one runs is an error naming the form's code id -- whatever the
    batch size, with a per-task ledger or without."""

    @pytest.mark.parametrize("n", [1, 7, 5000])
    @pytest.mark.parametrize("ledger", [False, True])
    def test_a_scalar_tally_in_a_batch_names_the_form(self, n, ledger):
        xs = np.arange(float(n))
        with pytest.raises(TallyError) as err:
            if ledger:
                with triolet_runtime(MachineSpec(nodes=1, cores_per_node=2)):
                    tri.sum(tri.map(_lump, tri.localpar(xs)))
            else:
                with meter.metered():
                    tri.sum(tri.map(_lump, xs))
        assert err.value.form == _FUNC_TO_ID[_lump]
        assert _FUNC_TO_ID[_lump] in str(err.value)

    def test_the_scalar_loop_may_tally_scalars(self):
        with use_vectorization(False), meter.metered() as m:
            tri.sum(tri.map(_lump, np.arange(10.0)))
        assert m.visits == 30

    def test_a_tally_for_the_wrong_number_of_elements(self):
        with pytest.raises(TallyError) as err:
            with triolet_runtime(MachineSpec(nodes=1, cores_per_node=2)):
                tri.sum(tri.map(_off_by_one, tri.localpar(np.arange(9.0))))
        assert err.value.form == _FUNC_TO_ID[_off_by_one]

    def test_uniform_and_each_without_a_ledger_are_plain_sums(self):
        with meter.metered() as m:
            meter.tally_uniform(5, 3)
            m.spread(4, 0, 2)  # the engine's: a filter nest's stepper steps
            meter.tally_each(np.array([1, 0, 4]))
            meter.tally_elements(6)
        assert (m.visits, m.steps) == (15 + 5 + 6, 8)
        meter.tally_uniform(5, 3)  # no meter: a no-op like every tally
        meter.tally_each(np.array([1]))

    def test_a_batch_across_task_cuts_is_split_exactly(self):
        dom = Seq(9)
        led = meter.TaskLedger([3, 5, 9], dom)
        with meter.metered() as m:
            m.ledger = led
            for lo, hi in meter.batches(dom, 4):
                meter.tally_elements(hi - lo)
                meter.tally_uniform(hi - lo, 10)
                meter.tally_each(np.arange(lo, hi))
                meter.tally_visits(100)  # a scalar: the batch's first task
        each = [0 + 1 + 2, 3 + 4, 5 + 6 + 7 + 8]
        scalars = [100, 100, 100]  # batches start in tasks 0, 1 and 2
        assert [row[0] for row in led.own] == [
            n * 11 + e + s for n, e, s in zip((3, 2, 4), each, scalars)
        ]
        assert m.visits == sum(row[0] for row in led.own)
