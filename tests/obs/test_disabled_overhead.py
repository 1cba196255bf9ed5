"""Disabled-mode overhead: observability must be structurally absent.

With no capture installed, instrumentation sites take a one-global-read
early-out: no ``Span`` objects are allocated (the class-wide
``Span.allocated`` counter is the proof), ``active()`` is ``None``, and
``obs_span`` hands back the shared ``NULL_SPAN`` singleton.  And because
spans only *read* virtual clocks, enabling a capture must not perturb
the run at all: a differential-fuzzer case executes bit-identically --
values, CostMeter triples, virtual makespan, wire bytes -- with
observability on vs. off.
"""
import pytest

from repro.cluster.machine import MachineSpec
from repro.core.fusion.planner import reset_planner
from repro.obs.spans import NULL_SPAN, Span, active, capture, obs_span
from repro.runtime import triolet_runtime
from repro.serial import reset as reset_copy_stats
from repro.testing.gen import build_iter, generate_program, run_consumer
from repro.testing.runner import _meter_triple, bits_equal

pytestmark = pytest.mark.obs

MACHINE = MachineSpec(nodes=3, cores_per_node=2)
SEED, CASE = 2026, 4


def _run_fuzzer_case():
    """One deterministic fuzzer program on a fixed 3-node machine."""
    reset_planner()
    reset_copy_stats()
    prog = generate_program(SEED, CASE)
    with triolet_runtime(MACHINE) as rt:
        value = run_consumer(prog, build_iter(prog, hint="par"))
    wire = [(s.bytes_shipped, s.messages, s.makespan) for s in rt.sections]
    return value, _meter_triple(rt.meter_total), rt.elapsed, wire


class TestDisabledMode:
    def test_no_span_objects_allocated_when_off(self):
        assert active() is None
        before = Span.allocated
        value_off, *_rest = _run_fuzzer_case()
        assert Span.allocated == before, (
            f"{Span.allocated - before} span objects allocated with "
            "observability disabled"
        )
        assert value_off is not None

    def test_obs_span_returns_shared_null_singleton(self):
        assert active() is None
        sp = obs_span("section", "anything", rank=3)
        assert sp is NULL_SPAN
        with sp as inner:
            assert inner is NULL_SPAN
            assert inner.set(anything=1) is NULL_SPAN

    def test_run_is_bit_identical_on_vs_off(self):
        value_off, meter_off, elapsed_off, wire_off = _run_fuzzer_case()
        with capture() as rec:
            value_on, meter_on, elapsed_on, wire_on = _run_fuzzer_case()
        assert bits_equal(value_off, value_on)
        assert meter_off == meter_on
        assert elapsed_off == elapsed_on
        assert wire_off == wire_on
        # ... while the capture really did observe the run.
        assert rec.spans and not rec.registry.empty()

    def test_registry_stays_empty_when_off(self):
        with capture() as rec_probe:
            pass
        assert rec_probe.registry.empty()
        _run_fuzzer_case()  # no capture installed
        assert rec_probe.registry.empty(), (
            "a disabled-mode run leaked counters into a closed capture"
        )

    def test_capture_cannot_nest(self):
        with capture():
            with pytest.raises(RuntimeError):
                with capture():
                    pass
        assert active() is None

