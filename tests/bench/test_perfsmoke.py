"""Perf smoke tests: the bulk engine must stay meaningfully faster.

These guard the wall-clock win of the vectorized engine on the two
irregular pipelines (tpacf's triangular pair loop, cutcp's variable-size
atom expansion) and on spMV's indexed streams.  Budgets are deliberately
generous -- min-of-3 timings and a 2x ratio floor (3x for spMV on one
rank) against the ~5-9x measured on an idle machine -- so they fail on
real regressions (engine silently disabled, plan cache broken, a scalar
fallback sneaking in), not on noisy CI neighbors.
"""
import time

import pytest

from repro.apps import spmv
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster.machine import PAPER_MACHINE
from repro.core.engine import use_vectorization
from repro.runtime.costs import CostContext

#: Timed runs use one core per node: the work-stealing model's task
#: splitting would cut the bulk chunks small, and what is timed is the engine.
MACHINE = PAPER_MACHINE.scaled(nodes=2, cores_per_node=1)
MAX_VEC_SECONDS = 10.0  # measured ~0.1s; an order of magnitude of headroom

#: Many outer elements and short inner vectors, so the scalar path's
#: per-element Python dispatch dominates.
PARAMS: dict[str, dict] = {
    "tpacf": dict(m=128, nr=96, nbins=2048, seed=11),
    "cutcp": dict(na=20000, grid=(48, 48, 48), cutoff=2.0, seed=11),
    "spmv": dict(nrows=2048, ncols=2048, row_nnz=24, seed=1),
}

#: app -> (ranks, floor on scalar / vectorized wall clock)
FLOORS = {"tpacf": (2, 2.0), "cutcp": (2, 2.0), "spmv": (1, 3.0)}


def _op(app, nodes):
    """One Triolet run of *app* at its ``PARAMS`` size on *nodes* ranks."""
    machine = PAPER_MACHINE.scaled(nodes=nodes, cores_per_node=1)
    if app == "spmv":  # outside the harness registry: no calibration
        problem = spmv.make_problem(**PARAMS[app])
        return lambda: spmv.run_triolet(problem, machine, CostContext())
    problem = APPS[app].make_problem(**PARAMS[app])
    costs = costs_for(app, "triolet", problem)
    return lambda: APPS[app].runners["triolet"](problem, machine, costs)


def _min_wall(op, vectorize, repeats=3):
    best = float("inf")
    with use_vectorization(vectorize):
        for _ in range(repeats):
            t0 = time.perf_counter()
            run = op()
            best = min(best, time.perf_counter() - t0)
    return best, run


@pytest.mark.perfsmoke
@pytest.mark.parametrize("app", list(FLOORS))
class TestPerfSmoke:
    def test_vectorized_beats_scalar(self, app):
        nodes, floor = FLOORS[app]
        op = _op(app, nodes)
        vec_s, vec_run = _min_wall(op, vectorize=True)
        scalar_s, scalar_run = _min_wall(op, vectorize=False)
        assert vec_s < MAX_VEC_SECONDS
        assert scalar_s / vec_s >= floor, (
            f"{app}: vectorized {vec_s:.3f}s vs scalar {scalar_s:.3f}s "
            f"({scalar_s / vec_s:.1f}x < {floor}x floor)"
        )
        assert vec_run.elapsed == scalar_run.elapsed  # virtual time unchanged


@pytest.mark.perfsmoke
@pytest.mark.dataplane
class TestResidencySmoke:
    """Shipping-cost guard: once a DistArray is placed, a second section
    with a compatible partition must move zero input bytes."""

    def test_second_section_ships_no_input(self):
        import numpy as np

        import repro.triolet as tri
        from repro.runtime import triolet_runtime
        from repro.serial import register_function

        xs = np.arange(20_000.0)
        with triolet_runtime(MACHINE) as rt:
            h = rt.distribute(xs)
            a = tri.sum(tri.par(h))
            b = tri.sum(tri.par(h))
        assert a == b
        plane_sections = [s for s in rt.sections if s.data_plane is not None]
        assert len(plane_sections) >= 2
        first, second = plane_sections[0], plane_sections[1]
        assert first.data_plane["input_bytes"] > 0
        assert second.data_plane["input_bytes"] == 0, (
            "residency broken: second section re-shipped "
            f"{second.data_plane['input_bytes']:,} input bytes"
        )
        assert second.data_plane["resident_hits"] == MACHINE.nodes - 1

    def test_single_rank_spmv_ships_no_bytes(self):
        """One rank: nothing crosses a wire, on either engine path."""
        for vectorize in (True, False):
            with use_vectorization(vectorize):
                run = _op("spmv", nodes=1)()
            assert run.bytes_shipped == 0


@pytest.mark.perfsmoke
class TestScalarTierIsBound:
    """A count, not a stopwatch: a scalar-mode section binds its closure
    tree once per slice, so ``Closure.__call__`` runs O(sections) times
    (seq_fn, combine, ...) while the user's element function still runs
    once per element.  Deterministic; takes milliseconds."""

    CLOSURE_CALLS_MAX = 64

    @pytest.fixture
    def closure_calls(self, monkeypatch):
        from repro.serial import Closure

        calls = []
        unbound_call = Closure.__call__

        def counting(self, *args):
            calls.append(self.code_id)
            return unbound_call(self, *args)

        monkeypatch.setattr(Closure, "__call__", counting)
        return calls

    def _scalar(self, pipeline):
        from repro.runtime import triolet_runtime

        machine = PAPER_MACHINE.scaled(nodes=2, cores_per_node=1)
        with use_vectorization(False), triolet_runtime(machine) as rt:
            out = pipeline(rt)
        assert all(s.plan is None for s in rt.sections)
        return out

    def test_map_over_zip3(self, closure_calls):
        import numpy as np

        import repro.triolet as tri

        seen = []

        def f(t):
            seen.append(t[0])
            return t[0] * t[1] + t[2]

        x = np.arange(4096.0)
        out = self._scalar(
            lambda rt: tri.sum(tri.par(tri.map(f, tri.zip(x, x + 1.0, x * 2.0))))
        )
        assert out == float(np.sum(x * (x + 1.0) + x * 2.0))
        assert sorted(seen) == list(x)  # exactly once per element
        assert len(closure_calls) <= self.CLOSURE_CALLS_MAX, len(closure_calls)

    def test_sgemm_outer_pipeline(self, closure_calls):
        import numpy as np

        import repro.triolet as tri

        dots = []

        def dot(uv):
            dots.append(1)
            return float(np.dot(uv[0], uv[1]))

        a = np.arange(64.0 * 8).reshape(64, 8)
        b = np.arange(64.0 * 8).reshape(64, 8) % 7.0
        out = self._scalar(
            lambda rt: tri.build(
                tri.map(dot, tri.par(tri.outerproduct(tri.rows(a), tri.rows(b))))
            )
        )
        np.testing.assert_array_equal(out, a @ b.T)
        assert len(dots) == 64 * 64
        assert len(closure_calls) <= self.CLOSURE_CALLS_MAX, len(closure_calls)

    def test_spmv_row_nest(self, closure_calls):
        import numpy as np

        import repro.triolet as tri
        from repro.serial import closure, register_function

        nrows, row_nnz = 256, 16
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 512, size=nrows * row_nnz)
        vals = rng.integers(1, 9, size=nrows * row_nnz).astype(float)
        xv = rng.integers(1, 9, size=512).astype(float)
        rows_seen, entries_seen = [], []

        @register_function
        def entry(x, cv):
            entries_seen.append(1)
            return cv[1] * x[cv[0]]

        @register_function
        def row(x, r):
            rows_seen.append(r)
            lo, hi = r * row_nnz, (r + 1) * row_nnz
            return tri.map(closure(entry, x), tri.zip(cols[lo:hi], vals[lo:hi]))

        def spmv(rt):
            x = rt.distribute(xv, layout="replicated")
            return tri.sum(
                tri.concat_map(closure(row, x), tri.par(tri.iterate(range(nrows))))
            )

        assert self._scalar(spmv) == float(np.sum(vals * xv[cols]))
        assert sorted(rows_seen) == list(range(nrows))
        assert len(entries_seen) == nrows * row_nnz  # 4096 elements
        assert len(closure_calls) <= self.CLOSURE_CALLS_MAX, len(closure_calls)


@pytest.mark.perfsmoke
class TestBulkFormCallCount:
    """The engine's call-count rule (``repro.core.engine.bulk_forms``): a
    bulk form makes a fixed number of NumPy calls per block of a fixed
    budget, never per element of its batch.  Counts, not stopwatches."""

    #: Helpers a bulk form may call that do iterate a parameter, each with
    #: the reason it is outside the rule.
    ITERATING_HELPERS = {
        "_per_set": "tpacf's fallback for sets that are not one ndarray "
        "stack (a ragged object array): the scalar form per set, each "
        "under a meter of its own whose visits it tallies per set",
    }

    @pytest.mark.parametrize("form", ["cross", "self"])
    def test_tpacf_batch_forms_make_one_arccos_call_per_block(self, form):
        from unittest import mock

        import numpy as np

        from repro.apps.tpacf import kernel

        rng = np.random.default_rng(0)
        other = rng.standard_normal((16, 3))
        sets_per_block = kernel._BULK_BUDGET // (16 * 16)

        def arccos_calls(k):
            stack = rng.standard_normal((k, 16, 3))
            with mock.patch.object(np, "arccos", wraps=np.arccos) as arccos:
                if form == "cross":
                    kernel.cross_set_bins_batch(64, other, stack)
                else:
                    kernel.self_set_bins_batch(64, stack)
            return arccos.call_count

        assert arccos_calls(2) == arccos_calls(8) == 1
        # past the budget the count follows pairs / _BULK_BUDGET, not sets
        assert arccos_calls(sets_per_block) == 1
        assert arccos_calls(2 * sets_per_block + 1) == 3

    def test_mriq_bulk_form_makes_the_same_calls_for_any_batch(self):
        from unittest import mock

        import numpy as np

        from repro.apps.mriq import kernel

        rng = np.random.default_rng(0)
        ks = [rng.uniform(-64, 64, 64) for _ in range(3)] + [rng.random(64)]
        names = ("cos", "sin", "rint", "add", "asarray", "empty")

        def counts(npix):
            coords = [rng.uniform(-0.5, 0.5, npix) for _ in range(3)]
            spies = {n: mock.MagicMock(wraps=getattr(np, n)) for n in names}
            with mock.patch.multiple(np, **spies):
                kernel.q_for_pixels_bulk(*ks, *coords)
            return {n: len(spy.mock_calls) for n, spy in spies.items()}

        few = counts(16)
        assert few == counts(1024)
        assert few["cos"] == few["sin"] == few["rint"] == 1
        assert few["add"] == 2  # one add.reduce per sum

    def test_no_bulk_form_iterates_its_batch(self):
        """AST guard over every app module: no ``*_bulk`` / ``*_batch``
        function, nor any same-module helper it calls, has a ``for`` loop
        or comprehension whose iterable is one of its own parameters (a
        ``range``-blocked loop over a budget, as in cutcp and tpacf, is
        fine: its trip count follows the budget, not the elements)."""
        import ast
        from pathlib import Path

        import repro.apps

        def calls(fn):
            return {
                n.func.id
                for n in ast.walk(fn)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            }

        offenders, forms = [], 0
        for path in sorted(Path(repro.apps.__file__).parent.glob("*/*.py")):
            defs = {
                fn.name: fn
                for fn in ast.parse(path.read_text()).body
                if isinstance(fn, ast.FunctionDef)
            }
            todo = [n for n in defs if n.endswith(("_bulk", "_batch"))]
            forms += len(todo)
            reached = set()
            while todo:
                name = todo.pop()
                if name in reached or name in self.ITERATING_HELPERS:
                    continue
                reached.add(name)
                todo.extend(calls(defs[name]) & defs.keys())
            for name in sorted(reached):
                a = defs[name].args
                params = {
                    p.arg
                    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg)
                    if p is not None
                }
                for node in ast.walk(defs[name]):
                    if isinstance(node, (ast.For, ast.comprehension)):
                        it = node.iter
                        if isinstance(it, ast.Name) and it.id in params:
                            offenders.append(
                                f"{path.parent.name}/{path.name}:{it.lineno} "
                                f"{name} iterates {it.id!r}"
                            )
        assert forms >= 10  # the walk found the forms it is there to check
        assert not offenders, offenders

    def test_no_bulk_form_reaches_a_scalar_tally(self):
        """AST guard for the tally rule: no ``*_bulk`` / ``*_batch``
        function of an app module, nor any same-module helper it calls,
        calls ``tally_visits`` / ``tally_inner`` / ``tally_steps`` -- a
        bulk form says which element a tally is for (``tally_uniform``,
        ``tally_each``), or a per-task ledger could not split its batch.
        What is handed to an ``ITERATING_HELPERS`` fallback is the scalar
        form itself and is not followed."""
        import ast
        from pathlib import Path

        import repro.apps

        scalar = {"tally_visits", "tally_inner", "tally_steps"}

        def called(node, out):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    name = getattr(child.func, "id", None) or getattr(
                        child.func, "attr", None
                    )
                    if name in self.ITERATING_HELPERS:
                        continue
                    out.add(name)
                called(child, out)
            return out

        offenders, tallying = [], 0
        for path in sorted(Path(repro.apps.__file__).parent.glob("*/*.py")):
            defs = {
                fn.name: fn
                for fn in ast.parse(path.read_text()).body
                if isinstance(fn, ast.FunctionDef)
            }
            todo = [n for n in defs if n.endswith(("_bulk", "_batch"))]
            reached = set()
            while todo:
                name = todo.pop()
                if name not in reached:
                    reached.add(name)
                    todo.extend(called(defs[name], set()) & defs.keys())
            for name in sorted(reached):
                names = called(defs[name], set())
                tallying += bool(names & {"tally_uniform", "tally_each"})
                offenders += [
                    f"{path.parent.name}/{path.name} {name} calls {bad}"
                    for bad in sorted(names & scalar)
                ]
        assert tallying >= 7  # mriq, sgemm, cutcp and tpacf's four
        assert not offenders, offenders


@pytest.mark.perfsmoke
class TestOnePassPerCore:
    """A ``dense_sim``-shaped round as a count: the four apps on 2 ranks x
    1 core, cold plan cache per op as a one-shot script pays it.  Every
    rank runs ONE engine pass per section (one plan lookup each), however
    many tasks the node model times it as: 13 hits a round, where one
    pass per task made 52."""

    MID = {  # benchmarks/e2e/workloads.py
        "mriq": dict(npix=8192, nk=64),
        "sgemm": dict(n=96),
        "tpacf": dict(m=64, nr=32, nbins=1024),
        "cutcp": dict(na=4000, grid=(32, 32, 32), cutoff=2.0),
    }

    def test_a_round_is_thirteen_plan_lookups(self):
        from repro.core.fusion import planner_stats, reset_planner

        machine = PAPER_MACHINE.scaled(nodes=2, cores_per_node=1)
        hits = misses = unsupported = 0
        for app in sorted(self.MID):
            problem = APPS[app].make_problem(seed=7, **self.MID[app])
            reset_planner()
            run = APPS[app].runners["triolet"](
                problem, machine, costs_for(app, "triolet", problem)
            )
            assert run.ok
            stats = planner_stats()
            hits, misses = hits + stats.hits, misses + stats.misses
            unsupported += stats.unsupported
        assert (hits, misses, unsupported) == (13, 7, 0)


@pytest.mark.perfsmoke
class TestLocalSectionForkCount:
    """The ``local`` launcher is rank 0 and ranks >= 1 run on its resident
    crew: a section it can send forks nothing, one it cannot hires n - 1
    members, and rank 0's outcome never crosses a pipe.  Counts, not
    stopwatches (a fork of the benchmark's heap is 2.3 ms; the six of a
    ``dense_local`` round were most of its gap to ``dense_sim``)."""

    DENSE = {  # benchmarks/e2e/workloads.py
        "mriq": dict(npix=6144, nk=64),
        "sgemm": dict(n=96),
        "tpacf": dict(m=64, nr=32, nbins=2048),
        "cutcp": dict(na=4000, grid=(40, 40, 40), cutoff=2.0),
    }

    @staticmethod
    def _local(nodes):
        from repro.cluster import MachineSpec, transport

        if "local" not in transport.available_transports(nranks=nodes):
            pytest.skip("LocalTransport unavailable (no fork)")
        return MachineSpec(nodes=nodes, cores_per_node=1, transport="local")

    def test_a_warmed_dense_round_forks_nothing(self):
        import os
        from unittest import mock

        from repro.bench import reset_run_state
        from repro.cluster import transport
        from repro.runtime import observing_sections

        machine = self._local(2)
        problems = {app: APPS[app].make_problem(seed=7, **size)
                    for app, size in self.DENSE.items()}

        def a_round():
            for app, problem in problems.items():
                reset_run_state()  # a one-shot script's cold caches, as in the benchmark
                run = APPS[app].runners["triolet"](
                    problem, machine, costs_for(app, "triolet", problem))
                assert run.ok

        a_round()  # hires the crew
        decoded, sections = [], []
        frames = transport._FrameReader.frames

        def spy_frames(self):
            decoded.append(self.peer)  # in a member: that member's copy of the list
            return frames(self)

        with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                mock.patch.object(transport._FrameReader, "frames", spy_frames), \
                observing_sections(sections.append):
            a_round()
        assert len(sections) == 6 and all(s["nchunks"] == 2 for s in sections)
        assert fork.call_count == 0
        # the launcher decodes frames from ranks >= 1 only: their messages
        # to rank 0 and their outcomes, never anything from rank 0
        assert decoded and 0 not in decoded

    def test_a_warmed_deep_sweep_forks_nothing(self):
        """Eight iterations on 3 ranks are one section, and once its crew
        is hired the next sweep is sent to it."""
        import os
        from unittest import mock

        from repro.apps import jacobi

        machine = self._local(3)
        p = jacobi.make_problem(n=256, iterations=8)
        jacobi.run_triolet(p, machine)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            run = jacobi.run_triolet(p, machine)
        assert fork.call_count == 0
        assert run.value.tobytes() == jacobi.solve_ref(p).tobytes()

    def test_a_section_that_cannot_be_sent_forks_ranks_minus_one(self):
        """A lambda kernel does not pickle: every sweep hires its two
        members, as every section once did."""
        import os
        from unittest import mock

        import numpy as np

        from repro.runtime import triolet_runtime

        machine = self._local(3)
        for _ in range(2):
            with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                    triolet_runtime(machine) as rt:
                rt.stencil(rt.distribute(np.arange(64.0)), radius=1,
                           kernel=lambda x: 0.5 * (x[:-2] + x[2:]), iterations=4)
            assert fork.call_count == 2


@pytest.mark.perfsmoke
class TestMemberCallFloor:
    """The fixed cost a second ``local`` rank adds to a section, as a count:
    a member's Python-level calls from one report to the next -- the drain
    of one section, the job frame of the next decoded, its body run and
    reported -- on two fixed 2-rank programs.  Each stays within 10 % of
    what it was when the floor was last lowered, and a section sent again
    to members that hold its compiled plan names the plan, carrying no
    plan body.  Counts, not stopwatches (``TestBulkFormCallCount``'s rule
    for kernels, here for the section floor)."""

    #: program -> a member's calls per section, measured on the change that
    #: lowered the floor (the one before it: 487 and 358; before that, 513
    #: and 364)
    MEASURED = {"jacobi": 373, "sum": 286}

    @staticmethod
    def _programs(machine):
        import numpy as np

        import repro.triolet as tri
        from repro.apps import jacobi
        from repro.bench import reset_run_state
        from repro.runtime import triolet_runtime

        rod = jacobi.make_problem(n=256, iterations=4)
        x = np.arange(64.0)

        def sweeps():
            for _ in range(6):
                reset_run_state()
                assert jacobi.run_triolet(rod, machine).ok

        def sums():
            reset_run_state()
            with triolet_runtime(machine):
                for _ in range(6):
                    assert tri.sum(tri.par(tri.iterate(x))) == x.sum()

        return {"jacobi": sweeps, "sum": sums}

    @pytest.mark.parametrize("program", list(MEASURED))
    def test_a_members_calls_per_section_stay_at_the_floor(
        self, program, tmp_path, monkeypatch
    ):
        import statistics
        import sys

        from repro.cluster import transport
        from tests.cluster.test_transport_local import _on_its_own_thread

        counts = tmp_path / "calls"
        member = transport._member

        def counted(rank, ends, control, result, *rest):  # in the member
            calls = [0]

            def profile(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            send = transport._send_frame

            def reported(fd, frame, *more):
                send(fd, frame, *more)
                if fd == result:
                    with open(counts, "a") as f:
                        f.write(f"{calls[0]}\n")
                    calls[0] = 0

            transport._send_frame = reported
            sys.setprofile(profile)
            member(rank, ends, control, result, *rest)

        monkeypatch.setattr(transport, "_member", counted)
        machine = TestLocalSectionForkCount._local(2)
        # a crew of its own, hired with the counting member and retired
        # (every report written) when the thread is over
        _on_its_own_thread(self._programs(machine)[program])
        per_section = [int(n) for n in counts.read_text().split()]
        assert len(per_section) == 6
        # the first report also counts the hire: from the second on, one
        # section each
        assert statistics.median(per_section[1:]) <= self.MEASURED[program] * 1.1

    def test_a_repeated_section_names_the_plan_its_members_hold(self, monkeypatch):
        from repro.cluster import transport
        from tests.cluster.test_transport_local import _on_its_own_thread

        jobs, frame = [], transport._frame

        def spy(tag, payload, *more):
            out = frame(tag, payload, *more)
            if isinstance(payload, tuple) and len(payload) == 4:  # a job
                jobs.append(out)
            return out

        monkeypatch.setattr(transport, "_frame", spy)
        _on_its_own_thread(self._programs(TestLocalSectionForkCount._local(2))["sum"])
        # the first section hires (nothing is sent); the next carries the
        # compiled plan, every one after names it
        assert len(jobs) == 5
        plan = b"repro.core.engine.plan"
        assert plan in jobs[0] and not any(plan in job for job in jobs[1:])
        assert len(set(jobs[1:])) == 1 and len(jobs[1]) < len(jobs[0])


@pytest.mark.perfsmoke
class TestLauncherCallFloor:
    """The same fixed cost on the launcher's side: its Python-level calls
    per section on 2 ``local`` ranks less its calls for the same section
    on 1 -- launch, rank 0's share of the messages, join and the section's
    bookkeeping of a member -- on ``TestMemberCallFloor``'s two programs.
    Each stays within 10 % of what it was when the floor was last
    lowered.  Counts, not stopwatches."""

    #: program -> the launcher's extra calls per 2-rank section, measured on
    #: the change that lowered the floor (the one before it: 399 and 219)
    MEASURED = {"jacobi": 355, "sum": 191}

    @staticmethod
    def _per_section(program: str, nodes: int) -> int:
        """The launching thread's calls per section of *program* on
        *nodes* ``local`` ranks, once its crew is warm (a median)."""
        import statistics
        import sys

        import numpy as np

        import repro.triolet as tri
        from repro.apps import jacobi
        from repro.bench import reset_run_state
        from repro.runtime import triolet_runtime
        from tests.cluster.test_transport_local import _on_its_own_thread

        machine = TestLocalSectionForkCount._local(nodes)
        rod = jacobi.make_problem(n=256, iterations=4)
        x = np.arange(64.0)

        def counted(section) -> int:
            calls = [0]

            def profile(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            sys.setprofile(profile)
            try:
                section()
            finally:
                sys.setprofile(None)
            return calls[0]

        def sections() -> list:
            if program == "jacobi":
                counts = []
                for _ in range(6):
                    reset_run_state()
                    counts.append(counted(lambda: jacobi.run_triolet(rod, machine)))
                return counts
            reset_run_state()
            with triolet_runtime(machine):
                return [counted(lambda: tri.sum(tri.par(tri.iterate(x))))
                        for _ in range(6)]

        # the first sections hire and first send: from the third on, warm
        return statistics.median(_on_its_own_thread(sections)[2:])

    @pytest.mark.parametrize("program", list(MEASURED))
    def test_the_launchers_calls_per_second_rank_stay_at_the_floor(self, program):
        extra = self._per_section(program, 2) - self._per_section(program, 1)
        assert extra <= self.MEASURED[program] * 1.1


@pytest.mark.perfsmoke
class TestSimSectionThreadCount:
    """The ``sim`` launcher is rank 0 and ranks >= 1 run on its resident
    crew: a program in steady state starts no thread (a thread per rank
    per section was 12 starts a ``dense_sim`` round, 26 a ``faulted_sim``
    one), and a crew is bounded by the last run it served -- at most twice
    the threads that run used.  Counts, not stopwatches."""

    TPACF = dict(m=64, nr=32, nbins=1024)  # benchmarks/e2e/workloads.py DENSE

    def _op(self, nodes, **kw):
        from repro.cluster import MachineSpec
        from repro.runtime import observing_sections

        problem = APPS["tpacf"].make_problem(**self.TPACF)
        sections = []
        with observing_sections(sections.append):
            run = APPS["tpacf"].runners["triolet"](
                problem, MachineSpec(nodes=nodes, cores_per_node=1),
                costs_for("tpacf", "triolet", problem), **kw,
            )
        assert run.ok
        assert APPS["tpacf"].same_value(
            run.value, APPS["tpacf"].solve_ref(problem))
        return sections

    def test_a_warmed_op_starts_no_thread(self, thread_starts):
        self._op(2)
        del thread_starts[:]
        sections = self._op(2)
        assert [s["nchunks"] for s in sections] == [2, 2, 2]
        assert thread_starts == []

    def test_an_op_that_loses_a_rank_and_grows_back_starts_no_thread(
        self, thread_starts
    ):
        """3 ranks, 2 after the loss, 3 again for the next op: half the
        crew may sit a run out and still be there."""
        from repro.cluster.faults import FaultPlan, RankLoss
        from repro.runtime import FailureBudget, RecoveryPolicy

        def lossy():
            loss = RankLoss(rank=2, at=0.0, section=2)
            return self._op(
                3, faults=FaultPlan(faults=(loss,)), recovery=RecoveryPolicy(),
                budget=FailureBudget(max_rank_losses=2),
            )

        lossy()
        del thread_starts[:]
        sections = lossy()
        assert [s["attempts"] for s in sections] == [1, 1, 2]
        assert thread_starts == []

    def test_a_wide_flat_run_does_not_pin_its_threads(self, sim_crew):
        """The Eden baseline's shape -- 128 flat ranks -- then a 2-rank
        section: at most 2 ``sim-rank-*`` threads are left."""
        from repro.cluster import MachineSpec, run_spmd

        def rank_fn(comm):
            return comm.allreduce(1, op=lambda a, b: a + b)

        flat = MachineSpec(nodes=8, cores_per_node=16)
        run_spmd(flat, rank_fn, nranks=1)
        assert sim_crew.settles(0)  # from nobody resident
        assert run_spmd(flat, rank_fn, nranks=128, ranks_per_node=16,
                        real_timeout=30.0).results == [128] * 128
        assert len(sim_crew.names()) == 127
        assert run_spmd(flat, rank_fn, nranks=2).results == [2, 2]
        assert sim_crew.settles(2)


@pytest.mark.perfsmoke
class TestBoundSectionsRunToBlock:
    """On ``sim`` the ranks of a scalar-tier op take turns (they could only
    fight over the GIL), and the ranks of a vectorized op do not (their
    NumPy kernels overlap).  A count, not a stopwatch: the most ranks ever
    inside ``_node_execute`` at once, at the sizes of ``benchmarks/e2e``."""

    SMALL = {  # benchmarks/e2e/workloads.py
        "cutcp": dict(na=240, grid=(16, 16, 16), cutoff=2.0),
        "tpacf": dict(m=32, nr=8, nbins=128),
    }
    DENSE_MRIQ = dict(npix=6144, nk=64)

    def _run(self, app, params, vectorize):
        from repro.cluster import MachineSpec

        problem = APPS[app].make_problem(**params)
        with use_vectorization(vectorize):
            run = APPS[app].runners["triolet"](
                problem, MachineSpec(nodes=2, cores_per_node=1),
                costs_for(app, "triolet", problem),
            )
        assert run.ok

    @pytest.mark.parametrize("app", ["cutcp", "tpacf"])
    def test_scalar_op_has_one_rank_in_node_execute_at_a_time(
        self, app, monkeypatch, overlap_probe
    ):
        from repro.runtime import observing_sections
        from repro.runtime.driver import NodeModel

        node_execute = NodeModel._node_execute

        def probed(self, *args, **kw):
            with overlap_probe:
                return node_execute(self, *args, **kw)

        monkeypatch.setattr(NodeModel, "_node_execute", probed)
        sections = []
        with observing_sections(lambda payload: sections.append(payload["record"])):
            self._run(app, self.SMALL[app], vectorize=False)
        assert sections and all(s.plan is None and s.nodes == 2 for s in sections)
        assert overlap_probe.entries == 2 * len(sections)
        assert overlap_probe.max == 1

    def test_vectorized_mriq_is_launched_free_running(self, section_launches):
        self._run("mriq", self.DENSE_MRIQ, vectorize=True)
        assert section_launches and not any(section_launches)


@pytest.mark.perfsmoke
class TestRecoveryComputesNothingTwice:
    """``faulted_sim`` as a count: with the benchmark's plan (the last of 3
    ``sim`` ranks lost at t = 0 of the app's largest section) an op visits
    exactly as many elements as it does fault-free -- the survivors keep
    the two thirds they finished, the retry computes the lost third.  At
    the parent the retry recomputed everything: 2,999,175 visits a round
    where 1,856,109 do."""

    MID = {  # benchmarks/e2e/workloads.py
        "mriq": dict(npix=8192, nk=64),
        "sgemm": dict(n=96),
        "tpacf": dict(m=64, nr=32, nbins=1024),
        "cutcp": dict(na=4000, grid=(32, 32, 32), cutoff=2.0),
    }
    LOSS_SECTION = {"mriq": 0, "sgemm": 0, "tpacf": 2, "cutcp": 0}

    @pytest.mark.parametrize("app", sorted(MID))
    def test_a_faulted_op_tallies_the_fault_free_visits(self, app):
        from repro.cluster.faults import FaultPlan, RankLoss
        from repro.runtime import FailureBudget, RecoveryPolicy

        machine = PAPER_MACHINE.scaled(nodes=3, cores_per_node=1)
        problem = APPS[app].make_problem(seed=7, **self.MID[app])
        costs = costs_for(app, "triolet", problem)
        run = APPS[app].runners["triolet"]
        clean = run(problem, machine, costs)
        loss = RankLoss(rank=2, at=0.0, section=self.LOSS_SECTION[app])
        faulted = run(
            problem, machine, costs, faults=FaultPlan(faults=(loss,)),
            recovery=RecoveryPolicy(), budget=FailureBudget(max_rank_losses=2),
        )
        assert clean.ok and faulted.ok
        rep = faulted.detail["recovery"]
        assert (rep.rank_losses, rep.salvaged_chunks) == (1, 2)
        assert faulted.detail["meter"].visits == clean.detail["meter"].visits
        assert APPS[app].same_value(faulted.value, clean.value)

    def test_without_a_plan_no_partial_rides_an_outcome_frame(self):
        # The standing rule: what recovery needs costs nothing when no
        # fault can fire.  On ``local`` a rank's extras are pickled into
        # its outcome frame, so a published partial would be real bytes.
        from repro.cluster import MachineSpec, transport
        from repro.runtime import TrioletRuntime
        from repro.runtime.section import ISOLATED

        if "local" not in transport.available_transports(nranks=2):
            pytest.skip("LocalTransport unavailable (no fork)")
        problem = APPS["sgemm"].make_problem(seed=7, n=32)
        merge = TrioletRuntime._merge_rank_extras
        seen = []

        def spy(self, extras):
            seen.extend(set(ext) for ext in extras or ())
            return merge(self, extras)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TrioletRuntime, "_merge_rank_extras", spy)
            run = APPS["sgemm"].runners["triolet"](
                problem, MachineSpec(nodes=2, cores_per_node=1,
                                     transport="local"),
                costs_for("sgemm", "triolet", problem),
            )
        assert run.ok
        # per section: rank 0 ran in the launcher, rank 1 in a fork
        assert seen and seen == [set(), {ISOLATED}] * (len(seen) // 2)
