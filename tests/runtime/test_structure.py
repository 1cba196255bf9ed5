"""Structure guard: the runtime has exactly one attempt loop.

``repro.runtime.section.run_section`` is the only place that launches an
SPMD run and classifies its failures; a section kind that grows its own
copy of that loop (as ``runtime/stencil.py`` once did) fails here, and so
does a second hand-built copy of what a section learned.
"""
import ast
from pathlib import Path

RUNTIME = Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"


def _called_name(call: ast.Call) -> str | None:
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def _imported_names(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.name.rsplit(".", 1)[-1])
                if alias.asname:
                    names.add(alias.asname)
    return names


def test_one_run_spmd_call_site_under_runtime():
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(RUNTIME.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _called_name(node) == "run_spmd"
    ]
    assert len(sites) == 1 and sites[0].startswith("section.py:"), sites


def test_a_section_ends_in_one_outcome_rendered_by_projection():
    """``run_section`` learns a section's facts into one ``SectionOutcome``
    and renders the ledger entry, the span, the observer payload and the
    ``RecoveryReport`` delta from it: the ledger entry *is* the outcome,
    ``_run`` is short, a failed attempt is ``_recover``'s, the only
    ``RecoveryReport(`` is the outcome's delta, and no dict literal,
    ``dict(`` or ``.set(`` call in ``section.py`` names an outcome field --
    a new fact is declared on the outcome, never copied by hand."""
    from dataclasses import fields

    from repro.runtime.section import SectionOutcome, SectionRecord

    tree = ast.parse((RUNTIME / "section.py").read_text())
    defs = {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}

    def calls(name: str, node: ast.AST = tree) -> list[ast.Call]:
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Call) and _called_name(n) == name]

    run = defs["_run"]
    in_run = list(ast.walk(run))
    assert run.end_lineno - run.lineno + 1 <= 120
    (recover,) = calls("_recover")
    assert recover in in_run
    assert SectionRecord is SectionOutcome and not calls("SectionRecord")
    assert all(c in in_run for c in calls("SectionOutcome"))
    (report,) = calls("RecoveryReport")
    assert report in list(ast.walk(defs["SectionOutcome"]))
    facts = {f.name for f in fields(SectionOutcome)}
    named = [
        f"{k.value}:{k.lineno}" for d in ast.walk(tree) if isinstance(d, ast.Dict)
        for k in d.keys if isinstance(k, ast.Constant) and k.value in facts
    ] + [
        f"{kw.arg}:{c.lineno}" for c in calls("set") + calls("dict")
        for kw in c.keywords if kw.arg in facts
    ]
    assert not named, named


def test_stencil_carries_no_attempt_loop_machinery():
    tree = ast.parse((RUNTIME / "stencil.py").read_text())
    banned = {"RankFailure", "classify_failure", "PermanentFault", "run_spmd"}
    assert not banned & _imported_names(tree)
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.While)]


def test_a_stencil_call_is_one_section_with_no_second_path():
    """``run_stencil`` calls ``run_section`` exactly once and never under
    a loop (the iterations are supersteps *inside* the section), and how
    the halos travel is not a setting: no ``fused`` / ``exchange``
    argument, here or on ``rt.stencil``."""
    tree = ast.parse((RUNTIME / "stencil.py").read_text())
    (fn,) = [n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name == "run_stencil"]
    calls = [n for n in ast.walk(fn)
             if isinstance(n, ast.Call) and _called_name(n) == "run_section"]
    assert len(calls) == 1
    looped = [
        call.lineno
        for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and _called_name(call) == "run_section"
    ]
    assert not looped
    assert [a.arg for a in fn.args.args] == [
        "rt", "handle", "radius", "kernel", "iterations", "label"]
    assert not fn.args.kwonlyargs and fn.args.kwarg is None
    driver = ast.parse((RUNTIME / "driver.py").read_text())
    (method,) = [n for n in ast.walk(driver)
                 if isinstance(n, ast.FunctionDef) and n.name == "stencil"]
    assert [a.arg for a in method.args.args] == [
        "self", "handle", "radius", "kernel", "iterations", "label"]
    assert "environ" not in (RUNTIME / "stencil.py").read_text()


def test_the_local_launcher_has_one_fork_site_and_no_transport_wide_heap_flag():
    """``LocalTransport`` forks ranks >= 1 in one place (no second launcher
    kept beside it), and the engine asks each rank's ``Comm`` where it
    runs, never the transport."""
    transport = RUNTIME.parent / "cluster" / "transport.py"
    forks = [
        node.lineno
        for node in ast.walk(ast.parse(transport.read_text()))
        if isinstance(node, ast.Call) and _called_name(node) == "fork"
    ]
    assert len(forks) == 1, forks
    assert "shared_heap" not in (RUNTIME / "section.py").read_text()


def test_sim_has_one_thread_start_site_one_launcher_and_no_setting():
    """``SimTransport`` hires its resident crew in one place -- the only
    ``threading.Thread(`` of ``cluster/transport.py`` -- with no launcher
    that starts a thread per rank per section kept beside it, and how many
    threads stay is a stated rule, not a setting: ``execute`` takes what
    every transport's does, the class takes nothing, and the file reads
    no environment."""
    source = (RUNTIME.parent / "cluster" / "transport.py").read_text()
    tree = ast.parse(source)

    def thread_sites(node: ast.AST) -> list[int]:
        return [
            n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and _called_name(n) == "Thread"
        ]

    (sim,) = [
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == "SimTransport"
    ]
    assert len(thread_sites(sim)) == 1 and thread_sites(tree) == thread_sites(sim)
    methods = {n.name: n for n in sim.body if isinstance(n, ast.FunctionDef)}
    assert "__init__" not in methods
    assert [a.arg for a in methods["execute"].args.args] == [
        "self", "ctx", "rank_fn", "args"]
    assert not [n for n in ast.walk(sim) if isinstance(n, ast.Call)
                and _called_name(n) in ("join", "Timer")]
    assert "environ" not in source and "getenv" not in source


def test_local_has_one_fork_site_one_child_main_loop_and_no_setting():
    """``LocalTransport`` hires its resident crew in one place -- the only
    ``fork(`` of ``cluster/transport.py`` -- replacing the per-section
    launcher rather than sitting beside it; a member's whole life is one
    loop; and how long a crew lives is a stated rule, not a setting: no
    keyword on the class, ``execute``, ``run_spmd`` or ``MachineSpec``, no
    environment, nothing for ``reset_run_state`` to reset."""
    import dataclasses
    import inspect

    from repro.bench import reset_run_state
    from repro.cluster import MachineSpec, run_spmd

    source = (RUNTIME.parent / "cluster" / "transport.py").read_text()
    tree = ast.parse(source)
    (local,) = [
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == "LocalTransport"
    ]
    forks = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call) and _called_name(n) == "fork"]
    assert len(forks) == 1 and forks[0] in list(ast.walk(local))
    loops = [n for n in tree.body
             if isinstance(n, ast.FunctionDef) and n.name == "_member"]
    calls = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call) and _called_name(n) == "_member"]
    assert len(loops) == 1 and len(calls) == 1 and calls[0] in list(ast.walk(local))
    methods = {n.name: n for n in local.body if isinstance(n, ast.FunctionDef)}
    assert [a.arg for a in methods["__init__"].args.args] == ["self", "shm_min_bytes"]
    assert [a.arg for a in methods["execute"].args.args] == [
        "self", "ctx", "rank_fn", "args"]
    assert "environ" not in source and "getenv" not in source
    knobs = {"persistent", "pool", "pool_size", "crew", "idle_timeout", "keep",
             "pin", "affinity", "cpu", "cpus"}
    assert not knobs & set(inspect.signature(run_spmd).parameters)
    assert not knobs & {f.name for f in dataclasses.fields(MachineSpec)}
    reset = inspect.getsource(reset_run_state)
    assert "crew" not in reset and "Transport" not in reset


def test_the_wire_touches_no_filesystem():
    """``local`` moves large payloads through windows its crew keeps, not
    through files: ``cluster/transport.py`` imports neither ``tempfile``
    nor ``shutil``."""
    tree = ast.parse((RUNTIME.parent / "cluster" / "transport.py").read_text())
    assert not {"tempfile", "shutil"} & _imported_names(tree)


def test_the_rank_baton_is_sims_alone_and_the_runtime_takes_no_lock():
    """How ``sim`` schedules its rank threads is the transport's business:
    every ``threading.Lock(`` of ``cluster/transport.py`` sits inside
    ``SimTransport`` (ranks that are processes share no GIL and get no
    baton), and the runtime -- which only says whether a section's ranks
    could overlap -- never touches a lock itself."""
    tree = ast.parse((RUNTIME.parent / "cluster" / "transport.py").read_text())

    def lock_sites(node: ast.AST) -> list[int]:
        return [
            n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and _called_name(n) in ("Lock", "RLock")
        ]

    (sim,) = [
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == "SimTransport"
    ]
    assert lock_sites(sim) and lock_sites(sim) == lock_sites(tree)
    for path in sorted(RUNTIME.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert "threading" not in _imported_names(tree), path.name
        taken = [
            f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and _called_name(n) in ("Lock", "RLock", "acquire", "release")
        ]
        assert not taken, taken


def test_cpu_placement_is_sims_alone_and_the_runtime_places_nothing():
    """Where a baton run's threads execute is ``SimTransport``'s business,
    as the baton is: every ``sched_*affinity`` call in ``src/`` sits inside
    that class, and ``runtime/`` neither calls nor names one."""
    src = RUNTIME.parent
    inside, outside = [], []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        sim = {
            id(node) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "SimTransport"
            for node in ast.walk(cls)
        } if path == src / "cluster" / "transport.py" else set()
        for n in ast.walk(tree):
            name = _called_name(n) if isinstance(n, ast.Call) else None
            if name and name.startswith("sched_") and name.endswith("affinity"):
                site = f"{path.relative_to(src)}:{n.lineno}"
                (inside if id(n) in sim else outside).append(site)
    assert inside and not outside, outside
    for path in sorted(RUNTIME.rglob("*.py")):
        assert "affinity" not in path.read_text(), path.name


def test_every_transport_runs_a_rank_through_one_body_and_run_spmd_assembles():
    """A rank's body is written once: ``rank_fn(`` and ``_rank_extras.set(``
    each appear once in ``cluster/transport.py``, inside ``_run_rank``.  A
    transport hands back its ranks' ``RankEnd``s and wall stamps, nothing
    it assembled itself: every ``RunOutcome(`` takes one list of ends, and
    ``run_spmd`` builds results, clocks, extras, metrics and each
    ``RankFailureInfo`` from them."""
    from concurrent.futures import ThreadPoolExecutor
    from dataclasses import fields

    from repro.cluster import MachineSpec
    from repro.cluster.comm import SimContext
    from repro.cluster.transport import (
        RankEnd, RunOutcome, available_transports, resolve_transport)

    cluster = RUNTIME.parent / "cluster"
    tree = ast.parse((cluster / "transport.py").read_text())

    def calls(test) -> list[ast.Call]:
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and test(n.func)]

    (body,) = [n for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name == "_run_rank"]
    inside = {id(n) for n in ast.walk(body)}
    for test in (
        lambda f: isinstance(f, ast.Name) and f.id == "rank_fn",
        lambda f: isinstance(f, ast.Attribute) and f.attr == "set"
        and isinstance(f.value, ast.Name) and f.value.id == "_rank_extras",
    ):
        sites = calls(test)
        assert len(sites) == 1 and id(sites[0]) in inside, [n.lineno for n in sites]
    # ... nor runs one in a context of its own, nor makes up an end that
    # is not the error of a rank that never reported one
    runs = [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and _called_name(n) == "run"]
    assert runs and all(
        isinstance(c.args[0], ast.Name) and c.args[0].id == "_run_rank"
        for c in runs), [c.lineno for c in runs]
    for call in calls(lambda f: isinstance(f, ast.Name) and f.id == "RankEnd"):
        assert id(call) in inside or ast.literal_eval(call.args[0]) == "error"

    stamps = ["wall_seconds", "launch_s", "root_s", "join_s"]
    assert [f.name for f in fields(RunOutcome)] == ["ends", *stamps]
    outcomes = calls(lambda f: isinstance(f, ast.Name) and f.id == "RunOutcome")
    assert len(outcomes) == 2  # sim, local
    for call in outcomes:
        assert len(call.args) == 1 and {k.arg for k in call.keywords} <= set(stamps)
    machine = MachineSpec(nodes=3, cores_per_node=1)
    with ThreadPoolExecutor(1) as pool:  # whose crews go with its thread
        for name in available_transports(nranks=3):
            out = pool.submit(resolve_transport(name).execute,
                              SimContext(machine=machine, nranks=3),
                              _rank_of, ()).result()
            assert [(type(e), e.status, e.payload) for e in out.ends] == [
                (RankEnd, "ok", r) for r in range(3)]

    process = ast.parse((cluster / "process.py").read_text())
    infos = [n for n in ast.walk(process) if isinstance(n, ast.ListComp)
             and isinstance(n.elt, ast.Call)
             and _called_name(n.elt) == "RankFailureInfo"]
    built = [n for n in ast.walk(process)
             if isinstance(n, ast.Call) and _called_name(n) == "RankFailureInfo"]
    assert len(infos) == len(built) == 1
    assert "out.ends" in ast.unparse(infos[0].generators[0].iter)
    assert "out.errors" not in ast.unparse(process)


def _rank_of(comm):
    return comm.rank


def test_every_exported_name_resolves():
    """Each string in the ``__all__`` of every ``repro`` module resolves
    with ``getattr``: deleting a function and forgetting its export in a
    package's ``__init__`` (``from x import *`` and docs tools read it)
    fails here, not at a user's import."""
    import importlib
    import pkgutil

    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
