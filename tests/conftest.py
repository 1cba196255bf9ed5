"""Suite-wide configuration."""
import os
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, settings

#: The CPU mask the session started on (``None`` where there is no call).
_SESSION_MASK = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None

# Property tests drive real (simulated-cluster) executions whose wall
# time varies with machine load; disable the per-example deadline so the
# suite is robust on slow or shared machines.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    """Reset process-global engine state around every test.

    The fusion-plan cache and the serialization copy counters are
    process-wide; a test that asserts on cache hit rates or copy deltas
    must not observe traffic from whichever tests happened to run
    before it.  Resetting on both sides keeps tests order-independent
    in either direction (a test that *leaves* state behind cannot taint
    a later one, and a test that *needs* pristine state gets it).
    """
    from repro.core.fusion.planner import reset_planner
    from repro.obs.spans import force_disable
    import repro.serial as serial

    reset_planner()
    serial.reset()
    force_disable()
    yield
    reset_planner()
    serial.reset()
    force_disable()


@pytest.fixture(autouse=True)
def _no_pin_escapes():
    """A test leaves the main thread on the CPU mask the session started
    on: a pin that escapes a run fails the test that leaked it, not a
    later one that happens to run pinned."""
    yield
    if _SESSION_MASK is not None:
        mask = os.sched_getaffinity(0)
        if mask != _SESSION_MASK:  # the next test starts where it should
            os.sched_setaffinity(0, _SESSION_MASK)
        assert mask == _SESSION_MASK, (
            f"the main thread was left on CPUs {sorted(mask)}, "
            f"not {sorted(_SESSION_MASK)}")


class SimCrew:
    """The live resident ``sim`` rank threads of this process."""

    @staticmethod
    def threads() -> list[threading.Thread]:
        return [t for t in threading.enumerate() if t.name.startswith("sim-rank-")]

    @classmethod
    def names(cls) -> list[str]:
        return [t.name for t in cls.threads()]

    @classmethod
    def settles(cls, at_most: int | None = None, seconds: float = 10.0,
                gone=()) -> bool:
        """Retired threads end on their own time: poll, bounded, until at
        most *at_most* are left and none of *gone* (names or native ids)
        is.  A count alone can be reached while a thread it meant is still
        there, if another ended meanwhile: wait for identities where a
        test knows them."""
        gone = set(gone)

        def settled() -> bool:
            live = cls.threads()
            return (at_most is None or len(live) <= at_most) and not any(
                t.name in gone or t.native_id in gone for t in live)

        deadline = time.monotonic() + seconds
        while not settled() and time.monotonic() < deadline:
            time.sleep(0.005)
        return settled()


@pytest.fixture
def sim_crew():
    return SimCrew


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.fixture(scope="session", autouse=True)
def _no_thread_outlives_the_suite():
    """At the end of the session nothing but daemons is left beside this
    thread, and every resident ``sim`` rank thread is accounted for: a
    1-rank run leaves this thread's crew at twice nobody, the crews their
    members own go with them, and whoever is still there after that was
    orphaned or belongs to a launcher that never ended.  Then every crew
    retires, as at program exit, and the test process has no child left:
    not running, not unreaped."""
    yield
    from repro.cluster import MachineSpec, run_spmd, transport

    assert not [t.name for t in threading.enumerate()
                if t is not threading.current_thread() and not t.daemon]
    run_spmd(MachineSpec(nodes=1, cores_per_node=1), lambda comm: None, nranks=1)
    assert SimCrew.settles(0), SimCrew.names()
    transport._retire_every_crew()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class OverlapProbe:
    """Counts threads inside a region: ``with probe:`` around the code of
    interest, ``probe.max`` is the most that were ever in it at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.inside = 0
        self.max = 0
        self.entries = 0

    def __enter__(self):
        with self._lock:
            self.inside += 1
            self.entries += 1
            self.max = max(self.max, self.inside)

    def __exit__(self, *exc):
        with self._lock:
            self.inside -= 1


@pytest.fixture
def overlap_probe():
    """An :class:`OverlapProbe` under a 50 us GIL switch interval, so two
    runnable Python threads interleave hundreds of times per millisecond
    of work: regions that *can* overlap do."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    try:
        yield OverlapProbe()
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def section_launches(monkeypatch):
    """The ``run_to_block`` keyword of every ``run_spmd`` call the section
    engine makes while the test runs, in order."""
    from repro.runtime import section

    run_spmd = section.run_spmd
    seen = []

    def spy(*args, **kw):
        seen.append(kw["run_to_block"])
        return run_spmd(*args, **kw)

    monkeypatch.setattr(section, "run_spmd", spy)
    return seen


@pytest.fixture
def launches(monkeypatch):
    """Every ``run_spmd`` call the section engine makes while the test
    runs, in order: the ``SpmdResult`` it returned or the exception it
    raised, each with ``published`` -- per rank, whether it had published
    finished partials (read before the engine takes them).
    ``launches.kw`` overrides the engine's keywords."""
    from repro.runtime import section

    class Log(list):
        kw: dict = {}

    log = Log()
    run_spmd = section.run_spmd

    def spy(*args, **kw):
        try:
            out = run_spmd(*args, **{**kw, **log.kw})
        except BaseException as exc:
            out = exc
            raise
        finally:
            extras = getattr(out, "rank_extras", None) or getattr(
                out, "extras", None)
            out.published = [section.FINISHED in ext for ext in extras or ()]
            log.append(out)
        return out

    monkeypatch.setattr(section, "run_spmd", spy)
    return log
