"""JobServer core semantics: attach, share, isolate.

The contract under test: a resident server shares the *expensive* state
(cluster, plans, placements) while keeping per-job accounting isolated
-- and sharing changes when work happens, never what is computed.
"""
import numpy as np
import pytest

from repro.bench.calibrate import costs_for
from repro.bench.harness import make_problem
from repro.cluster.machine import PAPER_MACHINE
from repro.service import (
    JobCancelled,
    JobServer,
    JobStatus,
    mriq_job,
    register_mriq_dataset,
    run_solo,
    sgemm_job,
)

pytestmark = pytest.mark.service

MACHINE = PAPER_MACHINE.scaled(nodes=2, cores_per_node=2)


@pytest.fixture(scope="module")
def mriq_problem():
    return make_problem("mriq")


@pytest.fixture(scope="module")
def sgemm_problem():
    return make_problem("sgemm")


def test_submit_is_async_and_result_runs_the_queue(mriq_problem):
    srv = JobServer(MACHINE, costs=costs_for("mriq", "triolet", mriq_problem))
    h = srv.submit(mriq_job(mriq_problem), name="m")
    assert h.status() is JobStatus.PENDING
    assert srv.now == 0.0  # nothing ran yet
    value = h.result()
    assert h.status() is JobStatus.DONE
    assert srv.now > 0.0
    solo, _ = run_solo(
        mriq_job(mriq_problem), MACHINE,
        costs=costs_for("mriq", "triolet", mriq_problem),
    )
    assert np.array_equal(value, solo)


def test_repeat_job_hits_shared_plan_cache(mriq_problem):
    """Cross-job sharing: the second identical job compiles nothing."""
    srv = JobServer(MACHINE, costs=costs_for("mriq", "triolet", mriq_problem))
    h1 = srv.submit(mriq_job(mriq_problem), name="m1")
    h2 = srv.submit(mriq_job(mriq_problem), name="m2")
    srv.drain()
    assert h1.metrics["planner"]["compiled"] > 0  # cold: paid compilation
    assert h2.metrics["planner"]["compiled"] == 0
    assert h2.metrics["planner"]["hits"] > 0
    assert np.array_equal(h1.result(), h2.result())


def test_resident_dataset_ships_zero_bytes_on_repeat(mriq_problem):
    """A registered dataset is distributed once; later jobs -- any
    tenant -- find the shards resident and ship zero input bytes for
    them (replicated closure arrays dedupe the same way)."""
    p = mriq_problem
    srv = JobServer(MACHINE, costs=costs_for("mriq", "triolet", p))
    srv.add_tenant("a")
    srv.add_tenant("b")
    register_mriq_dataset(srv, "mriq", p)
    h1 = srv.submit(mriq_job(p, dataset="mriq"), tenant="a", name="m1")
    h2 = srv.submit(mriq_job(p, dataset="mriq"), tenant="b", name="m2")
    srv.drain()
    assert h1.metrics["plane"]["input_bytes"] > 0
    assert h2.metrics["plane"]["input_bytes"] == 0
    assert h2.metrics["plane"]["placements"] == 0
    assert h2.metrics["plane"]["resident_hits"] > 0
    assert np.array_equal(h1.result(), h2.result())


def test_distribute_dedupes_rebuilt_equal_content_arrays(sgemm_problem):
    """sgemm rebuilds BT inside every job; content dedupe maps the
    rebuilt array onto the first job's resident handle."""
    p = sgemm_problem
    srv = JobServer(MACHINE, costs=costs_for("sgemm", "triolet", p))
    h1 = srv.submit(sgemm_job(p), name="s1")
    h2 = srv.submit(sgemm_job(p), name="s2")
    srv.drain()
    assert h2.metrics["plane"]["dedup_hits"] >= 2  # A by identity, BT by content
    assert h2.metrics["plane"]["input_bytes"] == 0
    assert h2.metrics["planner"]["compiled"] == 0
    assert np.array_equal(h1.result(), h2.result())


def test_per_job_accounting_is_isolated(mriq_problem):
    """Identical jobs report identical isolated metrics: the second
    job's meter does not include the first job's visits."""
    p = mriq_problem
    srv = JobServer(MACHINE, costs=costs_for("mriq", "triolet", p))
    h1 = srv.submit(mriq_job(p), name="m1")
    h2 = srv.submit(mriq_job(p), name="m2")
    srv.drain()
    assert h1.metrics["visits"] == h2.metrics["visits"] > 0
    assert h1.metrics["sections"] == h2.metrics["sections"]
    # the repeat is *faster* in virtual time (no input shipping)
    assert h2.metrics["virtual_seconds"] <= h1.metrics["virtual_seconds"]
    # and the server's timeline is the sum of the isolated durations
    assert srv.now == pytest.approx(
        h1.metrics["virtual_seconds"] + h2.metrics["virtual_seconds"]
    )


def test_cancel_pending_job(mriq_problem):
    p = mriq_problem
    srv = JobServer(MACHINE, costs=costs_for("mriq", "triolet", p))
    h1 = srv.submit(mriq_job(p), name="m1")
    h2 = srv.submit(mriq_job(p), name="m2")
    assert h2.cancel()
    assert h2.status() is JobStatus.CANCELLED
    assert not h2.cancel()  # idempotent: already finished
    srv.drain()
    assert h1.status() is JobStatus.DONE
    with pytest.raises(JobCancelled):
        h2.result()


def test_programming_errors_surface_at_result(mriq_problem):
    srv = JobServer(MACHINE)

    def bad(ctx):
        raise ValueError("job bug")

    h = srv.submit(bad, name="bad")
    ok = srv.submit(mriq_job(mriq_problem), name="ok")
    srv.drain()  # the failed job must not wedge the queue
    assert h.status() is JobStatus.FAILED
    with pytest.raises(ValueError, match="job bug"):
        h.result()
    assert ok.status() is JobStatus.DONE


def test_closed_server_refuses_submissions(mriq_problem):
    srv = JobServer(MACHINE)
    h = srv.submit(mriq_job(mriq_problem))
    srv.close()
    assert h.status() is JobStatus.CANCELLED
    with pytest.raises(RuntimeError, match="closed"):
        srv.submit(mriq_job(mriq_problem))
