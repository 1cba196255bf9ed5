"""A resident server keeps a ledger, not its jobs' results.

``JobServer.records`` lives as long as the server.  A job's value, its
error and its closure must not: they belong to the job's handle, and go
when the last holder of the handle lets go.
"""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import MachineSpec
from repro.service import JobCancelled, JobServer, JobStatus

pytestmark = pytest.mark.service

MACHINE = MachineSpec(nodes=2, cores_per_node=1)
PAYLOAD_BYTES = 64 << 10


def _job(i, values):
    """A job that captures 64 KiB and returns another 64 KiB; *values*
    collects a weak reference to each returned array."""
    payload = np.full(PAYLOAD_BYTES // 8, float(i))

    def fn(ctx):
        assert tri.sum(tri.par(payload)) == i * len(payload)
        value = payload * 2.0
        values.append(weakref.ref(value))
        return value

    return fn, weakref.ref(payload)


def _serve(srv, ids, values, payloads):
    """Submit, run and check one job per id, keeping no handle."""
    for i in ids:
        fn, payload = _job(i, values)
        payloads.append(payload)
        assert srv.submit(fn, tenant="a").result()[0] == 2.0 * i


def test_results_live_as_long_as_their_handles():
    srv = JobServer(MACHINE)
    srv.add_tenant("a")
    values, payloads = [], []
    kept = srv.submit(_job(7, values)[0], tenant="a", name="kept")
    boom = RuntimeError("boom")

    def failing(ctx):
        raise boom

    failed = srv.submit(failing, tenant="a", name="failed")
    withdrawn = srv.submit(_job(8, [])[0], tenant="a", name="withdrawn")
    assert withdrawn.cancel()
    # Driven from here, not from inside _serve: a stored exception keeps
    # the stack it was raised under, the frame of the result() call that
    # ran the job and so that call's handle included.
    with pytest.raises(RuntimeError):
        failed.result()

    _serve(srv, range(100), values, payloads)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _serve(srv, range(100, 200), values, payloads)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    # the ledger costs a couple of KiB a job; a pinned result alone is 64
    assert grown / 100 < 4096
    assert len(values) == 201 and len(payloads) == 200
    assert values[0]() is kept.result()  # "kept" ran first and is still held
    assert all(ref() is None for ref in values[1:])
    assert all(ref() is None for ref in payloads)

    assert kept.result()[0] == 14.0
    with pytest.raises(RuntimeError) as caught:
        failed.result()
    assert caught.value is boom
    with pytest.raises(JobCancelled):
        withdrawn.result()
    assert srv.report()["jobs"] == {
        "submitted": 203, "done": 201, "failed": 1, "cancelled": 1,
        "pending": 0,
    }
    # what stays is the ledger the scheduler tests and report() read
    rec = srv.records[3]
    assert (rec.name, rec.tenant, rec.status) == ("job-3", "a", JobStatus.DONE)
    assert rec.finish_vtime > rec.start_vtime >= rec.submit_vtime
    assert rec.metrics["sections"] == 1
    assert rec.fn is None and rec.result is None

    del kept
    gc.collect()
    assert values[0]() is None
