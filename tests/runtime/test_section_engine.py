"""The section-engine contract: every kind of distributed section gets
the same recovery accounting and the same observer payload, because one
attempt loop (``repro.runtime.section.run_section``) serves them all."""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import FaultPlan, MachineSpec, RankCrash, RankLoss
from repro.runtime import (
    BudgetExhausted,
    FailureBudget,
    PermanentFault,
    observing_sections,
    triolet_runtime,
)
from repro.testing.kernels import k_square

pytestmark = pytest.mark.recovery

MACHINE = MachineSpec(nodes=4, cores_per_node=2)
FIELD = (np.arange(512.0) * 7.0) % 23.0

PAYLOAD_KEYS = {
    "runtime", "record", "iterator", "partition", "bounds", "nchunks",
    "ship", "spec", "attempts", "dead_ranks", "survivors", "rank_losses",
}


def _relax(xpad):
    return 0.5 * (xpad[:-2] + xpad[2:])


def _pipeline(rt):
    return tri.sum(tri.map(k_square, tri.par(rt.distribute(FIELD.copy()))))


def _stencil(rt):
    h = rt.distribute(FIELD.copy())
    rt.stencil(h, radius=1, kernel=_relax, iterations=1)
    return h.array.copy()


KINDS = {"pipeline": _pipeline, "stencil": _stencil}

#: scenario -> (fault, runtime keywords (a factory: budgets are stateful),
#:              raised error,
#:              (attempts, reexecuted_chunks, rank_losses, failure))
SCENARIOS = {
    "crash": (RankCrash(rank=2, at=1e-6), dict, None, (2, 3, 0, None)),
    "loss": (RankLoss(rank=1, at=1e-6), dict, None, (2, 3, 1, None)),
    "budget": (
        RankLoss(rank=1, at=1e-6),
        lambda: {"budget": FailureBudget(max_rank_losses=0)},
        BudgetExhausted,
        (0, 0, 0, "budget"),
    ),
    "unrecoverable": (
        RankLoss(rank=1, at=1e-6), lambda: {"recovery": None}, PermanentFault,
        (0, 0, 0, "permanent"),
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", KINDS)
def test_same_recovery_contract_from_every_kind(kind, scenario):
    fault, make_kwargs, error, expected = SCENARIOS[scenario]
    payloads = []
    with triolet_runtime(MACHINE) as clean:
        want = KINDS[kind](clean)
    with observing_sections(payloads.append), triolet_runtime(
        MACHINE, faults=FaultPlan(faults=(fault,)), **make_kwargs()
    ) as rt:
        if error is None:
            got = KINDS[kind](rt)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        else:
            with pytest.raises(error):
                KINDS[kind](rt)
    rep = rt.recovery_report
    assert (rep.attempts, rep.reexecuted_chunks, rep.rank_losses,
            rep.failure) == expected
    if error is None:
        assert rep.added_time > 0
        assert rt.last_section.recovery.added_time == rep.added_time
        (payload,) = payloads
        extra = {"halo"} if kind == "stencil" else set()
        assert set(payload) == PAYLOAD_KEYS | extra
        assert payload["attempts"] == 2 and payload["dead_ranks"] == 1
        assert payload["survivors"] == 3 == payload["nchunks"]
        assert payload["rank_losses"] == rep.rank_losses
        assert payload["record"] is rt.last_section
    else:
        assert rep.added_time == 0 and not payloads and not rt.sections
