"""jacobi in Triolet: the ``stencil`` skeleton end to end.

The program is one line::

    rt.stencil(field, radius=1, kernel=jacobi_step, iterations=k)

The whole relaxation is one distributed section over the field's blocks:
each rank iterates on its own window and trades ghost rows with its
neighbours between iterations, the root gathers once.  The interesting
numbers are in ``detail["sections"]``: ``input_bytes`` is the one
placement of the blocks, ``exchange_bytes`` the ghost rows the ranks sent
each other (``iterations - 1`` times two rows per interior boundary), and
``halo_bytes`` those plus the first ghosts shipped with the blocks.
"""
from __future__ import annotations

import numpy as np

from repro.apps.common import AppRun
from repro.apps.jacobi.data import JacobiProblem
from repro.apps.jacobi.kernel import kernel_for
from repro.cluster.faults import FaultPlan
from repro.cluster.limits import RuntimeLimits, UNLIMITED
from repro.cluster.machine import MachineSpec
from repro.obs.spans import active as _obs_active, obs_span as _obs_span
from repro.runtime import (
    BOEHM_GC,
    DEFAULT_RECOVERY,
    AllocatorModel,
    CostContext,
    FailureBudget,
    RecoveryPolicy,
    triolet_runtime,
)


def run_triolet(
    p: JacobiProblem,
    machine: MachineSpec,
    costs: CostContext | None = None,
    alloc: AllocatorModel = BOEHM_GC,
    limits: RuntimeLimits = UNLIMITED,
    faults: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    budget: FailureBudget | None = None,
) -> AppRun:
    if costs is None:
        costs = CostContext()
    with triolet_runtime(
        machine,
        costs=costs,
        alloc=alloc,
        limits=limits,
        faults=faults,
        recovery=recovery,
        budget=budget,
    ) as rt:
        # The field shards by rows once; the sweep's iterations run where
        # the blocks are and move only ghost rows, rank to rank.
        field = rt.distribute(np.array(p.init, copy=True))
        with _obs_span("phase", "jacobi_relax"):
            rt.stencil(
                field,
                radius=p.radius,
                kernel=kernel_for(p),
                iterations=p.iterations,
                label="jacobi",
            )
        value = np.array(field.array, copy=True)
    detail = {
        "gc_time": rt.total_gc_time(),
        "meter": rt.meter_total,
        "data_plane": rt.plane.stats_dict(),
        "sections": [dict(s.data_plane) for s in rt.sections if s.data_plane],
    }
    if _obs_active() is not None:
        detail["obs"] = _obs_active().detail_snapshot()
    if faults is not None or rt.recovery_report.rejected_messages:
        detail["recovery"] = rt.recovery_report
    return AppRun(
        framework="triolet",
        value=value,
        elapsed=rt.elapsed,
        bytes_shipped=rt.total_bytes_shipped(),
        detail=detail,
    )
