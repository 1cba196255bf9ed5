"""Simulated distributed-memory cluster (substrate).

The paper evaluates on 8 nodes x 16 cores with OpenMPI.  This sandbox has
two cores and no MPI, so the cluster is *simulated*: every MPI rank runs as
a real Python thread exchanging really-serialized messages over in-process
channels, and each rank carries a causal virtual clock advanced by a
LogGP-style cost model.  Numerical results are therefore real; elapsed
time is virtual and deterministic.

Timing semantics (see :mod:`repro.cluster.simclock`):

* compute work advances only the local clock;
* ``send`` charges the sender ``o + nbytes/bandwidth`` and stamps the
  message available at ``sender_finish + latency``;
* ``recv`` sets the receiver clock to ``max(own clock, availability) + o``.

Makespan is the maximum final clock over ranks.  Because availability
stamps are computed causally from the clocks, the simulation is
deterministic regardless of OS thread scheduling.
"""
from repro.cluster.machine import MachineSpec, NetworkModel
from repro.cluster.simclock import VirtualClock
from repro.cluster.comm import Comm
from repro.cluster import collectives  # noqa: F401 -- loaded before any fork
from repro.cluster.limits import RuntimeLimits, BufferOverflowError
from repro.cluster.faults import (
    FaultPlan,
    DelaySpike,
    SendFault,
    RankCrash,
    RankLoss,
    SlowNode,
    TransientSendError,
    RankFailure,
    RankFailureInfo,
    RankFailureGroup,
)
from repro.cluster.process import run_spmd, SpmdResult, SimAborted, SimDeadlockError
from repro.cluster.metrics import RankMetrics, RunMetrics
from repro.cluster.transport import (
    Transport,
    TransportUnavailable,
    SimTransport,
    LocalTransport,
    MPITransport,
    available_transports,
    register_transport,
    resolve_transport,
)

__all__ = [
    "MachineSpec",
    "NetworkModel",
    "VirtualClock",
    "Comm",
    "RuntimeLimits",
    "BufferOverflowError",
    "FaultPlan",
    "DelaySpike",
    "SendFault",
    "RankCrash",
    "RankLoss",
    "SlowNode",
    "TransientSendError",
    "RankFailure",
    "RankFailureInfo",
    "RankFailureGroup",
    "run_spmd",
    "SpmdResult",
    "SimAborted",
    "SimDeadlockError",
    "RankMetrics",
    "RunMetrics",
    "Transport",
    "TransportUnavailable",
    "SimTransport",
    "LocalTransport",
    "MPITransport",
    "available_transports",
    "register_transport",
    "resolve_transport",
]
