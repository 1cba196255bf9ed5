"""Machine description: topology plus communication/compute constants.

The default constants describe the paper's testbed: 8 Amazon EC2 cluster
compute nodes, two 8-core Xeon E5-2670 each (16 cores/node, hyperthreading
off), 10 GbE interconnect, ranks within a node communicating over shared
memory.  Constants are order-of-magnitude calibrations, documented in
EXPERIMENTS.md; the *shape* of every figure comes from measured byte
volumes and partition sizes, not from these numbers alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NetworkModel:
    """LogGP-style link parameters.

    latency
        one-way wire latency L (seconds).
    bandwidth
        sustained point-to-point bandwidth (bytes/second).  The sender is
        occupied for ``nbytes / bandwidth`` while injecting, which is what
        makes a star topology's root a serial bottleneck.
    overhead
        per-message CPU overhead o (seconds) paid by sender and receiver.
    """

    latency: float = 50e-6
    bandwidth: float = 1.0e9
    overhead: float = 2e-6

    def __post_init__(self) -> None:
        # A link's times move virtual clocks forward, unchecked where used.
        if self.latency < 0 or self.overhead < 0 or not self.bandwidth > 0:
            raise ValueError(f"a link needs latency, overhead >= 0 and "
                             f"bandwidth > 0: {self}")

    def injection_time(self, nbytes: int) -> float:
        """Sender busy time for a message of *nbytes*."""
        return self.overhead + nbytes / self.bandwidth

    def availability_delay(self) -> float:
        """Extra delay before the last byte reaches the receiver."""
        return self.latency

    def receive_time(self) -> float:
        """Receiver busy time once the message is available."""
        return self.overhead


@dataclass(frozen=True)
class MachineSpec:
    """A cluster: ``nodes`` x ``cores_per_node`` cores.

    ``net`` is the inter-node interconnect; ``shm`` the intra-node
    shared-memory "link" used when two ranks share a node.
    """

    nodes: int = 8
    cores_per_node: int = 16
    net: NetworkModel = field(default_factory=NetworkModel)
    shm: NetworkModel = field(
        default_factory=lambda: NetworkModel(
            latency=0.5e-6, bandwidth=8.0e9, overhead=0.3e-6
        )
    )
    #: seconds to fork/join one intra-node worker task (thread-pool cost)
    thread_spawn_overhead: float = 2e-6
    #: seconds for one work-stealing steal attempt
    steal_overhead: float = 1e-6
    #: transport backend name the SPMD launcher resolves at run time:
    #: ``"sim"`` (deterministic in-process simulator, the default),
    #: ``"local"`` (real multiprocess ranks over shared memory/queues) or
    #: ``"mpi"`` (mpi4py buffer sends, when installed).  See
    #: :mod:`repro.cluster.transport`.
    transport: str = "sim"

    def __post_init__(self):
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("machine must have at least 1 node and 1 core")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def node_of(self, rank: int, ranks_per_node: int = 1) -> int:
        """Node index hosting *rank* when ranks are packed contiguously."""
        if rank < 0:
            raise ValueError(f"negative rank: {rank}")
        return rank // ranks_per_node

    def link(self, src_node: int, dst_node: int) -> NetworkModel:
        """The link model between two nodes (shared memory if equal)."""
        return self.shm if src_node == dst_node else self.net

    def scaled(self, nodes: int | None = None, cores_per_node: int | None = None) -> "MachineSpec":
        """A copy with a different shape but identical link constants."""
        return MachineSpec(
            nodes=self.nodes if nodes is None else nodes,
            cores_per_node=(
                self.cores_per_node if cores_per_node is None else cores_per_node
            ),
            net=self.net,
            shm=self.shm,
            thread_spawn_overhead=self.thread_spawn_overhead,
            steal_overhead=self.steal_overhead,
            transport=self.transport,
        )

    def with_transport(self, transport: str) -> "MachineSpec":
        """A copy running on a different transport backend."""
        from dataclasses import replace

        return replace(self, transport=transport)


#: The paper's evaluation machine.
PAPER_MACHINE = MachineSpec(nodes=8, cores_per_node=16)
