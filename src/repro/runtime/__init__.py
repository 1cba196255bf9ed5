"""The Triolet runtime: two-level parallelism over the simulated cluster."""
from repro.runtime.costs import CostContext, use_costs, current_costs
from repro.runtime.driver import TrioletRuntime, NodeContext, triolet_runtime
from repro.runtime.section import (
    SectionRecord,
    add_section_observer,
    remove_section_observer,
    observing_sections,
)
from repro.runtime.gc_model import (
    AllocatorModel,
    BOEHM_GC,
    LIBC_MALLOC,
    GHC_GC,
    FREE_ALLOC,
)
from repro.runtime.checkpoint import (
    CheckpointConfig,
    CheckpointPolicy,
    CheckpointStore,
    run_restartable,
)
from repro.runtime.recovery import (
    RecoveryPolicy,
    RecoveryReport,
    DEFAULT_RECOVERY,
    NO_RECOVERY,
    FailureBudget,
    JobFailure,
    TransientFault,
    PermanentFault,
    BudgetExhausted,
    classify_failure,
)
from repro.runtime.stencil import run_stencil
from repro.runtime.worksteal import work_stealing_makespan, static_for_makespan

__all__ = [
    "run_stencil",
    "RecoveryPolicy",
    "RecoveryReport",
    "DEFAULT_RECOVERY",
    "NO_RECOVERY",
    "FailureBudget",
    "JobFailure",
    "TransientFault",
    "PermanentFault",
    "BudgetExhausted",
    "classify_failure",
    "CheckpointConfig",
    "CheckpointPolicy",
    "CheckpointStore",
    "run_restartable",
    "CostContext",
    "use_costs",
    "current_costs",
    "TrioletRuntime",
    "SectionRecord",
    "NodeContext",
    "triolet_runtime",
    "add_section_observer",
    "remove_section_observer",
    "observing_sections",
    "AllocatorModel",
    "BOEHM_GC",
    "LIBC_MALLOC",
    "GHC_GC",
    "FREE_ALLOC",
    "work_stealing_makespan",
    "static_for_makespan",
]
