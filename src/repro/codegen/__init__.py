"""Back-end: runtime-call emission, program reassembly, and execution.

After Loop Tactics has matched kernels and the transformations have mapped
them to the device, this package

* defines the runtime call interface the compiler emits
  (:mod:`repro.codegen.runtime_calls` — the ``polly_cim*`` entry points of
  Listing 1),
* reassembles the transformed SCoPs into a complete program
  (:mod:`repro.codegen.lowering`),
* and executes compiled programs against the simulated system
  (:mod:`repro.codegen.executor`), dispatching runtime calls to
  :mod:`repro.runtime` and host statements to the IR interpreter.
"""

from repro.codegen.runtime_calls import (
    CIM_INIT,
    CIM_MALLOC,
    CIM_FREE,
    CIM_HOST_TO_DEV,
    CIM_DEV_TO_HOST,
    CIM_GEMM,
    CIM_GEMV,
    CIM_GEMM_BATCHED,
    CIM_CONV2D,
    KernelCallArgs,
    BatchedGemmCallArgs,
    Slot,
    MallocCallArgs,
    CopyCallArgs,
    InitCallArgs,
)
from repro.codegen.lowering import reassemble_program
from repro.codegen.executor import OffloadExecutor, ExecutionReport

__all__ = [
    "CIM_INIT",
    "CIM_MALLOC",
    "CIM_FREE",
    "CIM_HOST_TO_DEV",
    "CIM_DEV_TO_HOST",
    "CIM_GEMM",
    "CIM_GEMV",
    "CIM_GEMM_BATCHED",
    "CIM_CONV2D",
    "KernelCallArgs",
    "BatchedGemmCallArgs",
    "Slot",
    "MallocCallArgs",
    "CopyCallArgs",
    "InitCallArgs",
    "reassemble_program",
    "OffloadExecutor",
    "ExecutionReport",
]
