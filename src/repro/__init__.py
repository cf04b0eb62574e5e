"""TDO-CIM: Transparent Detection and Offloading for Computation In-memory.

A Python reproduction of the DATE 2020 paper by Vadivel et al.: an
end-to-end compilation flow that transparently detects linear-algebra
kernels, optimises them for a PCM-crossbar compute-in-memory accelerator,
and offloads them through a lightweight runtime library — together with the
full emulated hardware/software stack (accelerator, driver, runtime, host
model) and the evaluation harness that regenerates the paper's table and
figures.

Typical usage::

    from repro import compile_source, OffloadExecutor

    result = compile_source(c_source)          # detect + optimise + offload
    print(result.report.summary())             # what the compiler did
    executor = OffloadExecutor()               # emulated Arm-A7 + CIM system
    outputs, report = executor.run(result.program, params, arrays)
    print(report.total_energy_j, report.edp)
"""

from repro.blas_threads import pin_blas_threads, started_as_cli

if started_as_cli():
    # One BLAS thread in the ``repro`` command: before the imports below
    # load NumPy (see repro.blas_threads).
    pin_blas_threads()

from repro.compiler import (
    CompileOptions,
    CompilationReport,
    CompilationResult,
    PipelineError,
    TdoCimCompiler,
    compile_source,
)
from repro.codegen import OffloadExecutor, ExecutionReport
from repro.fleet import FaultPlan, FleetConfig, FleetServer
from repro.gateway import (
    AsyncGateway,
    GatewayConfig,
    LoadReport,
    run_differential,
    run_open_loop,
)
from repro.ir import ENGINE_MODES, VectorizedEngine, make_engine
from repro.serve import CimServer, ServerConfig, TenantQuota
from repro.system import CimSystem, SystemConfig
from repro.trace import (
    Trace,
    TraceFormatError,
    TraceRecorder,
    TraceReplayer,
    diff_traces,
    load_trace,
)

__version__ = "1.15.0"

__all__ = [
    "AsyncGateway",
    "GatewayConfig",
    "LoadReport",
    "run_differential",
    "run_open_loop",
    "CompileOptions",
    "CompilationReport",
    "CompilationResult",
    "PipelineError",
    "TdoCimCompiler",
    "compile_source",
    "OffloadExecutor",
    "ExecutionReport",
    "CimServer",
    "ServerConfig",
    "TenantQuota",
    "FaultPlan",
    "FleetConfig",
    "FleetServer",
    "CimSystem",
    "SystemConfig",
    "Trace",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "diff_traces",
    "load_trace",
    "ENGINE_MODES",
    "VectorizedEngine",
    "make_engine",
    "__version__",
]
