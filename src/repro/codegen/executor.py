"""Execution of compiled programs on the emulated system.

The executor is the "linker + loader" of the flow: it runs a (possibly
offloaded) IR program with the reference interpreter, dispatching every
``polly_cim*`` call statement to the CIM runtime library of a
:class:`~repro.system.system.CimSystem`, and collects a complete execution
report — host instructions/energy/time for the statements that stayed on
the host, driver/copy/flush overheads, and the accelerator's energy,
latency, GEMV count and crossbar writes.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.codegen.runtime_calls import (
    ALL_RUNTIME_CALLS,
    BUFFER,
    CIM_DEV_TO_HOST,
    CIM_FREE,
    CIM_GEMM_BATCHED,
    CIM_HOST_TO_DEV,
    CIM_INIT,
    CIM_MALLOC,
    SCALAR,
    TRANS,
    BatchedGemmCallArgs,
    CopyCallArgs,
    InitCallArgs,
    KernelCallArgs,
    MallocCallArgs,
)
from repro.host.cost_model import HostCostModel, HostExecutionEstimate
from repro.hw.stats import AcceleratorRunStats
from repro.ir.engine import DEFAULT_ENGINE, make_engine, validate_engine
from repro.ir.expr import Expr
from repro.ir.interp import Interpreter, evaluate_expr
from repro.ir.program import Program
from repro.runtime.blas import CimBlas
from repro.runtime.handles import DeviceBuffer
from repro.system.system import CimSystem


class ExecutorError(RuntimeError):
    """Malformed runtime call encountered during execution."""


#: ``CimBlas.gemm_batched`` reads each problem's arguments by the names of
#: the ``sgemm`` parameters they fill.
_SGEMM_PARAMS = tuple(inspect.signature(CimBlas.sgemm).parameters)[1:]


def _accelerator_field(name: str) -> property:
    """A report attribute that reads one field of the folded work record."""
    return property(lambda self: getattr(self.accelerator, name))


@dataclass
class ExecutionReport:
    """Complete accounting of one program execution on the emulated system."""

    program_name: str = ""
    # Host-executed statements (loop nests left on the host).
    host_estimate: HostExecutionEstimate = field(default_factory=HostExecutionEstimate)
    # Host-side offload overhead: driver calls, copies, flushes, polling.
    offload_instructions: float = 0.0
    offload_energy_j: float = 0.0
    offload_time_s: float = 0.0
    # Accelerator side: this execution's runs folded into one work record.
    accelerator: AcceleratorRunStats = field(default_factory=AcceleratorRunStats)
    runtime_calls: list[str] = field(default_factory=list)

    accelerator_energy_j = _accelerator_field("energy_j")
    accelerator_time_s = _accelerator_field("latency_s")
    accelerator_energy_breakdown = _accelerator_field("energy_breakdown")
    gemv_count = _accelerator_field("gemv_count")
    crossbar_cell_writes = _accelerator_field("crossbar_cell_writes")
    crossbar_write_ops = _accelerator_field("crossbar_write_ops")
    accelerator_macs = _accelerator_field("macs")
    dma_bytes = _accelerator_field("dma_bytes")

    def absorb_runs(self, runs: Iterable[AcceleratorRunStats]) -> None:
        """Fold the accelerator runs this execution triggered, in run order."""
        for run in runs:
            self.accelerator.add(run)

    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        return (
            self.host_estimate.energy_j + self.offload_energy_j + self.accelerator_energy_j
        )

    @property
    def total_time_s(self) -> float:
        # The offload time already contains the wall-clock wait for the
        # accelerator (the host blocks on the status register), so the
        # accelerator latency is not added again.
        return self.host_estimate.time_s + self.offload_time_s

    @property
    def edp(self) -> float:
        return self.total_energy_j * self.total_time_s

    @property
    def macs_per_cim_write(self) -> float:
        """The paper's compute-intensity metric for offloaded kernels."""
        if self.crossbar_cell_writes == 0:
            return float("inf") if self.accelerator_macs else 0.0
        return self.accelerator_macs / self.crossbar_cell_writes

    @property
    def offloaded(self) -> bool:
        return bool(self.runtime_calls)


class OffloadExecutor:
    """Runs IR programs against the emulated host + CIM system.

    ``engine`` selects the execution engine for the host-side IR (see
    :data:`repro.ir.engine.ENGINE_MODES`): the ``"fast"`` engine (default,
    emitted C or slice-folded kernels, bit-identical to the interpreter) or
    the reference ``"interpreter"``.  Both engines produce identical
    results and execution traces, so the cost-model numbers do not
    depend on this choice.

    Engine precedence, most specific wins: the ``engine`` argument of
    :meth:`run`, then an ``engine`` given to this constructor, then the
    :class:`~repro.compiler.options.CompileOptions` of a
    ``CompilationResult`` passed to :meth:`run`, then
    :data:`~repro.ir.engine.DEFAULT_ENGINE`.

    ``num_tiles`` is a convenience for multi-tile offload: without an
    explicit ``system`` it builds a
    :class:`~repro.system.config.SystemConfig` with that tile count (see
    :mod:`repro.hw.scheduler`); with one, it must agree with the system's
    configuration.
    """

    def __init__(
        self,
        system: Optional[CimSystem] = None,
        host_cost_model: Optional[HostCostModel] = None,
        engine: Optional[str] = None,
        num_tiles: Optional[int] = None,
    ):
        if engine is not None:
            validate_engine(engine)
        if system is None:
            from repro.system.config import SystemConfig

            # num_tiles=0 must reach AcceleratorConfig's validation and
            # raise, not silently fall back to the 1-tile default.
            config = (
                SystemConfig(num_tiles=num_tiles) if num_tiles is not None else None
            )
            system = CimSystem(config)
        elif num_tiles is not None and system.config.num_tiles != num_tiles:
            raise ValueError(
                f"num_tiles={num_tiles} conflicts with the given system's "
                f"config (num_tiles={system.config.num_tiles}); configure "
                "SystemConfig.num_tiles instead"
            )
        self.system = system
        self.host_cost_model = host_cost_model or HostCostModel(self.system.config.host)
        #: Explicit engine choice; ``None`` defers to the compiled options.
        self.engine = engine
        #: Engine actually used by the most recent :meth:`run` call.
        self.last_engine_used: Optional[str] = None
        self._buffers: dict[str, DeviceBuffer] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        params: Mapping[str, int | float],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        reset_stats: bool = True,
        engine: Optional[str] = None,
    ) -> tuple[dict[str, np.ndarray], ExecutionReport]:
        """Execute *program* and return (final arrays, execution report).

        *program* may also be a
        :class:`~repro.compiler.driver.CompilationResult`, in which case
        the compiled program is executed and — unless ``engine`` is given
        explicitly — the engine choice from its
        :class:`~repro.compiler.options.CompileOptions` is honoured.
        """
        # Accept a CompilationResult (duck-typed to avoid a compiler
        # import cycle) and pick up its engine option.
        options_engine = None
        if hasattr(program, "program") and hasattr(program, "report"):
            options = getattr(program, "options", None)
            if options is not None:
                options_engine = options.engine
            program = program.program
        # Validate before touching any executor/system state, so a typo'd
        # engine name does not wipe the previous run's statistics.
        self.last_engine_used = validate_engine(
            engine or self.engine or options_engine or DEFAULT_ENGINE
        )

        if reset_stats:
            self.system.reset_stats()
        self._buffers.clear()

        overhead = self.system.host_overhead
        overhead_energy_before = overhead.energy_j
        overhead_time_before = overhead.time_s
        overhead_instr_before = overhead.instructions
        runs_before = len(self.system.accelerator.completed_runs)

        interpreter = make_engine(
            program, call_handler=self._handle_call, engine=self.last_engine_used
        )
        final_arrays = interpreter.run(params, arrays)

        report = ExecutionReport(program_name=program.name)
        report.host_estimate = self.host_cost_model.estimate_trace(interpreter.trace)
        report.offload_instructions = overhead.instructions - overhead_instr_before
        report.offload_energy_j = overhead.energy_j - overhead_energy_before
        report.offload_time_s = overhead.time_s - overhead_time_before
        report.runtime_calls = [name for name, _ in interpreter.trace.runtime_calls]

        report.absorb_runs(self.system.accelerator.completed_runs[runs_before:])
        return final_arrays, report

    # ------------------------------------------------------------------
    # Runtime call dispatch
    # ------------------------------------------------------------------
    def _handle_call(self, callee: str, args: list, interp: Interpreter) -> None:
        payload = args[0] if args else None
        if isinstance(payload, KernelCallArgs) and callee in ALL_RUNTIME_CALLS:
            getattr(self.system.blas, payload.entry)(*self._resolve(payload, interp))
        elif callee == CIM_INIT:
            device = payload.device if isinstance(payload, InitCallArgs) else int(payload or 0)
            self.system.runtime.cim_init(device)
        elif callee == CIM_MALLOC:
            self._do_malloc(payload, interp)
        elif callee == CIM_HOST_TO_DEV:
            self._do_host_to_dev(payload, interp)
        elif callee == CIM_DEV_TO_HOST:
            self._do_dev_to_host(payload, interp)
        elif callee == CIM_FREE:
            buffer = self._require_buffer(payload if isinstance(payload, str) else payload.buffer)
            self.system.runtime.cim_free(buffer)
        elif callee == CIM_GEMM_BATCHED:
            self._do_gemm_batched(payload, interp)
        else:
            raise ExecutorError(f"unknown runtime call {callee!r}")

    # ------------------------------------------------------------------
    def _eval(self, expr, interp: Interpreter) -> float:
        if isinstance(expr, Expr):
            return evaluate_expr(expr, interp.scalars, interp.arrays)
        return float(expr)

    def _eval_int(self, expr, interp: Interpreter) -> int:
        return int(round(self._eval(expr, interp)))

    def _require_buffer(self, name: str) -> DeviceBuffer:
        if name not in self._buffers:
            raise ExecutorError(f"runtime call references unknown buffer {name!r}")
        return self._buffers[name]

    def _do_malloc(self, payload: MallocCallArgs, interp: Interpreter) -> None:
        size = self._eval_int(payload.size, interp)
        buffer = self.system.runtime.cim_malloc(size)
        self._buffers[payload.buffer] = buffer

    def _do_host_to_dev(self, payload: CopyCallArgs, interp: Interpreter) -> None:
        buffer = self._require_buffer(payload.buffer)
        array = interp.arrays.get(payload.array)
        if array is None:
            raise ExecutorError(f"host array {payload.array!r} is not bound")
        self.system.runtime.cim_host_to_dev(buffer, array)

    def _do_dev_to_host(self, payload: CopyCallArgs, interp: Interpreter) -> None:
        buffer = self._require_buffer(payload.buffer)
        array = interp.arrays.get(payload.array)
        if array is None:
            raise ExecutorError(f"host array {payload.array!r} is not bound")
        result = self.system.runtime.cim_dev_to_host(buffer, array.shape)
        interp.arrays[payload.array] = result.astype(array.dtype)

    def _resolve(self, payload: KernelCallArgs, interp: Interpreter) -> list:
        """The positional arguments of *payload*'s BLAS entry: dimensions
        and leading dimensions as ints, scalars as evaluated, buffers as
        device buffers, transpose flags as they are."""
        resolved: list = []
        for slot, value in payload.args:
            if slot.kind == BUFFER:
                resolved.append(self._require_buffer(value))
            elif slot.kind == SCALAR:
                resolved.append(self._eval(value, interp))
            elif slot.kind == TRANS:
                resolved.append(value)
            else:
                resolved.append(self._eval_int(value, interp))
        return resolved

    def _do_gemm_batched(self, payload: BatchedGemmCallArgs, interp: Interpreter) -> None:
        problems = [
            dict(zip(_SGEMM_PARAMS, self._resolve(problem, interp)))
            for problem in payload.problems
        ]
        first = problems[0]
        self.system.blas.gemm_batched(first["trans_a"], first["trans_b"], problems)
