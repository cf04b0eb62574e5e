"""Execution of compiled programs on the emulated system.

The executor is the "linker + loader" of the flow: it runs a (possibly
offloaded) IR program on an execution engine, runs every ``polly_cim*``
call on the CIM runtime library of a :class:`~repro.system.system.CimSystem`
once :func:`bind_call` has bound it (per params, into the fast engine's
plan, for a top-level call that can be; per run otherwise), and collects a
complete execution report — host instructions/energy/time for the
statements that stayed on the host, driver/copy/flush overheads, and the
accelerator's energy, latency, GEMV count and crossbar writes.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

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
    InitCallArgs,
    KernelCallArgs,
)
from repro.host.cost_model import HostExecutionEstimate
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


class WorkMeter:
    """The work one execution does on *system*, as a context: entering
    notes the host-overhead ledger and starts collecting the accelerator's
    runs; the function it returns writes the work done since into a
    report: the offload instructions, energy and time, then the new runs
    folded.  The runs are dropped when the block ends."""

    __slots__ = ("_overhead", "_energy0", "_time0", "_instr0", "_on_run", "_runs")

    def __init__(self, system: CimSystem):
        overhead = self._overhead = system.host_overhead
        self._energy0 = overhead.energy_j
        self._time0 = overhead.time_s
        self._instr0 = overhead.instructions
        self._on_run = system.accelerator.on_run
        self._runs: list[AcceleratorRunStats] = []

    def __enter__(self) -> Callable[[ExecutionReport], None]:
        self._on_run.attach(self._runs.append)
        return self.measure

    def __exit__(self, *exc_info) -> None:
        self._on_run.detach(self._runs.append)

    def measure(self, report: ExecutionReport) -> None:
        overhead = self._overhead
        report.offload_instructions = overhead.instructions - self._instr0
        report.offload_energy_j = overhead.energy_j - self._energy0
        report.offload_time_s = overhead.time_s - self._time0
        report.absorb_runs(self._runs)


class OffloadExecutor:
    """Runs IR programs against the emulated host + CIM system.

    ``engine`` selects the execution engine for the host-side IR (see
    :data:`repro.ir.engine.ENGINE_MODES`): the ``"fast"`` engine (default,
    emitted C or slice-folded kernels, bit-identical to the interpreter,
    replaying a plan per params) or the reference ``"interpreter"``.  Both
    produce identical results and execution traces, so the cost-model
    numbers do not depend on this choice.  This is the only place the
    engine is chosen.
    """

    def __init__(self, system: Optional[CimSystem] = None, engine: str = DEFAULT_ENGINE):
        self.engine = validate_engine(engine)
        self.system = system or CimSystem()
        self._buffers: dict[str, DeviceBuffer] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        params: Mapping[str, int | float],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        reset_stats: bool = True,
    ) -> tuple[dict[str, np.ndarray], ExecutionReport]:
        """Execute *program* and return (final arrays, execution report)."""
        if not isinstance(program, Program):
            raise TypeError(
                f"run() takes a Program, not {type(program).__name__} "
                "(pass a CompilationResult's .program)"
            )
        if reset_stats:
            self.system.reset_stats()
        self._buffers.clear()
        with WorkMeter(self.system) as measure:
            engine = make_engine(
                program, self._handle_call, self.engine,
                call_binder=bind_call, call_runner=self._run_bound,
            )
            final_arrays = engine.run(params, arrays)

            report = ExecutionReport(program_name=program.name)
            report.host_estimate = self.system.host_cost_model.estimate_trace(engine.trace)
            report.runtime_calls = [name for name, _ in engine.trace.runtime_calls]
            measure(report)
        return final_arrays, report

    # ------------------------------------------------------------------
    # Runtime calls: bound by bind_call, run by the _do_* methods
    # ------------------------------------------------------------------
    def _handle_call(self, callee: str, args: list, interp: Interpreter) -> None:
        self._run_bound(bind_call(callee, args, interp.scalars, interp.arrays), interp)

    def _run_bound(self, bound: BoundCall, interp: Interpreter) -> None:
        getattr(self, bound.method)(interp.arrays, *bound.args)

    def _require_buffer(self, name: str) -> DeviceBuffer:
        if name not in self._buffers:
            raise ExecutorError(f"runtime call references unknown buffer {name!r}")
        return self._buffers[name]

    def _with_buffers(self, args: tuple) -> list:
        return [self._require_buffer(arg) if type(arg) is _Buffer else arg for arg in args]

    def _do_unknown(self, arrays: dict, callee: str) -> None:
        raise ExecutorError(f"unknown runtime call {callee!r}")

    def _do_init(self, arrays: dict, device: int) -> None:
        self.system.runtime.cim_init(device)

    def _do_malloc(self, arrays: dict, buffer: str, size: int) -> None:
        self._buffers[buffer] = self.system.runtime.cim_malloc(size)

    def _do_free(self, arrays: dict, buffer: str) -> None:
        self.system.runtime.cim_free(self._require_buffer(buffer))

    def _do_host_to_dev(self, arrays: dict, buffer: str, array: str) -> None:
        device = self._require_buffer(buffer)
        self.system.runtime.cim_host_to_dev(device, _require_array(arrays, array))

    def _do_dev_to_host(self, arrays: dict, buffer: str, array: str) -> None:
        device = self._require_buffer(buffer)
        host = _require_array(arrays, array)
        # cim_dev_to_host returns a fresh array: stored as is, it is still
        # private, which the C bodies' ``restrict`` needs.
        result = self.system.runtime.cim_dev_to_host(device, host.shape)
        arrays[array] = result.astype(host.dtype, copy=False)

    def _do_kernel(self, arrays: dict, entry: str, args: tuple) -> None:
        getattr(self.system.blas, entry)(*self._with_buffers(args))

    def _do_gemm_batched(self, arrays: dict, *problems: tuple) -> None:
        bound = [dict(zip(_SGEMM_PARAMS, self._with_buffers(args))) for args in problems]
        first = bound[0]
        self.system.blas.gemm_batched(first["trans_a"], first["trans_b"], bound)


class BoundCall(NamedTuple):
    """A runtime call resolved to the :class:`OffloadExecutor` method that
    runs it and that method's arguments after the host arrays: names and
    numbers only, so one bound call serves every executor."""

    method: str
    args: tuple


class _Buffer(str):
    """A device buffer's name among a kernel's bound arguments."""


def _require_array(arrays: dict, name: str) -> np.ndarray:
    array = arrays.get(name)
    if array is None:
        raise ExecutorError(f"host array {name!r} is not bound")
    return array


def _value(expr, scalars: Mapping, arrays: Mapping):
    return evaluate_expr(expr, scalars, arrays) if isinstance(expr, Expr) else float(expr)


def _resolve(payload: KernelCallArgs, scalars: Mapping, arrays: Mapping) -> tuple:
    """The positional arguments of *payload*'s BLAS entry: dimensions and
    leading dimensions as ints, scalars as evaluated, buffers as names,
    transpose flags as they are."""
    return tuple(
        _Buffer(value) if slot.kind == BUFFER
        else value if slot.kind == TRANS
        else _value(value, scalars, arrays) if slot.kind == SCALAR
        else int(round(_value(value, scalars, arrays)))
        for slot, value in payload.args
    )


#: callee -> (payload, scalars, arrays) -> (method, args) of its BoundCall.
_BINDERS = {
    CIM_INIT: lambda p, s, a: (
        "_do_init", (p.device if isinstance(p, InitCallArgs) else int(p or 0),)),
    CIM_MALLOC: lambda p, s, a: ("_do_malloc", (p.buffer, int(round(_value(p.size, s, a))))),
    CIM_FREE: lambda p, s, a: ("_do_free", (p if isinstance(p, str) else p.buffer,)),
    CIM_HOST_TO_DEV: lambda p, s, a: ("_do_host_to_dev", (p.buffer, p.array)),
    CIM_DEV_TO_HOST: lambda p, s, a: ("_do_dev_to_host", (p.buffer, p.array)),
    CIM_GEMM_BATCHED: lambda p, s, a: (
        "_do_gemm_batched", tuple(_resolve(q, s, a) for q in p.problems)),
}


def bind_call(callee: str, args: list, scalars: Mapping, arrays: Mapping) -> BoundCall:
    """Resolve one runtime call against *scalars* and *arrays*: the one
    binding path of the reference engine's calls and the fast engine's
    per-params plans.  Raises :class:`InterpreterError` if an expression
    reads a name or array that is not given."""
    payload = args[0] if args else None
    if isinstance(payload, KernelCallArgs) and callee in ALL_RUNTIME_CALLS:
        return BoundCall("_do_kernel", (payload.entry, _resolve(payload, scalars, arrays)))
    binder = _BINDERS.get(callee)
    if binder is None:  # fails when it runs, as any call fails
        return BoundCall("_do_unknown", (callee,))
    return BoundCall(*binder(payload, scalars, arrays))
