"""Multi-tenant CIM serving layer.

Accepts offload requests from many logical tenants and drives the
compiler + runtime + emulated-hardware stack under one simulated clock:
dynamic request batching onto crossbar leases, admission control with
bounded queues and lifetime-denominated quotas, weighted fair-share
scheduling, per-tenant accounting that reconciles exactly with the
device ledgers, and a serving metrics registry.  See
:class:`~repro.serve.server.CimServer` and ``docs/serving.md``.
"""

from repro.serve.accounting import (
    AccountingLedger,
    FaultCompensation,
    RequestUsage,
    TenantAccount,
)
from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.batcher import (
    DynamicBatcher,
    FusedGemvPlan,
    batch_signature,
    extract_fused_gemv_plan,
    stationary_operand_arrays,
)
from repro.serve.clock import Clock, VirtualClock, WallClock
from repro.serve.dispatch import FaultedRequest, LeaseExecutor
from repro.serve.errors import (
    AdmissionError,
    DeviceFault,
    HandleStateError,
    LeaseAborted,
    RetryExhausted,
    ServeError,
)
from repro.serve.metrics import MetricsRegistry, percentile
from repro.serve.request import RequestHandle, RequestStatus, TenantRequest
from repro.serve.server import CimServer, ServerConfig, ServingLoop

__all__ = [
    "AccountingLedger",
    "Clock",
    "WallClock",
    "AdmissionController",
    "AdmissionError",
    "CimServer",
    "DeviceFault",
    "DynamicBatcher",
    "FaultCompensation",
    "FaultedRequest",
    "FusedGemvPlan",
    "HandleStateError",
    "LeaseAborted",
    "LeaseExecutor",
    "MetricsRegistry",
    "RequestHandle",
    "RequestStatus",
    "RequestUsage",
    "RetryExhausted",
    "ServeError",
    "ServerConfig",
    "ServingLoop",
    "TenantAccount",
    "TenantQuota",
    "TenantRequest",
    "VirtualClock",
    "batch_signature",
    "extract_fused_gemv_plan",
    "percentile",
    "stationary_operand_arrays",
]
