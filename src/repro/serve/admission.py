"""Admission control and fair-share scheduling.

Each tenant gets a bounded FIFO queue and an optional
:class:`TenantQuota`.  A request is admitted when its simulated arrival
time is reached by the event loop; it is rejected — with backpressure
semantics, i.e. the handle resolves to ``REJECTED`` instead of an
exception at submit time — when the tenant's queue is full or a quota is
exhausted.  Quotas can bound accumulated crossbar wear (in bytes, the
device-lifetime currency of Eq. 1 — see
:func:`repro.hw.endurance.wear_budget_bytes`) and accumulated energy.

Dispatch order between tenants is weighted fair sharing: the next batch
seed is taken from the backlogged tenant with the smallest attained
service time divided by its weight (start-time fair queueing with a
virtual-time tie-break on arrival order).  A tenant with queued work and
no attained service is always preferred eventually, so no tenant starves
regardless of how hard the others flood the server; weights implement
priorities (weight 2 receives twice the service share under contention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.serve.accounting import AccountingLedger, TenantAccount
from repro.serve.request import TenantRequest


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits of one tenant.

    ``max_queue_depth`` bounds the number of admitted-but-undispatched
    requests (backpressure).  ``wear_budget_bytes`` bounds the tenant's
    accumulated crossbar write volume; derive it from a minimum device
    lifetime with :func:`repro.hw.endurance.wear_budget_bytes`.
    ``energy_budget_j`` bounds accumulated total energy.  ``weight``
    scales the tenant's fair share (must be positive).
    """

    max_queue_depth: int = 32
    weight: float = 1.0
    wear_budget_bytes: Optional[float] = None
    energy_budget_j: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.wear_budget_bytes is not None and self.wear_budget_bytes < 0:
            raise ValueError("wear budget cannot be negative")
        if self.energy_budget_j is not None and self.energy_budget_j < 0:
            raise ValueError("energy budget cannot be negative")


def budget_exhausted_reason(
    quota: TenantQuota, account: TenantAccount
) -> Optional[str]:
    """Why *account* has spent *quota*'s wear or energy budget, or
    ``None`` while it is within both.  Shared by the simulated loop's
    admission and the wall-clock gateway's; it reads the account's running
    totals, so its cost does not grow with the tenant's history."""
    if quota.wear_budget_bytes is not None:
        wear_bytes = account.totals("wear_bytes")["wear_bytes"]
        if wear_bytes >= quota.wear_budget_bytes:
            return (
                f"wear quota exhausted ({wear_bytes} B written "
                f">= budget {quota.wear_budget_bytes:.0f} B)"
            )
    if quota.energy_budget_j is not None:
        energy_j = account.totals("energy_j")["energy_j"]
        if energy_j >= quota.energy_budget_j:
            return (
                f"energy quota exhausted ({energy_j:.3e} J "
                f">= budget {quota.energy_budget_j:.3e} J)"
            )
    return None


class AdmissionController:
    """Bounded per-tenant queues + quota checks + fair-share pick."""

    def __init__(
        self,
        ledger: AccountingLedger,
        default_quota: Optional[TenantQuota] = None,
    ):
        self.ledger = ledger
        self.default_quota = default_quota or TenantQuota()
        self.quotas: dict[str, TenantQuota] = {}
        self.queues: dict[str, list[TenantRequest]] = {}
        #: Attained service time per tenant, the fair-share currency.
        self.attained_s: dict[str, float] = {}
        #: Graceful degradation: the fleet tier shrinks every tenant's
        #: effective queue bound by this factor as devices die, so the
        #: backlog the (smaller) fleet must eventually serve stays bounded
        #: instead of collapsing into unbounded queueing delay.
        self.depth_scale: float = 1.0
        #: Whether :meth:`requeue` grew a queue since the serving loop last
        #: observed every queue's depth.
        self.requeued = False

    # ------------------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self.quotas[tenant] = quota

    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def queue(self, tenant: str) -> list[TenantRequest]:
        return self.queues.setdefault(tenant, [])

    def queue_depths(self) -> dict[str, int]:
        return {tenant: len(queue) for tenant, queue in self.queues.items()}

    @property
    def total_queued(self) -> int:
        return sum(len(queue) for queue in self.queues.values())

    # ------------------------------------------------------------------
    # Admission (at simulated arrival time)
    # ------------------------------------------------------------------
    def admit(self, request: TenantRequest, now_s: float) -> bool:
        """Admit *request* into its tenant queue, or reject it.

        Returns ``True`` when admitted.  On rejection the handle is
        resolved to ``REJECTED`` with the reason and the rejection is
        counted against the tenant's account.
        """
        quota = self.quota(request.tenant)
        queue = self.queue(request.tenant)
        reason: Optional[str] = None
        effective_depth = self.effective_queue_depth(quota)
        if len(queue) >= effective_depth:
            reason = (
                f"queue full ({len(queue)}/{effective_depth} requests"
                + (
                    f", tightened from {quota.max_queue_depth} at "
                    f"{self.depth_scale:.2f} fleet capacity)"
                    if effective_depth != quota.max_queue_depth
                    else ")"
                )
            )
        else:
            reason = budget_exhausted_reason(
                quota, self.ledger.account(request.tenant)
            )
        if reason is not None:
            request.handle.mark_rejected(reason)
            self.ledger.record_rejection(request.tenant)
            return False
        request.handle.mark_queued(now_s)
        queue.append(request)
        return True

    def effective_queue_depth(self, quota: TenantQuota) -> int:
        """Queue bound after graceful-degradation tightening (never < 1,
        so a shrunken fleet still makes progress request by request)."""
        return max(1, math.ceil(quota.max_queue_depth * self.depth_scale))

    def requeue(self, request: TenantRequest) -> None:
        """Put an already-admitted request back in its tenant queue (fleet
        retry / lease migration).  Bypasses quota checks — admission was
        already granted; re-judging it would turn a device fault into a
        spurious rejection."""
        self.queue(request.tenant).append(request)
        self.requeued = True

    # ------------------------------------------------------------------
    # Fair-share scheduling
    # ------------------------------------------------------------------
    def pick_seed(self) -> Optional[TenantRequest]:
        """Head request of the backlogged tenant with the least attained
        weighted service (deterministic: ties break on the tenant's
        earliest queued request, then on the tenant name)."""
        best: Optional[tuple[float, tuple[float, int], str]] = None
        best_tenant: Optional[str] = None
        for tenant, queue in sorted(self.queues.items()):
            if not queue:
                continue
            weight = self.quota(tenant).weight
            virtual = self.attained_s.get(tenant, 0.0) / weight
            head = min(queue, key=TenantRequest.sort_key)
            key = (virtual, head.sort_key(), tenant)
            if best is None or key < best:
                best = key
                best_tenant = tenant
        if best_tenant is None:
            return None
        return min(self.queue(best_tenant), key=TenantRequest.sort_key)

    def charge_service(self, tenant: str, service_s: float) -> None:
        self.attained_s[tenant] = self.attained_s.get(tenant, 0.0) + service_s

    def remove(self, requests: list[TenantRequest]) -> None:
        """Drop dispatched requests from their queues."""
        chosen = {id(request) for request in requests}
        for tenant in {request.tenant for request in requests}:
            queue = self.queue(tenant)
            self.queues[tenant] = [
                request for request in queue if id(request) not in chosen
            ]

    def queued_requests(self) -> list[TenantRequest]:
        return [request for queue in self.queues.values() for request in queue]
