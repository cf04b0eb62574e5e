"""Energy and event accounting shared by all hardware components.

Every hardware model charges into a shared :class:`EnergyLedger` (joules
per named category, e.g. ``cim.crossbar_write``) and a shared
:class:`StatCounter` (integer event counts, e.g. ``cim.gemv_ops``); the
evaluation layer slices these into the paper's host/accelerator totals.
Per accelerator invocation the measured work leaves the device as one
:class:`AcceleratorRunStats` record, the only place its fields are
spelled and accumulated.

Accounting invariant: energy and counters are charged where the *work*
happens (one charge per physical operation), never where the *time* is
scheduled.  That is what keeps the aggregate reports bit-identical across
dispatch strategies — batched vs. sequential GEMV dispatch, and one CIM
tile vs. many (:mod:`repro.hw.scheduler` redistributes phases in time but
triggers the exact same sequence of charges).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum of *values*.

    Sums that reach pinned bytes (golden traces, device reports, the
    paper's tables) are spelled out instead of calling builtin ``sum()``,
    whose float algorithm is the interpreter's business — CPython 3.12
    made it compensated, which rounds differently from 3.11."""
    total = 0.0
    for value in values:
        total += value
    return total


class EnergyLedger:
    """Accumulates energy per named category (in joules).

    Components charge energy with :meth:`add`; reports group categories into
    host-side and accelerator-side totals.  The ledger is deliberately simple
    — a dictionary with helpers — so every component can share one instance
    and the evaluation layer can slice the result any way it needs.
    """

    def __init__(self) -> None:
        self._joules: dict[str, float] = defaultdict(float)

    def add(self, category: str, joules: float) -> None:
        if joules < 0:
            raise ValueError(f"negative energy charge for {category!r}: {joules}")
        self._joules[category] += joules

    def get(self, category: str) -> float:
        return self._joules.get(category, 0.0)

    def total(self, categories: Iterable[str] | None = None) -> float:
        if categories is None:
            return sequential_sum(self._joules.values())
        return sequential_sum(self._joules.get(c, 0.0) for c in categories)

    def categories(self) -> list[str]:
        return sorted(self._joules)

    def as_dict(self) -> dict[str, float]:
        return dict(self._joules)

    def reset(self) -> None:
        self._joules.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3e}J" for k, v in sorted(self._joules.items()))
        return f"EnergyLedger({parts})"


class StatCounter:
    """Named integer event counters (writes, GEMVs, DMA bytes, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, count: int = 1) -> None:
        self._counts[name] += int(count)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"StatCounter({parts})"


@dataclass
class AcceleratorRunStats:
    """The work record: what one accelerator invocation physically cost.

    The micro-engine fills the counters, the accelerator the energy; every
    tier above (execution report, tenant bill, fault compensation, gateway
    wire, partition check) carries or sums these fields and spells them
    nowhere else.  :meth:`add` is the one accumulation, used for the
    accelerator's running totals, a report's slice of runs and a gateway
    worker's lifetime totals alike.
    """

    latency_s: float = 0.0
    energy_j: float = 0.0
    energy_breakdown: dict[str, float] = field(default_factory=dict)
    gemv_count: int = 0
    crossbar_cell_writes: int = 0      # logical cells written
    crossbar_write_ops: int = 0        # write_matrix invocations
    macs: int = 0
    dma_bytes: int = 0

    def add(self, other: "AcceleratorRunStats") -> None:
        """Fold *other* into this record.  Plain ``+=`` per field, so a
        float total is the left-to-right sum of its addends in fold order
        (pinned bytes depend on that order)."""
        self.latency_s += other.latency_s
        self.energy_j += other.energy_j
        self.gemv_count += other.gemv_count
        self.crossbar_cell_writes += other.crossbar_cell_writes
        self.crossbar_write_ops += other.crossbar_write_ops
        self.macs += other.macs
        self.dma_bytes += other.dma_bytes
        for key, value in other.energy_breakdown.items():
            self.energy_breakdown[key] = self.energy_breakdown.get(key, 0.0) + value

    def scalars(self) -> dict[str, float]:
        """The seven scalar fields by name (the gateway wire's form of the
        record; ``AcceleratorRunStats(**scalars)`` is the inverse)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "energy_breakdown"
        }


#: The record's integer counters: exact currencies, reconciled with ``==``.
WORK_COUNTERS = tuple(
    f.name for f in fields(AcceleratorRunStats) if isinstance(f.default, int)
)
