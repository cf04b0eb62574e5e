"""Energy and event accounting shared by all hardware components.

Every hardware model charges into a shared :class:`EnergyLedger` (joules
per named category, e.g. ``cim.crossbar_write``) and a shared
:class:`StatCounter` (integer event counts, e.g. ``cim.gemv_ops``); the
evaluation layer slices these into the paper's host/accelerator totals.

Accounting invariant: energy and counters are charged where the *work*
happens (one charge per physical operation), never where the *time* is
scheduled.  That is what keeps the aggregate reports bit-identical across
dispatch strategies — batched vs. sequential GEMV dispatch, and one CIM
tile vs. many (:mod:`repro.hw.scheduler` redistributes phases in time but
triggers the exact same sequence of charges).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping


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
            return sum(self._joules.values())
        return sum(self._joules.get(c, 0.0) for c in categories)

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

