"""Observers: how a verifier sees records a component does not keep.

A serving loop folds what it commits (an accelerator run into the
device's running totals, a bill into the ledger's) and drops the record,
so what it retains does not grow with the requests it has served.  Code
that checks individual records — a work meter around one request, the
goldens, the chaos run's exactly-once check — attaches a sink for as long
as it needs them::

    with accelerator.on_run.collect() as runs:
        ...                     # every run completed meanwhile is in runs
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator


class Observers:
    """The sinks currently attached to one stream of committed records."""

    __slots__ = ("_sinks",)

    def __init__(self) -> None:
        self._sinks: list[Callable] = []

    def emit(self, record) -> None:
        """Hand *record* to every attached sink, in attach order."""
        for sink in self._sinks:
            sink(record)

    def attach(self, sink: Callable) -> None:
        """Call ``sink(record)`` for each record emitted until :meth:`detach`."""
        self._sinks.append(sink)

    def detach(self, sink: Callable) -> None:
        self._sinks.remove(sink)

    @contextmanager
    def attached(self, sink: Callable) -> Iterator[Callable]:
        """*sink* attached while the block runs."""
        self.attach(sink)
        try:
            yield sink
        finally:
            self.detach(sink)

    @contextmanager
    def collect(self) -> Iterator[list]:
        """A list of the records emitted while the block runs."""
        records: list = []
        with self.attached(records.append):
            yield records
