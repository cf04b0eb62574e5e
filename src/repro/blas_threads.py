"""One BLAS thread in the processes the package starts itself.

NumPy's BLAS reads its thread count from the environment once, when NumPy
loads.  The emulated device's products are small, so a multi-threaded BLAS
only adds threads that compete with the serving loop and its sibling
worker processes for the same cores.  The package therefore pins the
count to one where the process is its own: the ``repro`` command (and
``python -m repro.cli``), pinned when the package is imported and so
before NumPy loads, and every gateway pool worker, started with the
variables in its environment.  A library import into someone else's
process changes nothing, and a value the user has already set is always
kept.

This module imports nothing but the standard library, so the package can
import it before NumPy.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator, MutableMapping, Optional, Sequence

#: The thread-count variables of the BLAS builds NumPy links: OpenBLAS,
#: OpenMP (which several builds use underneath) and MKL.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Module names that run the command line under ``python -m``.
CLI_MODULES = ("repro.cli",)


def pin_blas_threads(environ: Optional[MutableMapping[str, str]] = None) -> list[str]:
    """Set every :data:`BLAS_THREAD_VARIABLES` entry that *environ*
    (default ``os.environ``) lacks to ``"1"``; returns the names it set."""
    environ = os.environ if environ is None else environ
    added = [name for name in BLAS_THREAD_VARIABLES if name not in environ]
    for name in added:
        environ[name] = "1"
    return added


@contextmanager
def pinned_blas_threads() -> Iterator[None]:
    """``os.environ`` with :func:`pin_blas_threads` applied for the
    duration: the environment a child process started inside it inherits.
    The variables it set are removed again on exit."""
    added = pin_blas_threads()
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def started_as_cli(
    argv: Optional[Sequence[str]] = None, orig_argv: Optional[Sequence[str]] = None
) -> bool:
    """Whether this interpreter was started as the ``repro`` console
    script or as ``python -m repro.cli`` (defaults: ``sys.argv`` and
    ``sys.orig_argv``)."""
    argv = sys.argv if argv is None else argv
    orig_argv = getattr(sys, "orig_argv", []) if orig_argv is None else orig_argv
    if argv and os.path.basename(argv[0]) in ("repro", "repro.exe"):
        return True
    return any(
        flag == "-m" and module in CLI_MODULES
        for flag, module in zip(orig_argv, orig_argv[1:])
    )
