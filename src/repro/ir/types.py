"""Element types used by IR arrays and scalars."""

from __future__ import annotations

import enum

import numpy as np


class ElementType(enum.Enum):
    """Scalar element types supported by the IR.

    The CIM accelerator in the paper operates on fixed-point data written to
    the crossbar; the host-side kernels use single precision.  We keep the
    usual C types around so PolyBench kernels translate directly.
    """

    F32 = "float"
    F64 = "double"
    I32 = "int"
    I64 = "long"

    @property
    def size_bytes(self) -> int:
        """Size of one element in bytes (as on a 32/64-bit C target)."""
        return {
            ElementType.F32: 4,
            ElementType.F64: 8,
            ElementType.I32: 4,
            ElementType.I64: 8,
        }[self]

    @property
    def numpy_dtype(self) -> np.dtype:
        """NumPy dtype used by the interpreter for this element type."""
        return {
            ElementType.F32: np.dtype(np.float32),
            ElementType.F64: np.dtype(np.float64),
            ElementType.I32: np.dtype(np.int32),
            ElementType.I64: np.dtype(np.int64),
        }[self]

    @property
    def is_float(self) -> bool:
        return self in (ElementType.F32, ElementType.F64)
