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
        return _SIZE_BYTES[self._value_]

    @property
    def numpy_dtype(self) -> np.dtype:
        """NumPy dtype used by the interpreter for this element type."""
        return _NUMPY_DTYPES[self._value_]

    @property
    def is_float(self) -> bool:
        return self in (ElementType.F32, ElementType.F64)


# Keyed by the enum's values: a string lookup, not a member hash.
_SIZE_BYTES = {"float": 4, "double": 8, "int": 4, "long": 8}
_NUMPY_DTYPES = {
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
    "int": np.dtype(np.int32),
    "long": np.dtype(np.int64),
}
