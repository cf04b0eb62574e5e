"""Optional native (C-via-cffi) backend for the execution engine.

Eligible host loop nests are translated **literally** — loop for loop,
statement for statement, in original program order — into a small C
kernel, compiled with the system C compiler and called through ``cffi``'s
ABI mode (``dlopen``; no Python headers needed).  Because the translation
preserves the interpreter's evaluation order exactly, and the code
generator emulates NumPy's NEP 50 scalar-promotion rules with explicit C
casts (float constants are emitted as C99 hex literals, so not a single
bit is lost in translation), the native results are bit-identical to the
interpreter.  Compilation uses ``-ffp-contract=off`` so the compiler
cannot fuse multiply-adds into FMAs, which would change rounding.

The backend is strictly optional and fails soft at every layer:

* :func:`native_available` gates on ``cffi`` being importable, a C
  compiler being on ``PATH``, and the ``REPRO_NATIVE`` environment
  variable not disabling it (``0``/``off``/``false``).
* A nest the code generator cannot translate raises
  :class:`NativeUnsupported` with the reason; the engine runs that nest
  on its emitted fold kernel, or on the interpreter, instead.
* At call time, parameter/array types are revalidated; any mismatch (or
  an out-of-bounds subscript detected by the kernel's index guards)
  restores the written arrays from a snapshot and falls back — NumPy's
  negative-index wrapping and IndexError behavior are reproduced by the
  interpreter, never approximated natively.

Compiled kernels are content-addressed by the SHA-256 of their C source
and cached on disk (``REPRO_NATIVE_CACHE`` overrides the location), so
repeat compilations across processes are ``dlopen``-only.  The generated
source also rides the :class:`~repro.compiler.report.CompilationReport`
(``nest_lowerings``), which is what the kernel-compile cache persists.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    FloatConst,
    IntConst,
    Max,
    Min,
    ParamRef,
    UnaryOp,
    VarRef,
)
from repro.ir.interp import CallHandler
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, Loop, Stmt
from repro.ir.types import ElementType
from repro.ir.engine.engine import VectorizedEngine


class NativeUnsupported(Exception):
    """The code generator cannot translate this nest exactly."""


# ----------------------------------------------------------------------
# Availability
# ----------------------------------------------------------------------

_DISABLE_VALUES = ("0", "off", "false", "no")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_available() -> bool:
    """True when the native backend can compile and load kernels."""
    if os.environ.get("REPRO_NATIVE", "").lower() in _DISABLE_VALUES:
        return False
    if _find_compiler() is None:
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return True


# ----------------------------------------------------------------------
# Typed C code generation
# ----------------------------------------------------------------------

#: Value types: weak (python) int, weak float, and strong array elements.
_I64, _F64W, _F32, _F64 = "i64", "f64w", "f32", "f64"

_C_TYPE = {_I64: "int64_t", _F64W: "double", _F32: "float", _F64: "double"}

_ELEM_TYPE = {ElementType.F32: _F32, ElementType.F64: _F64}


def _promote(lhs: str, rhs: str) -> str:
    """NEP 50 result type of a binary operation between *lhs* and *rhs*."""
    if _F64 in (lhs, rhs):
        return _F64
    if _F32 in (lhs, rhs):
        return _F32  # weak scalars convert to the array dtype
    if _F64W in (lhs, rhs):
        return _F64W
    return _I64


def _cast(code: str, src: str, dst: str) -> str:
    if src == dst or (src, dst) == (_F64W, _F64) or (src, dst) == (_F64, _F64W):
        return code
    return f"({_C_TYPE[dst]})({code})"


@dataclass
class NativeKernel:
    """Generated C source plus the argument layout to call it with."""

    c_source: str
    float_params: tuple[str, ...]
    int_params: tuple[str, ...]
    array_names: tuple[str, ...]
    written: tuple[str, ...]


class _CodeGen:
    def __init__(self, root: Loop, program: Program):
        self.root = root
        self.program = program
        self.lines: list[str] = []
        self.indent = 1
        self.temp = 0
        self.loop_vars: set[str] = {
            node.var for node in root.walk() if isinstance(node, Loop)
        }
        self.param_types = {p.name: p.elem_type for p in self.program.params}
        self.used_arrays: list[str] = []
        self.used_fparams: list[str] = []
        self.used_iparams: list[str] = []
        self.written: list[str] = []
        self.uses_pymod = False

    # -- bookkeeping ----------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        self.temp += 1
        return f"_{prefix}{self.temp}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def _use_array(self, name: str):
        if not self.program.has_array(name):
            raise NativeUnsupported(f"unknown array {name}")
        decl = self.program.array(name)
        if decl.elem_type not in _ELEM_TYPE:
            raise NativeUnsupported(f"array {name} has integer element type")
        if name not in self.used_arrays:
            self.used_arrays.append(name)
        return decl

    def _use_param(self, name: str) -> str:
        elem = self.param_types[name]
        if elem.is_float:
            if name not in self.used_fparams:
                self.used_fparams.append(name)
            return _F64W
        if name not in self.used_iparams:
            self.used_iparams.append(name)
        return _I64

    # -- expressions ----------------------------------------------------
    def expr(self, node: Expr) -> tuple[str, str]:
        """Emit one expression; returns (C code, value type)."""
        if isinstance(node, IntConst):
            return f"INT64_C({node.value})", _I64
        if isinstance(node, FloatConst):
            return float(node.value).hex(), _F64W
        if isinstance(node, (VarRef, ParamRef)):
            name = node.name
            if name in self.loop_vars:
                return name, _I64
            if name in self.param_types:
                return name, self._use_param(name)
            raise NativeUnsupported(f"non-parameter scalar {name}")
        if isinstance(node, ArrayRef):
            return self.array_read(node)
        if isinstance(node, UnaryOp):
            code, kind = self.expr(node.operand)
            return f"(-({code}))", kind
        if isinstance(node, BinOp):
            return self.binop(node)
        if isinstance(node, (Min, Max)):
            lhs, lk = self.expr(node.lhs)
            rhs, rk = self.expr(node.rhs)
            if lk != _I64 or rk != _I64:
                raise NativeUnsupported("min/max on floating operands")
            a, b = self._fresh("m"), self._fresh("m")
            self.emit(f"int64_t {a} = {lhs};")
            self.emit(f"int64_t {b} = {rhs};")
            op = "<" if isinstance(node, Min) else ">"
            return f"({a} {op} {b} ? {a} : {b})", _I64
        raise NativeUnsupported(f"unsupported expression {type(node).__name__}")

    def binop(self, node: BinOp) -> tuple[str, str]:
        lhs, lk = self.expr(node.lhs)
        rhs, rk = self.expr(node.rhs)
        op = node.op
        if op == "/":
            # Python semantics: int/int is true division to double; the
            # result could then be divided by zero (Python raises) — too
            # divergent to translate, so only the Python tiers handle "/".
            raise NativeUnsupported("division")
        if op == "%":
            if lk != _I64 or rk != _I64:
                raise NativeUnsupported("modulo on floating operands")
            self.uses_pymod = True
            return f"pymod({lhs}, {rhs})", _I64
        if op not in ("+", "-", "*"):
            raise NativeUnsupported(f"operator {op}")
        kind = _promote(lk, rk)
        return (
            f"({_cast(lhs, lk, kind)} {op} {_cast(rhs, rk, kind)})",
            kind,
        )

    def index_expr(self, node: Expr) -> str:
        code, kind = self.expr(node)
        if kind != _I64:
            raise NativeUnsupported("non-integer subscript arithmetic")
        return code

    def flat_index(self, ref: ArrayRef) -> str:
        """Emit guarded index normalization; returns the flat-offset temp."""
        decl = self._use_array(ref.name)
        if len(ref.indices) != decl.rank:
            raise NativeUnsupported(f"rank mismatch on {ref.name}")
        name = ref.name
        flat = self._fresh("idx")
        self.emit(f"int64_t {flat} = 0;")
        for axis, idx in enumerate(ref.indices):
            code = self.index_expr(idx)
            tmp = self._fresh("i")
            dim = f"dims_{name}[{axis}]"
            self.emit(f"int64_t {tmp} = {code};")
            self.emit(f"if ({tmp} < 0) {tmp} += {dim};")
            self.emit(f"if ({tmp} < 0 || {tmp} >= {dim}) return 1;")
            self.emit(f"{flat} = {flat} * {dim} + {tmp};")
        return flat

    def array_read(self, ref: ArrayRef) -> tuple[str, str]:
        decl = self._use_array(ref.name)
        flat = self.flat_index(ref)
        return f"{ref.name}[{flat}]", _ELEM_TYPE[decl.elem_type]

    # -- statements -----------------------------------------------------
    def stmt(self, node: Stmt) -> None:
        if isinstance(node, Block):
            for child in node.stmts:
                self.stmt(child)
        elif isinstance(node, Loop):
            self.loop(node)
        elif isinstance(node, Assign):
            self.assign(node)
        else:
            raise NativeUnsupported(f"statement {type(node).__name__}")

    def loop(self, node: Loop) -> None:
        lo_code = self.index_expr(node.lower)
        hi_code = self.index_expr(node.upper)
        lo, hi = self._fresh("lo"), self._fresh("hi")
        self.emit(f"int64_t {lo} = {lo_code};")
        self.emit(f"int64_t {hi} = {hi_code};")
        self.emit(
            f"for (int64_t {node.var} = {lo}; {node.var} < {hi}; "
            f"{node.var} += {node.step}) {{"
        )
        self.indent += 1
        self.stmt(node.body)
        self.indent -= 1
        self.emit("}")

    def assign(self, node: Assign) -> None:
        target = node.target
        if not isinstance(target, ArrayRef):
            raise NativeUnsupported(f"scalar target {target}")
        decl = self._use_array(target.name)
        if target.name not in self.written:
            self.written.append(target.name)
        elem = _ELEM_TYPE[decl.elem_type]
        value, kind = self.expr(node.rhs)
        flat = self.flat_index(target)
        slot = f"{target.name}[{flat}]"
        if node.reduction in ("+", "*"):
            # In-place update: computed in the NEP 50 promoted type of
            # (element, value), then cast back on store — exactly NumPy's
            # in-place ufunc behavior the interpreter hits per element.
            op = node.reduction
            kind2 = _promote(elem, kind)
            self.emit(
                f"{slot} = ({_C_TYPE[elem]})"
                f"({_cast(slot, elem, kind2)} {op} {_cast(value, kind, kind2)});"
            )
        elif node.reduction is None:
            self.emit(f"{slot} = ({_C_TYPE[elem]})({value});")
        else:
            raise NativeUnsupported(f"reduction {node.reduction!r}")

    # -- assembly -------------------------------------------------------
    def generate(self) -> NativeKernel:
        self.stmt(self.root)
        body = self.lines
        header = [
            "#include <stdint.h>",
            "",
        ]
        if self.uses_pymod:
            header += [
                "static inline int64_t pymod(int64_t a, int64_t b) {",
                "    int64_t r = a % b;",
                "    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;",
                "}",
                "",
            ]
        header.append(
            "int kernel(const double *fp, const int64_t *ip, "
            "char **arrays, const int64_t *dims) {"
        )
        prologue = []
        for pos, name in enumerate(self.used_fparams):
            prologue.append(f"    double {name} = fp[{pos}];")
        for pos, name in enumerate(self.used_iparams):
            prologue.append(f"    int64_t {name} = ip[{pos}];")
        offset = 0
        for pos, name in enumerate(self.used_arrays):
            decl = self.program.array(name)
            ctype = _C_TYPE[_ELEM_TYPE[decl.elem_type]]
            prologue.append(f"    {ctype} *{name} = ({ctype} *)arrays[{pos}];")
            prologue.append(
                f"    const int64_t *dims_{name} = dims + {offset};"
            )
            offset += decl.rank
        footer = ["    return 0;", "}", ""]
        source = "\n".join(header + prologue + body + footer)
        return NativeKernel(
            c_source=source,
            float_params=tuple(self.used_fparams),
            int_params=tuple(self.used_iparams),
            array_names=tuple(self.used_arrays),
            written=tuple(self.written),
        )


def generate_nest_source(root: Loop, program: Program) -> NativeKernel:
    """Translate one loop nest to C, or raise :class:`NativeUnsupported`."""
    return _CodeGen(root, program).generate()


# ----------------------------------------------------------------------
# Compilation and loading (content-addressed .so cache)
# ----------------------------------------------------------------------

_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fwrapv")

_loaded_libs: dict[str, object] = {}
_ffi = None


def _get_ffi():
    global _ffi
    if _ffi is None:
        import cffi

        _ffi = cffi.FFI()
        _ffi.cdef(
            "int kernel(const double *fp, const int64_t *ip, "
            "char **arrays, const int64_t *dims);"
        )
    return _ffi


def native_cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def compile_and_load(c_source: str):
    """Compile *c_source* (or reuse the cached .so) and return the cffi lib.

    Returns ``None`` when compilation or loading fails for any reason —
    the engine then stays on the Python fast path.
    """
    digest = hashlib.sha256(c_source.encode()).hexdigest()
    lib = _loaded_libs.get(digest)
    if lib is not None:
        return lib
    try:
        ffi = _get_ffi()
        cache_dir = native_cache_dir()
        os.makedirs(cache_dir, exist_ok=True)
        so_path = os.path.join(cache_dir, f"{digest}.so")
        if not os.path.exists(so_path):
            compiler = _find_compiler()
            if compiler is None:
                return None
            fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache_dir)
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(c_source)
                fd_so, tmp_so = tempfile.mkstemp(suffix=".so", dir=cache_dir)
                os.close(fd_so)
                result = subprocess.run(
                    [compiler, *_CFLAGS, c_path, "-o", tmp_so],
                    capture_output=True,
                    timeout=120,
                )
                if result.returncode != 0:
                    os.unlink(tmp_so)
                    return None
                os.replace(tmp_so, so_path)
            finally:
                os.unlink(c_path)
        lib = ffi.dlopen(so_path)
    except Exception:
        return None
    _loaded_libs[digest] = lib
    return lib


# ----------------------------------------------------------------------
# The native engine
# ----------------------------------------------------------------------


class _CompiledNest:
    """One nest bound to its compiled kernel and argument layout."""

    def __init__(self, kernel: NativeKernel, lib):
        self.kernel = kernel
        self.lib = lib
        self.ffi = _get_ffi()

    def run(self, scalars: dict, arrays: dict) -> bool:
        """Execute natively; True on success, False to fall back.

        On fallback nothing observable has changed: written arrays are
        snapshotted before the call and restored if the kernel bails on
        an index guard.
        """
        kernel = self.kernel
        fvals = []
        for name in kernel.float_params:
            value = scalars.get(name)
            if type(value) is not float:
                return False  # weak-type mismatch: Python path is exact
            fvals.append(value)
        ivals = []
        for name in kernel.int_params:
            value = scalars.get(name)
            if type(value) is not int:
                return False
            ivals.append(value)
        buffers = []
        dims = []
        for name in kernel.array_names:
            array = arrays.get(name)
            if (
                not isinstance(array, np.ndarray)
                or not array.flags.c_contiguous
                or array.dtype not in (np.float32, np.float64)
            ):
                return False
            buffers.append(array)
            dims.extend(array.shape)
        ffi = self.ffi
        fp = ffi.new("double[]", fvals or [0.0])
        ip = ffi.new("int64_t[]", ivals or [0])
        views = [ffi.from_buffer(array) for array in buffers]
        ptrs = ffi.new("char *[]", [ffi.cast("char *", v) for v in views])
        dim_buf = ffi.new("int64_t[]", dims or [0])
        snapshots = {
            name: arrays[name].copy()
            for name in kernel.written
            if name in arrays
        }
        rc = self.lib.kernel(fp, ip, ptrs, dim_buf)
        if rc != 0:
            for name, saved in snapshots.items():
                np.copyto(arrays[name], saved)
            return False  # the interpreter reproduces wrap/IndexError exactly
        return True


class NativeEngine(VectorizedEngine):
    """Fold engine that runs eligible nests on compiled C kernels first."""

    def __init__(self, program: Program, call_handler: Optional[CallHandler] = None):
        super().__init__(program, call_handler)
        #: id(nest) -> compiled kernel or None, decided once per program.
        self._native_nests: dict[int, Optional[_CompiledNest]] = self.plans.native

    def _native_nest(self, root: Loop) -> Optional[_CompiledNest]:
        compiled = self._native_nests.get(id(root), _NATIVE_UNSET)
        if compiled is _NATIVE_UNSET:
            compiled = None
            if native_available():
                try:
                    kernel = generate_nest_source(root, self.program)
                except NativeUnsupported:
                    kernel = None
                if kernel is not None:
                    lib = compile_and_load(kernel.c_source)
                    if lib is not None:
                        compiled = _CompiledNest(kernel, lib)
            self._native_nests[id(root)] = compiled
        return compiled

    def _run_kernel(self, plan) -> bool:
        compiled = self._native_nest(plan.root)
        if compiled is not None and compiled.run(self.scalars, self.arrays):
            return True
        return super()._run_kernel(plan)


_NATIVE_UNSET = object()


__all__ = [
    "NativeEngine",
    "NativeKernel",
    "NativeUnsupported",
    "compile_and_load",
    "generate_nest_source",
    "native_available",
    "native_cache_dir",
]
