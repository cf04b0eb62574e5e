"""The C body of a planned loop nest.

An emitted nest kernel (:class:`~repro.ir.engine.engine.NestKernel`) has
one guard and two bodies.  The fold body is Python over NumPy views; this
module writes the other one in C, from the same
:class:`~repro.ir.engine.analysis.NestPlan`, compiles it with the system C
compiler and loads it through ``cffi``'s ABI mode (``dlopen``; no Python
headers needed).  The kernel calls it once its guard has passed, so the C
checks nothing and nothing needs restoring.

The C runs the plan in its own loop order.  Sequential loops stay where
the plan put them.  Every assignment gets its own loop nest over its
vectorized axes, innermost, with the axis of the target's last subscript
last (unit stride).  A ``+`` reduction whose operands are unit-stride or
constant along that axis instead keeps a register tile of its target
(GCC/Clang vector-extension values) across its sequential loops, so the
target is loaded and stored once, not once per step.  The planner has
proven that vectorized axes carry no dependence, so every element sees
the fold body's operations in the fold body's order.  Operands are typed the way NumPy types the fold body's
(NEP 50: Python scalars are weak, array elements strong) with explicit C
casts; float constants are C99 hex literals.  The flags keep that exact:
``-ffp-contract=off`` forbids fused multiply-adds, and without
``-ffast-math`` the vectorizer never reassociates, so it only ever
vectorizes the innermost (independent) axes.  Arrays are passed
``restrict``: every array an engine holds is its own copy.  Arrays,
scalars, extents and loop variables are generated locals (``a0``, ``p0``,
``n0``, ``i1``), so no identifier of the input can collide with the C.

It fails soft at every layer, down to the fold body:

* :func:`native_available` gates on ``cffi``, a C compiler on ``PATH`` and
  the ``REPRO_NATIVE`` environment variable (``0``/``off``/``false``/``no``
  disable it);
* a plan with no exact C form (true division, float ``%``, integer
  arrays) gets no C body;
* at call time an array of another dtype or layout, or a scalar that is
  not the declared Python ``int``/``float``, sends that run to the fold
  body.

Shared objects are kept in a :class:`~repro.disk_store.DiskStore`
(:func:`native_store`), named by the SHA-256 of the compiler, the flags and
the source, so later processes only ``dlopen``.  One that does not load is
quarantined and built again, once.  Every outcome, a failed compile
included, is remembered for the life of the process.  A load refreshes
the object's mtime, and a build removes the store's objects that have not
been loaded for :data:`STALE_OBJECT_S`.

On x86-64 ELF builds the kernel is emitted as two clones (GCC/Clang
``target_clones``): one for AVX2 and the baseline one.  The loader's ifunc
resolver picks one when the object is loaded, so one cached object serves
every x86-64 CPU.  The clones share the flags above, so they round alike;
they differ only in vector width.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import os
import re
import shutil
import subprocess
import tempfile
import time
from typing import Callable, Optional

import numpy as np

from repro.disk_store import DiskStore
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
from repro.ir.program import Program
from repro.ir.types import ElementType
from repro.ir.engine.analysis import NestPlan, PlanAssign, PlanLoop, PlanNode, plan_assigns


class NativeUnsupported(Exception):
    """The plan has no exact C body; its fold body runs instead."""


_DISABLE_VALUES = ("0", "off", "false", "no")


@functools.cache
def _find_compiler() -> Optional[str]:
    return next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)


def native_available() -> bool:
    """True when C bodies can be compiled and loaded."""
    if os.environ.get("REPRO_NATIVE", "").lower() in _DISABLE_VALUES:
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return _find_compiler() is not None


# ----------------------------------------------------------------------
# Emitting the C body from the plan
# ----------------------------------------------------------------------

#: Value kinds: weak (Python) int, weak float, and strong array elements.
_I64, _F64W, _F32, _F64 = "i64", "f64w", "f32", "f64"

_C_TYPE = {_I64: "int64_t", _F64W: "double", _F32: "float", _F64: "double"}

_ELEM_KIND = {ElementType.F32: _F32, ElementType.F64: _F64}

#: The dtype an array of each strong kind must arrive as, and the Python
#: type a scalar of each weak kind must arrive as.
_DTYPE = {_F32: np.dtype(np.float32), _F64: np.dtype(np.float64)}
_PY_TYPE = {_I64: "int", _F64W: "float"}

#: ``VECTOR_CLONES`` marks the kernel's definition: an AVX2 and a baseline
#: clone where the toolchain has ``target_clones``, nothing elsewhere.
_PRELUDE = """#include <stdint.h>

#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VECTOR_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef VECTOR_CLONES
#define VECTOR_CLONES
#endif

static inline int64_t imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t imax(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t pymod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return r != 0 && (r < 0) != (b < 0) ? r + b : r;
}
"""


#: A register tile's vector type and its unaligned load and store, put in
#: the bodies that have a tile of ``{c}`` elements.
_VECTOR_PRELUDE = """typedef {c} v{c} __attribute__((vector_size(32)));
static inline v{c} load_{c}(const {c} *p) {{ v{c} v; __builtin_memcpy(&v, p, sizeof v); return v; }}
static inline void store_{c}({c} *p, v{c} v) {{ __builtin_memcpy(p, &v, sizeof v); }}\n"""


def _promote(lhs: str, rhs: str) -> str:
    """NEP 50 result kind of a binary operation between *lhs* and *rhs*."""
    for kind in (_F64, _F32, _F64W):
        if kind in (lhs, rhs):
            return kind  # a weak scalar takes the array's type
    return _I64


def _cast(code: str, src: str, dst: str) -> str:
    if _C_TYPE[src] == _C_TYPE[dst]:
        return code
    return f"({_C_TYPE[dst]})({code})"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


class _CEmitter:
    """Writes the C body of one plan, with the argument order of its
    kernel: arrays, then scalars (as the kernel names them), then the
    array extents the flat indices read."""

    def __init__(self, kernel, program: Program):
        self.arrays = {name: f"a{k}" for k, name in enumerate(kernel.arrays)}
        self.scalars = {name: f"p{k}" for k, name in enumerate(kernel.scalars)}
        decls = {decl.name: decl.elem_type for decl in program.arrays}
        params = {decl.name: decl.elem_type for decl in program.params}
        #: local -> value kind; an undeclared scalar is a loop variable.
        self.kinds = {
            local: _ELEM_KIND.get(decls.get(name)) for name, local in self.arrays.items()
        }
        if None in self.kinds.values():
            raise NativeUnsupported("an array is not float or double")
        for name, local in self.scalars.items():
            self.kinds[local] = _F64W if name in params and params[name].is_float else _I64
        self.extents: dict[tuple[str, int], str] = {}  # (array, axis) -> local
        self.loop_vars: dict[str, str] = {}  # loop variable -> local
        self.frames: dict[str, PlanLoop] = {}  # vectorized loop variable -> loop
        self.serial = itertools.count(1)
        self.vector_types: set[str] = set()  # C element types of register tiles

    # -- expressions ------------------------------------------------------
    def expr(self, node: Expr) -> tuple[str, str]:
        """C text and value kind of *node*."""
        if isinstance(node, (IntConst, FloatConst)):
            value = node.value
            if type(value) is float and math.isfinite(value):
                return value.hex(), _F64W
            if type(value) is int and abs(value) < 2**63:
                return f"INT64_C({value})", _I64
            raise NativeUnsupported(f"constant {value!r}")
        if isinstance(node, (VarRef, ParamRef)):
            if node.name in self.loop_vars:
                return self.loop_vars[node.name], _I64
            local = self.scalars[node.name]
            return local, self.kinds[local]
        if isinstance(node, ArrayRef):
            return self.element(node)
        if isinstance(node, UnaryOp):
            code, kind = self.expr(node.operand)
            return f"(-{code})", kind
        lhs, lkind = self.expr(node.lhs)
        rhs, rkind = self.expr(node.rhs)
        if isinstance(node, (Min, Max)) or node.op == "%":
            if (lkind, rkind) != (_I64, _I64):
                raise NativeUnsupported("min, max or % on floating operands")
            helper = {Min: "imin", Max: "imax"}.get(type(node), "pymod")
            return f"{helper}({lhs}, {rhs})", _I64
        if not isinstance(node, BinOp) or node.op not in ("+", "-", "*"):
            raise NativeUnsupported(f"expression {node!r}")  # true division
        kind = _promote(lkind, rkind)
        return f"({_cast(lhs, lkind, kind)} {node.op} {_cast(rhs, rkind, kind)})", kind

    def index(self, node: Expr) -> str:
        code, kind = self.expr(node)
        if kind != _I64:
            raise NativeUnsupported(f"non-integer bound or subscript {node}")
        return code

    def element(self, ref: ArrayRef) -> tuple[str, str]:
        """One element of *ref*, flat-indexed in row-major order."""
        local = self.arrays[ref.name]
        flat = self.index(ref.indices[0])
        for axis, index in enumerate(ref.indices[1:], 1):
            extent = self.extents.setdefault((local, axis), f"n{len(self.extents)}")
            flat = f"({flat}) * {extent} + {self.index(index)}"
        return f"{local}[{flat}]", self.kinds[local]

    # -- statements -------------------------------------------------------
    def head(self, loop: PlanLoop, bounds: Optional[tuple[str, str]] = None) -> str:
        """The ``for`` line of *loop* (or of *bounds*); binds its variable."""
        lower, upper = bounds or (self.index(loop.lower), self.index(loop.upper))
        local = self.loop_vars[loop.var] = f"i{next(self.serial)}"
        return f"for (int64_t {local} = {lower}; {local} < {upper}; {local} += {loop.step})"

    def block(self, nodes: list[PlanNode]) -> list[str]:
        lines = []
        for node in nodes:
            if isinstance(node, PlanAssign):
                lines += self.assign(node)
            elif node.vec:  # each assignment below loops over it itself
                self.frames[node.var] = node
                lines += self.block(node.body)
                del self.frames[node.var]
            else:
                lines += self.tile(node) or self.nest([node], lambda: self.block(node.body))
        return lines

    def nest(self, loops: list[PlanLoop], inner: Callable[[], list[str]]) -> list[str]:
        """*loops*, outermost first, around the lines of ``inner()``."""
        if not loops:
            return inner()
        head, body = self.head(loops[0]), self.nest(loops[1:], inner)
        del self.loop_vars[loops[0].var]
        return [head + " {", *_indent(body), "}"]

    def assign(self, node: PlanAssign, bounds: Optional[dict] = None) -> list[str]:
        """The assignment inside a nest over its vectorized axes, or only
        over those of *bounds* ({variable: (lower, upper) or None})."""
        stmt, spec = node.stmt, node.fold
        last = spec.target.dims[-1].vec_var
        order = sorted(bounds or spec.vec_vars, key=lambda var: var == last)
        lines = [self.head(self.frames[var], (bounds or {}).get(var)) for var in order]
        slot, elem = self.element(stmt.target)
        value, kind = self.expr(stmt.rhs)
        if stmt.reduction in ("+", "*"):  # NumPy's in-place ufunc: promote, cast back
            wide = _promote(elem, kind)
            value = f"{_cast(slot, elem, wide)} {stmt.reduction} {_cast(value, kind, wide)}"
        for var in order:
            del self.loop_vars[var]
        lines.append(f"{slot} = ({_C_TYPE[elem]})({value});")
        return ["    " * depth + line for depth, line in enumerate(lines)]

    # -- register tiles ---------------------------------------------------
    def tile(self, loop: PlanLoop) -> Optional[list[str]]:
        """*loop* run inside register tiles of the one ``+`` reduction under
        it, or ``None``: that needs a unit-stride target the sequential
        loops do not move, and a value that reads nothing the nest writes,
        only arrays of the target's type, unit-stride or constant."""
        chain, inner, node = [], [], loop
        while isinstance(node, PlanLoop) and len(node.body) == 1:
            (inner if node.vec else chain).append(node)
            node = node.body[0]
        if not isinstance(node, PlanAssign) or node.stmt.reduction != "+":
            return None
        self.frames.update((vec.var, vec) for vec in inner)
        spec, seq = node.fold, {loop.var for loop in chain}
        last, kind = spec.target.dims[-1], self.kinds[self.arrays[node.stmt.target.name]]
        tiled = (last.coeff == 1 and self.frames[last.vec_var].step == 1
            and not node.stmt.target.free_vars() & seq
            and not any((vec.lower.free_vars() | vec.upper.free_vars()) & seq for vec in inner)
            and all(ref.name not in self.written and self.kinds[self.arrays[ref.name]] == kind
                    and all(dim.vec_var != last.vec_var or (dim is ref.dims[-1] and dim.coeff == 1)
                            for dim in ref.dims)
                    for ref in spec.refs.values()))
        lines = self.tiles(node, chain) if tiled else None
        for vec in inner:
            del self.frames[vec.var]
        return lines

    def tiles(self, node: PlanAssign, chain: list[PlanLoop]) -> list[str]:
        """*node* in tiles of 2 rows x 4 vectors of its target's last axis;
        leftovers run the untiled order (docs/engine.md: why no 1-vector
        tile)."""
        strip = node.fold.target.dims[-1].vec_var
        outer, row = sorted(node.fold.vec_vars, key=lambda var: var == strip)[:-1], None
        if outer and self.frames[outer[-1]].step == 1:
            *outer, row = outer
        lanes = 32 // _DTYPE[self.kinds[self.arrays[node.stmt.target.name]]].itemsize
        col, frame = f"i{next(self.serial)}", self.frames[strip]

        def columns(rows: dict, left: dict) -> list[str]:
            lo, hi = self.index(frame.lower), self.index(frame.upper)
            cols = [f"({col} + {v * lanes})" if v else col for v in range(4)]
            return [f"int64_t {col} = {lo};",
                    f"for (; {col} + {4 * lanes - 1} < {hi}; {col} += {4 * lanes}) {{",
                    *_indent(self.registers(node, chain, {**rows, strip: cols})), "}",
                    *self.nest(chain, lambda: self.assign(node, {**left, strip: (col, hi)}))]

        def rows() -> list[str]:
            if row is None:
                return columns({}, {})
            r, upper = f"i{next(self.serial)}", self.index(self.frames[row].upper)
            return [f"int64_t {r} = {self.index(self.frames[row].lower)};",
                    f"for (; {r} + 1 < {upper}; {r} += 2) {{",
                    *_indent(columns({row: [r, f"({r} + 1)"]}, {row: (r, f"{r} + 2")})), "}",
                    *self.nest(chain, lambda: self.assign(node, {row: (r, upper), strip: None}))]

        return self.nest([self.frames[var] for var in outer], rows)

    def registers(self, node: PlanAssign, chain: list[PlanLoop], axes: dict) -> list[str]:
        """One tile: an accumulator per point of *axes* ({variable: its C
        values}, the strip last) loaded, *chain* run on them, stored."""
        target, strip = node.stmt.target, list(axes)[-1]
        elem = self.kinds[self.arrays[target.name]]
        ctype = _C_TYPE[elem]
        self.vector_types.add(ctype)
        tile = [(dict(zip(axes, point)), f"i{next(self.serial)}")
                for point in itertools.product(*axes.values())]
        moving = {key for key, ref in node.fold.refs.items()
                  if any(dim.vec_var == strip for dim in ref.dims)}
        lines, stores = [], []
        for point, acc in tile:
            self.loop_vars.update(point)
            slot = self.element(target)[0]
            lines.append(f"v{ctype} {acc} = load_{ctype}(&{slot});")
            stores.append(f"store_{ctype}(&{slot}, {acc});")

        def step() -> list[str]:
            hoisted, updates = {}, []
            for point, acc in tile:
                self.loop_vars.update(point)
                value, kind = self.lanes(node.stmt.rhs, moving, ctype, hoisted)
                updates.append(f"{acc} = {acc} + {_cast(value, kind, elem)};")
            return [f"{decl} {local} = {code};" for code, (decl, local) in hoisted.items()] + updates

        lines += self.nest(chain, step) + stores
        for var in axes:
            del self.loop_vars[var]
        return lines

    def lanes(self, node: Expr, moving: set, ctype: str, hoisted: dict) -> tuple[str, str]:
        """C text and kind of *node* on one tile vector: what reads none of
        the references in *moving* (``id``s of those whose subscripts carry
        the strip axis) is a broadcast scalar, the rest vector loads, both
        computed once per step (*hoisted*: C text -> (type, local))."""
        moves = any(id(sub) in moving for sub in node.walk())
        if moves and isinstance(node, ArrayRef):
            slot, kind = self.element(node)
            code, decl = f"load_{ctype}(&{slot})", f"v{ctype}"
        elif moves and isinstance(node, UnaryOp):
            code, kind = self.lanes(node.operand, moving, ctype, hoisted)
            return f"(-{code})", kind
        elif moves and isinstance(node, BinOp) and node.op in ("+", "-", "*"):
            lhs, lkind = self.lanes(node.lhs, moving, ctype, hoisted)
            rhs, rkind = self.lanes(node.rhs, moving, ctype, hoisted)
            kind = _promote(lkind, rkind)
            return f"({_cast(lhs, lkind, kind)} {node.op} {_cast(rhs, rkind, kind)})", kind
        else:  # a scalar, or what the scalar code cannot emit either (raises)
            code, kind = self.expr(node)
            decl = _C_TYPE[kind]
        return hoisted.setdefault(code, (decl, f"i{next(self.serial)}"))[1], kind

    def dispatch(self, ffi, lib) -> Callable[..., bool]:
        """The kernel's ``native``: the loaded C body behind the run-time
        checks its static types need.  Called with the kernel's arguments
        once the guard has passed, it returns ``False`` (nothing written)
        when an array is not of the declared dtype or not C-contiguous,
        aligned and writable, or a scalar is not of the declared Python
        type — the fold body then runs."""
        arrays, scalars = list(self.arrays.values()), list(self.scalars.values())
        checks = [f"{a}.dtype == d{a} and {a}.flags.carray" for a in arrays]
        checks += [f"type({p}) is {_PY_TYPE[self.kinds[p]]}" for p in scalars]
        args = [f"buffer(t{a}, {a})" for a in arrays] + scalars
        args += [f"{a}.shape[{axis}]" for a, axis in self.extents]
        source = "\n".join([
            f"def native({', '.join(arrays + scalars)}):",
            f"    if not ({' and '.join(checks)}): return False",
            "    try:",
            f"        lib.kernel({', '.join(args)})",
            "    except OverflowError:  # an int beyond int64_t: before the call",
            "        return False",
            "    return True",
        ])
        namespace = {"lib": lib, "buffer": ffi.from_buffer}
        for a in arrays:
            namespace[f"d{a}"] = _DTYPE[self.kinds[a]]
            namespace[f"t{a}"] = ffi.typeof(f"{_C_TYPE[self.kinds[a]]}[]")
        exec(compile(source, "<C body dispatch>", "exec"), namespace)
        return namespace["native"]

    def emit(self, plan: NestPlan) -> tuple[str, str]:
        """(prototype, source) of the C body."""
        self.written = {node.stmt.target.name for node in plan_assigns(plan)}
        body = self.block(plan.nodes)
        params = [f"{_C_TYPE[self.kinds[a]]} *restrict {a}" for a in self.arrays.values()]
        params += [f"{_C_TYPE[self.kinds[p]]} {p}" for p in self.scalars.values()]
        params += [f"int64_t {n}" for n in self.extents.values()]
        prototype = f"void kernel({', '.join(params)})"
        definition = f"VECTOR_CLONES {prototype} {{"
        vectors = [_VECTOR_PRELUDE.format(c=ctype) for ctype in sorted(self.vector_types)]
        return prototype, "\n".join([_PRELUDE, *vectors, definition, *_indent(body), "}", ""])


# ----------------------------------------------------------------------
# Compiling and loading (content-addressed shared objects)
# ----------------------------------------------------------------------

_CFLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-fwrapv", "-fPIC", "-shared")

#: An object no process has loaded for this long is removed by the next
#: build in its store: bodies that are never reused (a fuzzer draws new
#: ones each run) must not pile up.  A process that still has it mapped
#: keeps running it; a later process builds it again.
STALE_OBJECT_S = 86400.0

#: The names of the objects the store holds: a digest, ``.so``, and
#: ``.corrupt`` once quarantined.
_OBJECT_NAME = re.compile(r"[0-9a-f]{64}\.so(\.corrupt)?")

#: digest -> (ffi, lib), or None for a compile or load that failed.
_loaded: dict[str, Optional[tuple]] = {}


#: One store per directory, so its counts last the process.
_store_at = functools.cache(DiskStore)


def native_store() -> DiskStore:
    """The store of compiled objects: ``REPRO_NATIVE_CACHE``, by default
    ``<tmpdir>/repro-native-<uid>``."""
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    default = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    return _store_at(os.environ.get("REPRO_NATIVE_CACHE") or default)


def compile_and_load(c_source: str, prototype: str) -> Optional[tuple]:
    """``(ffi, lib)`` of *c_source*, whose one function is *prototype*.

    Compiles it, or reuses the shared object cached under the digest of
    the compiler, the flags and the source (rebuilding one that does not
    load).  ``None`` when compiling or loading fails; both outcomes are
    remembered for the process.
    """
    compiler = _find_compiler()
    key = "\0".join([str(compiler), *_CFLAGS, c_source])
    digest = hashlib.sha256(key.encode()).hexdigest()
    if digest not in _loaded:
        _loaded[digest] = _build(digest, compiler, c_source, prototype)
    return _loaded[digest]


def _build(digest: str, compiler, c_source: str, prototype: str) -> Optional[tuple]:
    import cffi

    if compiler is None:
        return None
    ffi = cffi.FFI()
    ffi.cdef(prototype + ";")
    store, name = native_store(), f"{digest}.so"
    try:
        # Under the lock, processes that miss together run the compiler
        # once.  A lock not taken in time (counted) builds unlocked.
        with store.locked() as held:
            lib = store.load(name, ffi.dlopen)
            if lib is not None:
                with contextlib.suppress(OSError):
                    os.utime(store.path(name))  # loaded now: not stale
            else:  # absent, or quarantined as not loading
                if held:
                    _prune(store)
                with store.installing(name) as built:
                    subprocess.run([compiler, *_CFLAGS, "-x", "c", "-", "-o", built],
                                   input=c_source.encode(), capture_output=True, timeout=120,
                                   check=True)
                lib = ffi.dlopen(store.path(name))
        return ffi, lib
    except (OSError, subprocess.SubprocessError):  # no cache dir, gcc failed, dlopen failed
        return None


def _prune(store: DiskStore) -> None:
    """Remove the store's objects, and its quarantined ones, that no
    process has loaded for :data:`STALE_OBJECT_S`; under the store's lock,
    so no process loads one meanwhile.  Other files are left alone."""
    stale_s = time.time() - STALE_OBJECT_S
    # A prune that fails (an unreadable directory) must not fail the build.
    with contextlib.suppress(OSError), os.scandir(store.directory) as entries:
        for entry in entries:
            if _OBJECT_NAME.fullmatch(entry.name):
                with contextlib.suppress(OSError):
                    if entry.stat().st_mtime < stale_s:
                        os.unlink(entry.path)


# ----------------------------------------------------------------------
# Binding a C body to its kernel
# ----------------------------------------------------------------------


def attach_c_body(plan: NestPlan, program: Program) -> None:
    """Give ``plan.kernel`` its C body, when the plan has an exact one and
    it compiles; otherwise the kernel keeps running its fold body."""
    kernel = plan.kernel
    try:
        emitter = _CEmitter(kernel, program)
        prototype, source = emitter.emit(plan)
    except NativeUnsupported:
        return
    loaded = compile_and_load(source, prototype)
    if loaded is not None:
        kernel.c_source = source
        kernel.native = emitter.dispatch(*loaded)


__all__ = [
    "NativeUnsupported",
    "attach_c_body",
    "compile_and_load",
    "native_available",
    "native_store",
]
