"""Loop-nest intermediate representation (IR) for TDO-CIM.

This package is the reproduction's stand-in for LLVM-IR.  The front-end
(:mod:`repro.frontend`) lowers a restricted C subset into this IR, the
polyhedral layer (:mod:`repro.poly`) extracts iteration domains and access
relations from it, and the code generator (:mod:`repro.codegen`) turns
transformed schedule trees back into IR programs that can be executed by the
interpreter (:mod:`repro.ir.interp`) against the host cost model and the CIM
runtime.

The IR is deliberately small and explicit: expressions, statements,
counted ``for`` loops, and whole programs with typed array declarations.
"""

from repro.ir.types import ElementType
from repro.ir.expr import (
    Expr,
    IntConst,
    FloatConst,
    VarRef,
    ParamRef,
    ArrayRef,
    BinOp,
    UnaryOp,
    Min,
    Max,
)
from repro.ir.stmt import (
    Stmt,
    Assign,
    Block,
    Loop,
    CallStmt,
    IfStmt,
)
from repro.ir.program import ArrayDecl, ParamDecl, Program
from repro.ir.printer import to_source
from repro.ir.interp import Interpreter, ExecutionTrace
from repro.ir.engine import ENGINE_MODES, VectorizedEngine, make_engine

__all__ = [
    "ElementType",
    "Expr",
    "IntConst",
    "FloatConst",
    "VarRef",
    "ParamRef",
    "ArrayRef",
    "BinOp",
    "UnaryOp",
    "Min",
    "Max",
    "Stmt",
    "Assign",
    "Block",
    "Loop",
    "CallStmt",
    "IfStmt",
    "ArrayDecl",
    "ParamDecl",
    "Program",
    "to_source",
    "Interpreter",
    "ExecutionTrace",
    "ENGINE_MODES",
    "VectorizedEngine",
    "make_engine",
]
