"""Recursive-descent parser for the mini-C subset.

The accepted language covers the PolyBench/C kernels the paper evaluates:

* one ``void`` function per translation unit;
* scalar parameters (``int M``, ``float alpha``) and array parameters with
  symbolic or constant dimensions (``float A[M][K]``);
* counted ``for`` loops with lower-bound initialisation, ``<``/``<=``
  comparison against an expression, and ``++``/``+= const`` increments;
* assignments ``=``, ``+=``, ``*=`` to array elements or scalars;
* arithmetic expressions over parameters, induction variables, constants and
  array accesses.

The parser lowers directly to the loop-nest IR (:class:`repro.ir.Program`).
Semantic checks: every identifier used must be a declared parameter, array,
or an in-scope induction variable; no name is declared twice; array access
rank must match the declaration; induction variables are only written by
their loop's increment, which must be a positive constant.

It reads the token texts and kinds the scanner produced; a token's line and
column are computed only for an error.  Statements are named ``S0``, ``S1``,
... in source order, afresh for every parse.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend.errors import FrontendError
from repro.frontend.lexer import TokenKind, location, scan
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    FloatConst,
    IntConst,
    ParamRef,
    UnaryOp,
    VarRef,
)
from repro.ir.program import ArrayDecl, ParamDecl, Program
from repro.ir.stmt import Assign, Block, Loop, Stmt
from repro.ir.types import ElementType

#: Element types by C name (``ElementType`` values are the C names).
_TYPES = {elem_type.value: elem_type for elem_type in ElementType}


def parse_program(source: str) -> Program:
    """Parse mini-C *source* into an IR :class:`Program`."""
    return _Parser(source).parse_translation_unit()


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.texts, self.kinds, self.starts = scan(source)
        self.pos = 0
        self.program: Optional[Program] = None
        #: Every declared parameter and array, by name.
        self.decls: dict[str, ParamDecl | ArrayDecl] = {}
        self.loop_vars: list[str] = []
        #: Statements named so far: the next one is ``S<statements>``.
        self.statements = 0

    # ------------------------------------------------------------------
    # Token helpers.  The EOF token's text is "", which no grammar rule
    # asks for, so a text test never moves past the end.
    # ------------------------------------------------------------------
    def _accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self._error(f"expected {text!r}, found {self.texts[self.pos]!r}")
        self.pos += 1

    def _expect_ident(self) -> str:
        text = self.texts[self.pos]
        if self.kinds[self.pos] is not TokenKind.IDENT:
            raise self._error(f"expected identifier, found {text!r}")
        self.pos += 1
        return text

    def _error(self, message: str, index: Optional[int] = None) -> FrontendError:
        """An error at token *index*, the current token by default."""
        offset = self.starts[self.pos if index is None else index]
        return FrontendError(message, *location(self.source, offset))

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> Program:
        self._expect("void")
        self.program = Program(name=self._expect_ident())
        self._expect("(")
        if self.texts[self.pos] != ")":
            self._parse_parameter()
            while self._accept(","):
                self._parse_parameter()
        self._expect(")")
        self._expect("{")
        self._parse_block(self.program.body)
        if self.kinds[self.pos] is not TokenKind.EOF:
            raise self._error("only one function per translation unit is supported")
        return self.program

    def _parse_type(self) -> ElementType:
        while self.texts[self.pos] in ("const", "static"):
            self.pos += 1
        text = self.texts[self.pos]
        if text in _TYPES:
            self.pos += 1
            return _TYPES[text]
        raise self._error(f"expected a type name, found {text!r}")

    def _parse_parameter(self) -> None:
        assert self.program is not None
        elem_type = self._parse_type()
        # Pointer-style array parameters (e.g. ``float *A``) are not part of
        # the affine subset; reject them explicitly for a clear message.
        if self.texts[self.pos] == "*":
            raise self._error("pointer parameters are not supported; use C arrays")
        name = self._expect_ident()
        if name in self.decls:
            raise self._error(f"{name!r} is declared twice", self.pos - 1)
        dims = self._parse_indices()
        if dims:
            decl: ParamDecl | ArrayDecl = ArrayDecl(name, dims, elem_type)
            self.program.arrays.append(decl)
        else:
            decl = ParamDecl(name, elem_type)
            self.program.params.append(decl)
        self.decls[name] = decl

    def _parse_statement(self) -> Stmt:
        text = self.texts[self.pos]
        if text == "for":
            return self._parse_for()
        if text == "{":
            self.pos += 1
            return self._parse_block(Block())
        return self._parse_assignment()

    def _parse_block(self, block: Block) -> Block:
        """The statements up to and including the closing brace."""
        while self.texts[self.pos] != "}":
            block.append(self._parse_statement())
        self.pos += 1
        return block

    def _parse_for(self) -> Loop:
        self.pos += 1  # "for"
        self._expect("(")
        # init: [int] var = expr
        self._accept("int")
        var = self._expect_ident()
        if var in self.decls:
            raise self._error(
                f"loop variable {var!r} shadows a parameter or array name"
            )
        self._expect("=")
        lower = self._parse_expression()
        self._expect(";")
        # condition: var < expr  or  var <= expr
        if self._expect_ident() != var:
            raise self._error(
                f"loop condition must test the induction variable {var!r}"
            )
        inclusive = self._accept("<=")
        if not inclusive:
            self._expect("<")
        upper = self._parse_expression()
        if inclusive:
            upper = BinOp("+", upper, IntConst(1))
        self._expect(";")
        # increment: var++ / ++var / var += const
        step = self._parse_increment(var)
        self._expect(")")
        self.loop_vars.append(var)
        body = self._parse_statement()
        self.loop_vars.pop()
        if not isinstance(body, Block):
            body = Block([body])
        return Loop(var=var, lower=lower, upper=upper, body=body, step=step)

    def _parse_increment(self, var: str) -> int:
        prefix = self._accept("++")
        if self._expect_ident() != var:
            raise self._error("loop increment must update the induction variable")
        if prefix or self._accept("++"):
            return 1
        self._expect("+=")
        if self.kinds[self.pos] is not TokenKind.INT:
            raise self._error("loop step must be an integer constant")
        step = int(self.texts[self.pos])
        if step == 0:
            raise self._error("loop step must be positive")
        self.pos += 1
        return step

    def _parse_assignment(self) -> Assign:
        target = self._parse_lvalue()
        reduction: Optional[str] = None
        if self.texts[self.pos] in ("+=", "*="):
            reduction = self.texts[self.pos][0]
            self.pos += 1
        else:
            self._expect("=")
        rhs = self._parse_expression()
        self._expect(";")
        name = f"S{self.statements}"
        self.statements += 1
        return Assign(target=target, rhs=rhs, reduction=reduction, name=name)

    def _parse_lvalue(self) -> ArrayRef | VarRef:
        at = self.pos
        name = self._expect_ident()
        indices = self._parse_indices()
        if indices:
            return self._array_ref(name, indices, "assignment to undeclared array", self.pos)
        decl = self.decls.get(name)
        if isinstance(decl, ArrayDecl):
            raise self._error(f"array {name!r} used without indices")
        if decl is not None:
            raise self._error(f"cannot assign to parameter {name!r}")
        if name in self.loop_vars:
            raise self._error(f"cannot assign to loop variable {name!r}", at)
        return VarRef(name)

    def _parse_indices(self) -> list[Expr]:
        indices: list[Expr] = []
        while self.texts[self.pos] == "[":
            self.pos += 1
            indices.append(self._parse_expression())
            self._expect("]")
        return indices

    def _array_ref(self, name: str, indices: list[Expr], undeclared: str, at: int) -> ArrayRef:
        decl = self.decls.get(name)
        if not isinstance(decl, ArrayDecl):
            raise self._error(f"{undeclared} {name!r}", at)
        if len(indices) != decl.rank:
            raise self._error(
                f"array {name!r} has rank {decl.rank}, got {len(indices)} indices", at
            )
        return ArrayRef(name, indices)

    # Expression grammar: additive over multiplicative over unary/primary.
    def _parse_expression(self) -> Expr:
        expr = self._parse_term()
        op = self.texts[self.pos]
        while op == "+" or op == "-":
            self.pos += 1
            expr = BinOp(op, expr, self._parse_term())
            op = self.texts[self.pos]
        return expr

    def _parse_term(self) -> Expr:
        expr = self._parse_unary()
        op = self.texts[self.pos]
        while op == "*" or op == "/" or op == "%":
            self.pos += 1
            expr = BinOp(op, expr, self._parse_unary())
            op = self.texts[self.pos]
        return expr

    def _parse_unary(self) -> Expr:
        text = self.texts[self.pos]
        if text == "-":
            self.pos += 1
            return UnaryOp("-", self._parse_unary())
        if text == "+":
            self.pos += 1
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        at = self.pos
        text = self.texts[at]
        kind = self.kinds[at]
        if kind is TokenKind.IDENT:
            self.pos += 1
            indices = self._parse_indices()
            if indices:
                return self._array_ref(text, indices, "use of undeclared array", at)
            decl = self.decls.get(text)
            if isinstance(decl, ArrayDecl):
                raise self._error(f"array {text!r} used without indices", at)
            if decl is not None:
                return ParamRef(text)
            if text in self.loop_vars:
                return VarRef(text)
            raise self._error(f"use of undeclared identifier {text!r}", at)
        if kind is TokenKind.INT:
            self.pos += 1
            return IntConst(int(text))
        if kind is TokenKind.FLOAT:
            self.pos += 1
            return FloatConst(float(text.rstrip("fF")))
        if text == "(":
            self.pos += 1
            # C-style cast of a parenthesised type, e.g. ``(float) x``.
            if self.texts[self.pos] in _TYPES:
                self.pos += 1
                self._expect(")")
                return self._parse_unary()
            expr = self._parse_expression()
            self._expect(")")
            return expr
        raise self._error(f"unexpected token {text!r} in expression")
