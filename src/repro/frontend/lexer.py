"""Scanner for the mini-C subset.

One regular expression reads the input once: each match is the whitespace
and comments a token is preceded by, then the token.  Its last three
alternatives are the end of the input, an unterminated ``/*`` and any other
character, so the matches are contiguous and every one is a token, the EOF
token or an error at a known offset.  The parser reads the texts and kinds
:func:`scan` returns; a line and column is worked out for an error
(:func:`location`) and by :func:`tokenize`, never per token while parsing.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.frontend.errors import FrontendError


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "void",
    "int",
    "float",
    "double",
    "long",
    "for",
    "if",
    "else",
    "return",
    "const",
    "static",
}

_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]* (?:/(?:/[^\n]*|\*.*?\*/) [ \t\r\n]*)*  # skipped before the token
    (?:
        ([A-Za-z_][A-Za-z0-9_]*)                    # 1 identifier or keyword
      | ([-+*/<>=!]= | \+\+ | -- | && | \|\|         # 2 punctuator, longest first
         | /(?!\*) | [-+*%<>=&()\[\]{};,])
      | ((?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?   # 3 float
         | \d+[eE][+-]?\d+[fF]?)
      | (\d+)                                       # 4 int
      | (\Z)                                        # 5 end of input
      | (/\*)                                       # 6 a comment that never ends
      | (.)                                         # 7 anything else
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_KINDS = (None, TokenKind.IDENT, TokenKind.PUNCT, TokenKind.FLOAT, TokenKind.INT)


class Token(NamedTuple):
    """One lexical token with its source location (1-based)."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.column}"


def location(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of *offset* in *source*."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def scan(source: str) -> tuple[list[str], list[TokenKind], list[int]]:
    """The text, kind and start offset of every token of *source*, EOF last.

    Raises :class:`FrontendError` at the first character no token rule
    accepts and at a ``/*`` that is never closed.
    """
    texts: list[str] = []
    kinds: list[TokenKind] = []
    starts: list[int] = []
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        if group > 4:
            break
        text = match[group]
        texts.append(text)
        kinds.append(TokenKind.KEYWORD if text in KEYWORDS else _KINDS[group])
        starts.append(match.start(group))
    if group > 5:
        message = "unterminated comment" if group == 6 else f"unexpected character {match[7]!r}"
        raise FrontendError(message, *location(source, match.start(group)))
    texts.append("")
    kinds.append(TokenKind.EOF)
    starts.append(len(source))
    return texts, kinds, starts


def tokenize(source: str) -> list[Token]:
    """Tokenize mini-C source, raising :class:`FrontendError` on bad input."""
    tokens: list[Token] = []
    line, line_start, previous = 1, 0, 0
    for text, kind, start in zip(*scan(source)):
        # Tokens hold no newline: only the gap since the last token can.
        newline = source.rfind("\n", previous, start)
        if newline >= 0:
            line += source.count("\n", previous, newline + 1)
            line_start = newline + 1
        previous = start
        tokens.append(Token(kind, text, line, start - line_start + 1))
    return tokens
