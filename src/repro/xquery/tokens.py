"""Token definitions for the XQuery lexer."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class TokenKind(str, Enum):
    """Lexical token categories.

    Keywords are not distinguished from names at the lexical level; XQuery
    keywords are contextual and the parser decides what a name means where.
    """

    NAME = "name"            # NCName or QName (possibly a contextual keyword)
    INTEGER = "integer"
    DECIMAL = "decimal"
    DOUBLE = "double"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


#: (Member access through the enum class is ten times a global's cost.)
_NAME, _SYMBOL = TokenKind.NAME, TokenKind.SYMBOL


class Token(NamedTuple):
    """A single token with its source span (for error messages)."""

    kind: TokenKind
    value: str
    start: int
    end: int

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind is _SYMBOL and self.value in symbols

    def is_name(self, *names: str) -> bool:
        return self.kind is _NAME and (not names or self.value in names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.value!r})"


#: Multi-character symbols, longest first so the lexer can greedily match.
MULTI_CHAR_SYMBOLS = [
    ":=", "<<", ">>", "<=", ">=", "!=", "//", "..", "::",
]

#: Single-character symbols.
SINGLE_CHAR_SYMBOLS = set("()[]{},;$@/|+-*=<>.?")
