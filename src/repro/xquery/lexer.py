"""Tokenizer for the XQuery subset.

XQuery's grammar is not context free at the lexical level: a ``<`` can start
either a comparison or a direct element constructor, and inside a
constructor the input is character data, not tokens — ``<a>it's #1</a>`` is
a query, in which a tokenizer run to the end would find an unterminated
string.  The parser therefore takes tokens in runs
(:meth:`Lexer.tokens_ahead`): a run ends behind a ``<`` or a ``}`` — where
a constructor or its content may begin — and, without an error, wherever
:meth:`Lexer.next_token` would hand over to the character-level scanners;
the parser asks :meth:`Lexer.next_token` for that one token.  At a direct
constructor it discards its look-ahead and takes over at the character
level (via :attr:`Lexer.pos`) before resuming token mode.

:meth:`Lexer.next_token` matches one compiled alternation (:data:`_TOKEN`)
at :attr:`Lexer.pos` — blanks, then a QName, a number, a quote-to-quote
string, a symbol, the ``(:`` of a comment or the end of the text — and the
name of the group that matched is the token's kind.  The pattern knows
ASCII and no hard case.  Everything else goes to the character-level
scanners, which are the specification and write every error message:

* strings with an entity reference or a doubled quote, or without an end;
* comments, which nest (the pattern only finds where one starts);
* a token that starts with a non-ASCII character or, in a text that has
  any, ends within three characters of one — the scanners classify names
  with ``str.isalpha``/``isalnum``, so ``café`` is one name, and take
  ASCII digits only, so ``1²`` and ``٣`` are syntax errors;
* every character no token starts with: a non-match is a hand-over, never
  an error of its own.
"""

from __future__ import annotations

import re

from repro.errors import XQuerySyntaxError
from repro.xquery.tokens import MULTI_CHAR_SYMBOLS, SINGLE_CHAR_SYMBOLS, Token, TokenKind

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_.\-]*"

#: One token behind optional blanks; a string's group is the text between
#: its quotes.  ``prefix:local`` wants a name start right behind the colon,
#: which keeps ``::`` and ``:=`` out of a name.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    rf"(?P<name>{_NAME_PATTERN}(?::{_NAME_PATTERN})?)"
    r"|(?P<double>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+)"
    r"|(?P<decimal>[0-9]+\.[0-9]*|\.[0-9]+)"
    r"|(?P<integer>[0-9]+)"
    r"""|"(?P<string>[^"&]*)"(?!")|'(?P<apostrophized>[^'&]*)'(?!')"""
    r"|(?P<comment>\(:)"
    rf"|(?P<symbol>{'|'.join(map(re.escape, MULTI_CHAR_SYMBOLS))}"
    rf"|[{''.join(map(re.escape, sorted(SINGLE_CHAR_SYMBOLS)))}])"
    r"|(?P<eof>\Z))"
).match

_STRING, _EOF = TokenKind.STRING, TokenKind.EOF
#: The symbols a run of :meth:`Lexer.tokens_ahead` ends behind.
_RUN_ENDS = frozenset("<}")
#: Group of :data:`_TOKEN` → the kind of token (none for a comment).
_KIND_OF_GROUP = {**{kind.value: kind for kind in TokenKind},
                  "apostrophized": _STRING, "comment": None}

#: ``#65`` / ``#x41`` (``int`` alone would take "-5", " 5", "6_5" and "x0x41").
_CHARACTER_REFERENCE = re.compile(r"#(?:[xX]([0-9a-fA-F]+)|([0-9]+))").fullmatch

#: ``Token(*fields)`` without the Python-level ``__new__`` of a NamedTuple.
_new_token = tuple.__new__


#: An ASCII digit (``str.isdigit`` takes ``²`` and ``٣`` too, which no
#: XQuery numeric literal has); ``False`` for the ``""`` past the end.
_is_digit = frozenset("0123456789").__contains__


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in "_-."


class Lexer:
    """Pull-based tokenizer over a query string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._ascii = text.isascii()

    # -- character-level helpers (also used by the parser for constructors) --

    def line_column(self, pos: int) -> tuple[int, int]:
        """1-based (line, column) of character offset *pos* in the query."""
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        return line, column

    def error(self, message: str, pos: int | None = None) -> XQuerySyntaxError:
        position = self.pos if pos is None else pos
        line, column = self.line_column(position)
        return XQuerySyntaxError(f"{message} at line {line}, column {column}")

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek_char(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def skip_ignorable(self) -> None:
        """Skip whitespace and (nested) XQuery comments."""
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in " \t\r\n":
                self.pos += 1
            elif char == "(" and self.peek_char(1) == ":":
                self._skip_comment()
            else:
                return

    def _skip_comment(self) -> None:
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            if self.text.startswith("(:", self.pos):
                depth += 1
                self.pos += 2
            elif self.text.startswith(":)", self.pos):
                depth -= 1
                self.pos += 2
                if depth == 0:
                    return
            else:
                self.pos += 1
        raise self.error("unterminated comment", start)

    # -- token-level interface ------------------------------------------------

    def next_token(self) -> Token:
        """Scan and return the next token (EOF token at end of input)."""
        tokens = self.tokens_ahead()
        if not tokens:
            return self._scan_token()
        self.pos = tokens[0].end
        return tokens[0]

    def tokens_ahead(self) -> list[Token]:
        """The tokens :meth:`next_token` would return from here on, taken
        by :data:`_TOKEN` alone up to the end of the text (its EOF token
        included), up to a ``<`` or ``}`` (included), or up to the first
        token it would hand over (an open comment too) — never an error."""
        text, pos, tokens, ascii_text = self.text, self.pos, [], self._ascii
        append, match_at, kinds = tokens.append, _TOKEN, _KIND_OF_GROUP
        while True:
            match = match_at(text, pos)
            if match is None or not (ascii_text or text[match.end():match.end() + 3].isascii()):
                break
            kind = kinds[match.lastgroup]
            start, end = match.span(match.lastindex)
            if kind is _STRING:
                append(_new_token(Token, (kind, text[start:end], start - 1, end + 1)))
                pos = end + 1
            elif kind is None:
                self.pos = start
                try:
                    self._skip_comment()
                except XQuerySyntaxError:  # (reported if the parser gets there)
                    break
                pos = self.pos
            else:
                value = text[start:end]
                append(_new_token(Token, (kind, value, start, end)))
                pos = end
                if kind is _EOF or value in _RUN_ENDS:
                    break
        self.pos = pos
        return tokens

    def _scan_token(self) -> Token:
        """The next token, a character at a time: what :data:`_TOKEN` declines."""
        self.skip_ignorable()
        if self.at_end():
            return Token(TokenKind.EOF, "", self.pos, self.pos)
        start = self.pos
        char = self.text[self.pos]

        if char in "\"'":
            return self._scan_string(char)
        if _is_digit(char) or (char == "." and _is_digit(self.peek_char(1))):
            return self._scan_number()
        if _is_name_start(char):
            return self._scan_name()
        for symbol in MULTI_CHAR_SYMBOLS:
            if self.text.startswith(symbol, self.pos):
                self.pos += len(symbol)
                return Token(TokenKind.SYMBOL, symbol, start, self.pos)
        if char in SINGLE_CHAR_SYMBOLS:
            self.pos += 1
            return Token(TokenKind.SYMBOL, char, start, self.pos)
        raise self.error(f"unexpected character {char!r}")

    def _scan_string(self, quote: str) -> Token:
        start = self.pos
        self.pos += 1
        parts: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal", start)
            char = self.text[self.pos]
            if char == quote:
                if self.peek_char(1) == quote:  # doubled quote escape
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return Token(TokenKind.STRING, "".join(parts), start, self.pos)
            if char == "&":
                parts.append(self.scan_entity_reference())
                continue
            parts.append(char)
            self.pos += 1

    def scan_entity_reference(self, where: str = "") -> str:
        """Decode the ``&…;`` reference at :attr:`pos` — in a string literal
        or, for the parser (*where* = ``" in constructor"``), in an attribute
        value or element content — and step past it."""
        start = self.pos
        end = self.text.find(";", start)
        if end < 0:
            raise self.error(f"unterminated entity reference{where}", start)
        entity = self.text[start + 1:end]
        self.pos = end + 1
        if entity.startswith("#"):
            reference = _CHARACTER_REFERENCE(entity)
            if reference is not None:
                hexadecimal, decimal = reference.groups()
                try:
                    return chr(int(hexadecimal, 16) if hexadecimal else int(decimal))
                except (ValueError, OverflowError):
                    pass  # beyond U+10FFFF, or more digits than int() takes
            raise self.error(f"invalid character reference '&{entity};'{where}", start)
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        raise self.error(f"unknown entity reference '&{entity};'{where}", start)

    def _scan_number(self) -> Token:
        start = self.pos
        kind = TokenKind.INTEGER
        while _is_digit(self.peek_char()):
            self.pos += 1
        # XQuery's ``Digits "." [0-9]*`` and ``"." Digits``: ``1.`` is a number
        if self.peek_char() == "." and (self.pos > start or _is_digit(self.peek_char(1))):
            kind = TokenKind.DECIMAL
            self.pos += 1
            while _is_digit(self.peek_char()):
                self.pos += 1
        if self.peek_char() in "eE" and (
            _is_digit(self.peek_char(1))
            or (self.peek_char(1) in "+-" and _is_digit(self.peek_char(2)))
        ):
            kind = TokenKind.DOUBLE
            self.pos += 1
            if self.peek_char() in "+-":
                self.pos += 1
            while _is_digit(self.peek_char()):
                self.pos += 1
        return Token(kind, self.text[start:self.pos], start, self.pos)

    def _scan_name(self) -> Token:
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
            self.pos += 1
        # QName: prefix:local — only if the colon is immediately followed by a
        # name start character and not part of '::' (axis separator).
        if (
            self.peek_char() == ":"
            and self.peek_char(1) != ":"
            and _is_name_start(self.peek_char(1))
            and not self.text.startswith(":=", self.pos)
        ):
            self.pos += 1
            while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
                self.pos += 1
        return Token(TokenKind.NAME, self.text[start:self.pos], start, self.pos)
