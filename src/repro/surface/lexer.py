"""Tokenizer for the s-expression concrete syntax of the surface language.

One compiled pattern scans the source.  Tokens are separated by the
delimiters space, tab, ``\\r``, newline, ``( ) [ ] ; "`` and nothing else:
``\\f``, ``\\v`` and U+00A0 are ordinary symbol characters.  Each token
carries its line and column as ints; a :class:`SourceLocation` is built
only when asked for.
"""

from __future__ import annotations

import re

from ..core.errors import ParseError
from .ast import SourceLocation

# After a bool or int literal: no symbol character may follow it.
_END = r"""(?![^ \t\r\n()\[\];"])"""

_TOKEN = re.compile(
    rf"""
    [ \t\r]*                             # blanks before the token
    (?:
        (\n)                             # 1  end of line
      | (;[^\n]*)                        # 2  comment
      | (\() | (\)) | (\[) | (\])        # 3-6
      | ("[^"\\\n]*(?:\\.[^"\\\n]*)*")   # 7  string; an escaped newline continues it
      | (")                              # 8  a string that never closes
      | (\#t|\#f|true|false){_END}       # 9
      | ([+-]?\d+){_END}                 # 10 \d is str.isdecimal: what int() reads
      | ([^ \t\r\n()\[\];"]+)            # 11 symbol
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_NEWLINE, _COMMENT, _STRING, _OPEN_STRING = 1, 2, 7, 8
_KINDS = (None, None, None, "lparen", "rparen", "lbracket", "rbracket", "string", None,
          "bool", "int", "symbol")

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


class Token:
    """A lexical token and the line and column where it starts."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # 'lparen' | 'rparen' | 'lbracket' | 'rbracket' | 'int' | 'string' | 'symbol' | 'bool'
        self.text = text
        self.line = line
        self.column = column

    @property
    def location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column)

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line}, {self.column})"


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Split a program into tokens, tracking line/column for blame labels.
    ``first_line`` is the number of the source's first line."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = first_line, 0
    # Every non-blank character starts one alternative, so the matches tile
    # the source: only trailing blanks fall between them.
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group <= _COMMENT:
            if group == _NEWLINE:
                line += 1
                line_start = match.end()
            continue
        start = match.start(group)
        if group == _STRING:
            body = match[group][1:-1]
            token = Token("string", body, line, start - line_start + 1)
            if "\\" in body:
                if "\n" in body:
                    # The next token is on a later line, counted from the
                    # last backslash-newline.
                    line += body.count("\n")
                    line_start = start + 2 + body.rindex("\n")
                token.text = _ESCAPE.sub(_unescape, body)
            append(token)
        elif group == _OPEN_STRING:
            raise ParseError("unterminated string literal", line, start - line_start + 1)
        else:
            append(Token(_KINDS[group], match[group], line, start - line_start + 1))
    return tokens
