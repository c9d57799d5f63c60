"""The surface front end as it was before the regex lexer and the
explicit-stack reader: a character-at-a-time tokenizer and a recursive
reader.  Kept as the oracle for the differential property in
``test_surface_parser.py``; it must not be used by the package.

Two fixes are applied to this copy as to the package: an integer literal
is an optional sign and Unicode decimal digits (``str.isdecimal``, what
``int()`` reads), and one with more digits than ``int()`` converts is a
``ParseError``.  It has no nesting limit, so it agrees with the package
only on programs nested at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ParseError
from repro.core.ops import op_exists
from repro.core.types import DYN, FunType, ProdType, Type
from repro.surface.ast import (
    Definition,
    Program,
    SApp,
    SAscribe,
    SConst,
    SFst,
    SIf,
    SLam,
    SLet,
    SLetRec,
    SOp,
    SPair,
    SSnd,
    SourceLocation,
    SurfaceExpr,
    SVar,
)
from repro.surface.parser import _KEYWORDS, _TYPE_NAMES

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    """A lexical token with its source location."""

    kind: str  # 'lparen' | 'rparen' | 'lbracket' | 'rbracket' | 'int' | 'string' | 'symbol' | 'bool'
    text: str
    location: SourceLocation


_DELIMITERS = {"(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket"}


def tokenize(source: str) -> list[Token]:
    """Split a program into tokens, tracking line/column for blame labels."""
    tokens: list[Token] = []
    line, column = 1, 1
    index = 0
    length = len(source)

    def location() -> SourceLocation:
        return SourceLocation(line, column)

    while index < length:
        char = source[index]

        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            column += 1
            index += 1
            continue
        if char == ";":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char in _DELIMITERS:
            tokens.append(Token(_DELIMITERS[char], char, location()))
            column += 1
            index += 1
            continue
        if char == '"':
            start = location()
            index += 1
            column += 1
            chars: list[str] = []
            while index < length and source[index] != '"':
                if source[index] == "\n":
                    raise ParseError("unterminated string literal", start.line, start.column)
                if source[index] == "\\" and index + 1 < length:
                    escape = source[index + 1]
                    chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape))
                    index += 2
                    if escape == "\n":
                        # A backslash-continued physical newline: the next
                        # character is on a new source line, so the location
                        # must advance with it or every later token (and
                        # blame label) would point at the wrong line.
                        line += 1
                        column = 1
                    else:
                        column += 2
                    continue
                chars.append(source[index])
                index += 1
                column += 1
            if index >= length:
                raise ParseError("unterminated string literal", start.line, start.column)
            index += 1
            column += 1
            tokens.append(Token("string", "".join(chars), start))
            continue

        # Symbols, numbers, booleans.
        start = location()
        begin = index
        while index < length and source[index] not in ' \t\r\n()[];"':
            index += 1
            column += 1
        text = source[begin:index]
        if not text:
            raise ParseError(f"unexpected character {char!r}", start.line, start.column)
        kind = _classify(text)
        tokens.append(Token(kind, text, start))

    return tokens


def _classify(text: str) -> str:
    if text in ("#t", "#f", "true", "false"):
        return "bool"
    if _is_integer(text):
        return "int"
    return "symbol"


def _is_integer(text: str) -> bool:
    body = text[1:] if text and text[0] in "+-" else text
    return bool(body) and body.isdecimal()


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------


class _SExpr:
    """Either an atom (a token) or a list of s-expressions with a location."""

    __slots__ = ("items", "token", "location")

    def __init__(self, items=None, token: Token | None = None, location: SourceLocation | None = None):
        self.items = items
        self.token = token
        self.location = location if location is not None else (token.location if token else None)

    @property
    def is_atom(self) -> bool:
        return self.token is not None


def _read_all(tokens: list[Token]) -> list[_SExpr]:
    position = 0

    def read() -> _SExpr:
        nonlocal position
        if position >= len(tokens):
            raise ParseError("unexpected end of input")
        token = tokens[position]
        if token.kind in ("lparen", "lbracket"):
            closing = "rparen" if token.kind == "lparen" else "rbracket"
            position += 1
            items: list[_SExpr] = []
            while position < len(tokens) and tokens[position].kind != closing:
                items.append(read())
            if position >= len(tokens):
                raise ParseError("missing closing parenthesis", token.location.line, token.location.column)
            position += 1  # consume the closing delimiter
            return _SExpr(items=items, location=token.location)
        if token.kind in ("rparen", "rbracket"):
            raise ParseError("unexpected closing parenthesis", token.location.line, token.location.column)
        position += 1
        return _SExpr(token=token)

    forms: list[_SExpr] = []
    while position < len(tokens):
        forms.append(read())
    return forms


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def parse_type_sexpr(sexpr: _SExpr) -> Type:
    if sexpr.is_atom:
        name = sexpr.token.text
        if name in _TYPE_NAMES:
            return _TYPE_NAMES[name]
        raise ParseError(f"unknown type {name!r}", sexpr.location.line, sexpr.location.column)
    if not sexpr.items:
        raise ParseError("empty type", sexpr.location.line, sexpr.location.column)
    head = sexpr.items[0]
    if head.is_atom and head.token.text == "->":
        parts = [parse_type_sexpr(item) for item in sexpr.items[1:]]
        if len(parts) < 2:
            raise ParseError("-> needs at least two types", sexpr.location.line, sexpr.location.column)
        result = parts[-1]
        for dom in reversed(parts[:-1]):
            result = FunType(dom, result)
        return result
    if head.is_atom and head.token.text == "*":
        parts = [parse_type_sexpr(item) for item in sexpr.items[1:]]
        if len(parts) != 2:
            raise ParseError("* needs exactly two types", sexpr.location.line, sexpr.location.column)
        return ProdType(parts[0], parts[1])
    raise ParseError("malformed type", sexpr.location.line, sexpr.location.column)


def parse_type(source: str) -> Type:
    """Parse a type written in concrete syntax, e.g. ``"(-> int ?)"``."""
    forms = _read_all(tokenize(source))
    if len(forms) != 1:
        raise ParseError("expected exactly one type")
    return parse_type_sexpr(forms[0])


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _parse_param(sexpr: _SExpr) -> tuple[str, Type]:
    if sexpr.is_atom:
        return sexpr.token.text, DYN
    items = sexpr.items
    if len(items) == 3 and items[1].is_atom and items[1].token.text == ":":
        if not items[0].is_atom:
            raise ParseError("parameter name must be a symbol", sexpr.location.line, sexpr.location.column)
        return items[0].token.text, parse_type_sexpr(items[2])
    raise ParseError("malformed parameter (expected name or [name : type])",
                     sexpr.location.line, sexpr.location.column)


def parse_expr_sexpr(sexpr: _SExpr) -> SurfaceExpr:
    location = sexpr.location or SourceLocation(0, 0)

    if sexpr.is_atom:
        token = sexpr.token
        if token.kind == "int":
            try:
                value = int(token.text)
            except ValueError:
                raise ParseError("integer literal too long", location.line, location.column) from None
            return SConst(value, location)
        if token.kind == "bool":
            return SConst(token.text in ("#t", "true"), location)
        if token.kind == "string":
            return SConst(token.text, location)
        if token.text == "unit":
            return SConst(None, location)
        return SVar(token.text, location)

    if not sexpr.items:
        raise ParseError("empty expression", location.line, location.column)

    head = sexpr.items[0]
    rest = sexpr.items[1:]
    head_name = head.token.text if head.is_atom else None

    if head_name == "lambda":
        if len(rest) != 2 or rest[0].is_atom:
            raise ParseError("lambda expects a parameter list and a body", location.line, location.column)
        params = tuple(_parse_param(p) for p in rest[0].items)
        if not params:
            raise ParseError("lambda needs at least one parameter", location.line, location.column)
        return SLam(params, parse_expr_sexpr(rest[1]), location)

    if head_name == "let":
        if len(rest) != 2 or rest[0].is_atom:
            raise ParseError("let expects a binding list and a body", location.line, location.column)
        bindings = []
        for binding in rest[0].items:
            if binding.is_atom or len(binding.items) != 2 or not binding.items[0].is_atom:
                raise ParseError("malformed let binding", location.line, location.column)
            bindings.append((binding.items[0].token.text, parse_expr_sexpr(binding.items[1])))
        return SLet(tuple(bindings), parse_expr_sexpr(rest[1]), location)

    if head_name == "letrec":
        if len(rest) != 2 or rest[0].is_atom or len(rest[0].items) != 1:
            raise ParseError("letrec expects exactly one binding and a body", location.line, location.column)
        binding = rest[0].items[0]
        if binding.is_atom or len(binding.items) != 4 or not binding.items[0].is_atom:
            raise ParseError("letrec binding must be [name : type expr]", location.line, location.column)
        if not (binding.items[1].is_atom and binding.items[1].token.text == ":"):
            raise ParseError("letrec binding must be [name : type expr]", location.line, location.column)
        name = binding.items[0].token.text
        annotation = parse_type_sexpr(binding.items[2])
        bound = parse_expr_sexpr(binding.items[3])
        return SLetRec(name, annotation, bound, parse_expr_sexpr(rest[1]), location)

    if head_name == "if":
        if len(rest) != 3:
            raise ParseError("if expects three subexpressions", location.line, location.column)
        return SIf(*(parse_expr_sexpr(r) for r in rest), location)

    if head_name in ("pair", "cons"):
        if len(rest) != 2:
            raise ParseError("pair expects two subexpressions", location.line, location.column)
        return SPair(parse_expr_sexpr(rest[0]), parse_expr_sexpr(rest[1]), location)

    if head_name == "fst":
        if len(rest) != 1:
            raise ParseError("fst expects one subexpression", location.line, location.column)
        return SFst(parse_expr_sexpr(rest[0]), location)

    if head_name == "snd":
        if len(rest) != 1:
            raise ParseError("snd expects one subexpression", location.line, location.column)
        return SSnd(parse_expr_sexpr(rest[0]), location)

    if head_name in (":", "ann"):
        if len(rest) != 2:
            raise ParseError("ascription expects an expression and a type", location.line, location.column)
        return SAscribe(parse_expr_sexpr(rest[0]), parse_type_sexpr(rest[1]), location)

    if head_name is not None and op_exists(head_name) and head_name not in _KEYWORDS:
        return SOp(head_name, tuple(parse_expr_sexpr(r) for r in rest), location)

    # Application.
    if not rest:
        raise ParseError("application needs at least one argument", location.line, location.column)
    return SApp(parse_expr_sexpr(head), tuple(parse_expr_sexpr(r) for r in rest), location)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _parse_define(sexpr: _SExpr) -> Definition:
    location = sexpr.location
    items = sexpr.items[1:]
    if not items:
        raise ParseError("empty define", location.line, location.column)

    # (define (name param*) [: type] body)  — function shorthand.
    if not items[0].is_atom:
        header = items[0].items
        if not header or not header[0].is_atom:
            raise ParseError("malformed define header", location.line, location.column)
        name = header[0].token.text
        params = tuple(_parse_param(p) for p in header[1:])
        rest = items[1:]
        return_type: Type = DYN
        if len(rest) == 3 and rest[0].is_atom and rest[0].token.text == ":":
            return_type = parse_type_sexpr(rest[1])
            body = parse_expr_sexpr(rest[2])
        elif len(rest) == 1:
            body = parse_expr_sexpr(rest[0])
        else:
            raise ParseError("malformed define", location.line, location.column)
        if params:
            fun_type: Type = return_type
            for _, param_type in reversed(params):
                fun_type = FunType(param_type, fun_type)
            return Definition(name, fun_type, SLam(params, body, location), location)
        return Definition(name, return_type, body, location)

    # (define name [: type] body)
    name = items[0].token.text
    rest = items[1:]
    if len(rest) == 3 and rest[0].is_atom and rest[0].token.text == ":":
        return Definition(name, parse_type_sexpr(rest[1]), parse_expr_sexpr(rest[2]), location)
    if len(rest) == 1:
        return Definition(name, None, parse_expr_sexpr(rest[0]), location)
    raise ParseError("malformed define", location.line, location.column)


def parse_program(source: str) -> Program:
    """Parse a whole program: zero or more ``define`` forms and a main expression."""
    forms = _read_all(tokenize(source))
    if not forms:
        raise ParseError("empty program")
    definitions: list[Definition] = []
    main: SurfaceExpr | None = None
    for index, form in enumerate(forms):
        is_define = (
            not form.is_atom
            and form.items
            and form.items[0].is_atom
            and form.items[0].token.text == "define"
        )
        if is_define:
            if main is not None:
                raise ParseError("definitions must precede the main expression")
            definitions.append(_parse_define(form))
        else:
            if main is not None:
                raise ParseError("a program may have only one main expression")
            main = parse_expr_sexpr(form)
    return Program(tuple(definitions), main)
