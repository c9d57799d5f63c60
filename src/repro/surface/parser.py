"""Parser for the s-expression concrete syntax of the surface language.

Grammar (informally)::

    program  ::= define* expr | expr
    define   ::= (define (name param*) [: type] expr)
               | (define name [: type] expr)
    param    ::= name | [name : type]
    expr     ::= int | #t | #f | "string" | unit | name
               | (lambda (param*) expr)
               | (let ([name expr]*) expr)
               | (letrec ([name : type expr]) expr)
               | (if expr expr expr)
               | (pair expr expr) | (fst expr) | (snd expr)
               | (: expr type)                      ; ascription
               | (op expr*)                          ; primitive operator
               | (expr expr+)                        ; application (curried)
    type     ::= int | bool | str | unit | ? | dyn
               | (-> type+ type) | (* type type)

Brackets nest at most :data:`MAX_NESTING` deep.  Every cast inserted by
elaboration carries a blame label derived from the source location of the
expression that required it.
"""

from __future__ import annotations

from ..core.errors import ParseError
from ..core.ops import op_exists
from ..core.types import BOOL, DYN, INT, STR, UNIT, FunType, ProdType, Type
from .ast import (
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
from .lexer import Token, tokenize

#: The deepest bracket nesting a program may have.  Elaboration, the
#: translations and lowering recurse once per level, so this keeps every
#: later pass well inside Python's default recursion limit.
MAX_NESTING = 200

_KEYWORDS = {
    "lambda",
    "let",
    "letrec",
    "if",
    "pair",
    "cons",
    "fst",
    "snd",
    ":",
    "ann",
    "define",
    "unit",
}

_TYPE_NAMES = {
    "int": INT,
    "bool": BOOL,
    "str": STR,
    "string": STR,
    "unit": UNIT,
    "?": DYN,
    "dyn": DYN,
    "Dyn": DYN,
}


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------


class _Form(list):
    """A bracketed form: its items, and where its opening bracket is.

    An s-expression is either a :class:`Token` (an atom) or a ``_Form``.
    """

    __slots__ = ("line", "column")


#: Opening bracket kind → the kind that closes it.
_CLOSER = {"lparen": "rparen", "lbracket": "rbracket"}


def _read_all(tokens: list[Token]) -> list[Token | _Form]:
    """Group tokens into s-expressions with an explicit stack of open forms."""
    forms: list[Token | _Form] = []
    items, closer = forms, None
    enclosing: list[tuple[list, str | None]] = []
    for token in tokens:
        kind = token.kind
        if kind in _CLOSER:  # an opening bracket
            if len(enclosing) == MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", token.line, token.column)
            form = _Form()
            form.line = token.line
            form.column = token.column
            items.append(form)
            enclosing.append((items, closer))
            items, closer = form, _CLOSER[kind]
        elif kind == "rparen" or kind == "rbracket":
            if kind != closer:
                raise ParseError("unexpected closing parenthesis", token.line, token.column)
            items, closer = enclosing.pop()
        else:
            items.append(token)
    if enclosing:
        raise ParseError("missing closing parenthesis", items.line, items.column)
    return forms


def _head_name(form: _Form) -> str | None:
    """The text of a form's first item, if that is an atom."""
    head = form[0]
    return head.text if isinstance(head, Token) else None


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def parse_type_sexpr(sexpr: Token | _Form) -> Type:
    if isinstance(sexpr, Token):
        name = sexpr.text
        if name in _TYPE_NAMES:
            return _TYPE_NAMES[name]
        raise ParseError(f"unknown type {name!r}", sexpr.line, sexpr.column)
    if not sexpr:
        raise ParseError("empty type", sexpr.line, sexpr.column)
    head_name = _head_name(sexpr)
    if head_name == "->":
        parts = list(map(parse_type_sexpr, sexpr[1:]))
        if len(parts) < 2:
            raise ParseError("-> needs at least two types", sexpr.line, sexpr.column)
        result = parts[-1]
        for dom in reversed(parts[:-1]):
            result = FunType(dom, result)
        return result
    if head_name == "*":
        parts = list(map(parse_type_sexpr, sexpr[1:]))
        if len(parts) != 2:
            raise ParseError("* needs exactly two types", sexpr.line, sexpr.column)
        return ProdType(parts[0], parts[1])
    raise ParseError("malformed type", sexpr.line, sexpr.column)


def parse_type(source: str) -> Type:
    """Parse a type written in concrete syntax, e.g. ``"(-> int ?)"``."""
    forms = _read_all(tokenize(source))
    if len(forms) != 1:
        raise ParseError("expected exactly one type")
    return parse_type_sexpr(forms[0])


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _parse_param(sexpr: Token | _Form) -> tuple[str, Type]:
    if isinstance(sexpr, Token):
        return sexpr.text, DYN
    if len(sexpr) == 3 and isinstance(sexpr[1], Token) and sexpr[1].text == ":":
        if not isinstance(sexpr[0], Token):
            raise ParseError("parameter name must be a symbol", sexpr.line, sexpr.column)
        return sexpr[0].text, parse_type_sexpr(sexpr[2])
    raise ParseError("malformed parameter (expected name or [name : type])", sexpr.line, sexpr.column)


def _parse_atom(token: Token) -> SurfaceExpr:
    location = SourceLocation(token.line, token.column)
    kind = token.kind
    if kind == "int":
        try:
            value = int(token.text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("integer literal too long", token.line, token.column) from None
        return SConst(value, location)
    if kind == "bool":
        return SConst(token.text in ("#t", "true"), location)
    if kind == "string":
        return SConst(token.text, location)
    if token.text == "unit":
        return SConst(None, location)
    return SVar(token.text, location)


def parse_expr_sexpr(sexpr: Token | _Form) -> SurfaceExpr:
    if isinstance(sexpr, Token):
        return _parse_atom(sexpr)

    line, column = sexpr.line, sexpr.column
    if not sexpr:
        raise ParseError("empty expression", line, column)
    location = SourceLocation(line, column)
    head_name = _head_name(sexpr)
    rest = sexpr[1:]

    if head_name == "lambda":
        if len(rest) != 2 or isinstance(rest[0], Token):
            raise ParseError("lambda expects a parameter list and a body", line, column)
        params = tuple(map(_parse_param, rest[0]))
        if not params:
            raise ParseError("lambda needs at least one parameter", line, column)
        return SLam(params, parse_expr_sexpr(rest[1]), location)

    if head_name == "let":
        if len(rest) != 2 or isinstance(rest[0], Token):
            raise ParseError("let expects a binding list and a body", line, column)
        bindings = []
        for binding in rest[0]:
            if isinstance(binding, Token) or len(binding) != 2 or not isinstance(binding[0], Token):
                raise ParseError("malformed let binding", line, column)
            bindings.append((binding[0].text, parse_expr_sexpr(binding[1])))
        return SLet(tuple(bindings), parse_expr_sexpr(rest[1]), location)

    if head_name == "letrec":
        if len(rest) != 2 or isinstance(rest[0], Token) or len(rest[0]) != 1:
            raise ParseError("letrec expects exactly one binding and a body", line, column)
        binding = rest[0][0]
        if isinstance(binding, Token) or len(binding) != 4 or not isinstance(binding[0], Token):
            raise ParseError("letrec binding must be [name : type expr]", line, column)
        if not (isinstance(binding[1], Token) and binding[1].text == ":"):
            raise ParseError("letrec binding must be [name : type expr]", line, column)
        annotation = parse_type_sexpr(binding[2])
        bound = parse_expr_sexpr(binding[3])
        return SLetRec(binding[0].text, annotation, bound, parse_expr_sexpr(rest[1]), location)

    if head_name == "if":
        if len(rest) != 3:
            raise ParseError("if expects three subexpressions", line, column)
        return SIf(*map(parse_expr_sexpr, rest), location)

    if head_name in ("pair", "cons"):
        if len(rest) != 2:
            raise ParseError("pair expects two subexpressions", line, column)
        return SPair(parse_expr_sexpr(rest[0]), parse_expr_sexpr(rest[1]), location)

    if head_name == "fst":
        if len(rest) != 1:
            raise ParseError("fst expects one subexpression", line, column)
        return SFst(parse_expr_sexpr(rest[0]), location)

    if head_name == "snd":
        if len(rest) != 1:
            raise ParseError("snd expects one subexpression", line, column)
        return SSnd(parse_expr_sexpr(rest[0]), location)

    if head_name in (":", "ann"):
        if len(rest) != 2:
            raise ParseError("ascription expects an expression and a type", line, column)
        return SAscribe(parse_expr_sexpr(rest[0]), parse_type_sexpr(rest[1]), location)

    if head_name is not None and op_exists(head_name) and head_name not in _KEYWORDS:
        return SOp(head_name, tuple(map(parse_expr_sexpr, rest)), location)

    # Application.
    if not rest:
        raise ParseError("application needs at least one argument", line, column)
    return SApp(parse_expr_sexpr(sexpr[0]), tuple(map(parse_expr_sexpr, rest)), location)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def _parse_define(sexpr: _Form) -> Definition:
    line, column = sexpr.line, sexpr.column
    location = SourceLocation(line, column)
    items = sexpr[1:]
    if not items:
        raise ParseError("empty define", line, column)

    # (define (name param*) [: type] body)  — function shorthand.
    if not isinstance(items[0], Token):
        header = items[0]
        if not header or not isinstance(header[0], Token):
            raise ParseError("malformed define header", line, column)
        name = header[0].text
        params = tuple(map(_parse_param, header[1:]))
        rest = items[1:]
        return_type: Type = DYN
        if len(rest) == 3 and isinstance(rest[0], Token) and rest[0].text == ":":
            return_type = parse_type_sexpr(rest[1])
            body = parse_expr_sexpr(rest[2])
        elif len(rest) == 1:
            body = parse_expr_sexpr(rest[0])
        else:
            raise ParseError("malformed define", line, column)
        if params:
            fun_type: Type = return_type
            for _, param_type in reversed(params):
                fun_type = FunType(param_type, fun_type)
            return Definition(name, fun_type, SLam(params, body, location), location)
        return Definition(name, return_type, body, location)

    # (define name [: type] body)
    name = items[0].text
    rest = items[1:]
    if len(rest) == 3 and isinstance(rest[0], Token) and rest[0].text == ":":
        return Definition(name, parse_type_sexpr(rest[1]), parse_expr_sexpr(rest[2]), location)
    if len(rest) == 1:
        return Definition(name, None, parse_expr_sexpr(rest[0]), location)
    raise ParseError("malformed define", line, column)


def _is_define(form: Token | _Form) -> bool:
    return not isinstance(form, Token) and bool(form) and _head_name(form) == "define"


def parse_program(source: str, tokens: list[Token] | None = None) -> Program:
    """Parse a whole program: zero or more ``define`` forms and a main
    expression.  ``tokens``, if given, is ``tokenize(source)`` already made."""
    forms = _read_all(tokenize(source) if tokens is None else tokens)
    if not forms:
        raise ParseError("empty program")
    definitions: list[Definition] = []
    main: SurfaceExpr | None = None
    for form in forms:
        if _is_define(form):
            if main is not None:
                raise ParseError("definitions must precede the main expression")
            definitions.append(_parse_define(form))
        else:
            if main is not None:
                raise ParseError("a program may have only one main expression")
            main = parse_expr_sexpr(form)
    return Program(tuple(definitions), main)


#: Lines a memo passed to :func:`memoized_program` holds before it is
#: cleared, and the longest line it keeps (a longer one is parsed alone but
#: not kept), so what the memo retains stays small whatever it is fed.
LINE_MEMO_CAP = 256
LINE_MEMO_WIDTH = 1000


def memoized_program(source: str, lines: dict) -> Program | None:
    """The program of ``source`` assembled line by line from ``lines``, a
    memo from ``(line number, line text)`` to the definitions and
    expressions that line parses to; a line not in the memo is lexed and
    parsed alone and added.  Returns ``None`` unless every line holds whole
    forms that parse, and the forms are definitions followed by one main
    expression: :func:`parse_program` reads such a source whole, and raises
    its errors."""
    definitions: list[Definition] = []
    main: SurfaceExpr | None = None
    for key in enumerate(source.split("\n"), 1):
        parsed = lines.get(key)
        if parsed is None:
            number, text = key
            try:
                parsed = tuple([_parse_define(form) if _is_define(form) else parse_expr_sexpr(form)
                                for form in _read_all(tokenize(text, number))])
            except ParseError:
                return None
            if len(text) <= LINE_MEMO_WIDTH:
                if len(lines) >= LINE_MEMO_CAP:
                    lines.clear()
                lines[key] = parsed
        for item in parsed:
            if main is not None:
                return None
            if isinstance(item, Definition):
                definitions.append(item)
            else:
                main = item
    if main is None:
        return None
    return Program(tuple(definitions), main)


def parse(source: str) -> SurfaceExpr:
    """Parse a single surface expression."""
    program = parse_program(source)
    if program.definitions or program.main is None:
        raise ParseError("expected a single expression (no definitions)")
    return program.main
