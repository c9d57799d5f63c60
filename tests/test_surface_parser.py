"""Tests for the surface-language lexer and parser."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, RunResult, run
from repro.cli import main
from repro.core.errors import ParseError, ReproError
from repro.core.types import BOOL, DYN, INT, STR, UNIT, FunType, ProdType
from repro.surface.ast import (
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
    SVar,
)
from repro.gen.surface_programs import generate_corpus
from repro.surface.cast_insertion import ElaborationError
from repro.surface.interp import compile_source
from repro.surface.lexer import tokenize
from repro.surface.parser import MAX_NESTING, parse, parse_program, parse_type

from . import reference_frontend as reference
from .strategies import lattice_configurations, surface_sources

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"


class TestLexer:
    def test_tokenizes_parens_and_symbols(self):
        tokens = tokenize("(+ 1 x)")
        assert [t.kind for t in tokens] == ["lparen", "symbol", "int", "symbol", "rparen"]

    def test_tracks_line_and_column(self):
        tokens = tokenize("(f\n  42)")
        forty_two = [t for t in tokens if t.text == "42"][0]
        assert forty_two.location.line == 2
        assert forty_two.location.column == 3

    def test_string_literals(self):
        tokens = tokenize('(f "hello world")')
        assert any(t.kind == "string" and t.text == "hello world" for t in tokens)

    def test_string_escapes(self):
        tokens = tokenize('"a\\nb"')
        assert tokens[0].text == "a\nb"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_comments_are_skipped(self):
        tokens = tokenize("; a comment\n42")
        assert len(tokens) == 1 and tokens[0].kind == "int"

    def test_booleans_and_negative_numbers(self):
        kinds = {t.text: t.kind for t in tokenize("#t false -3 +4 -")}
        assert kinds["#t"] == "bool"
        assert kinds["false"] == "bool"
        assert kinds["-3"] == "int"
        assert kinds["+4"] == "int"
        assert kinds["-"] == "symbol"

    def test_brackets(self):
        kinds = [t.kind for t in tokenize("[x : int]")]
        assert kinds == ["lbracket", "symbol", "symbol", "symbol", "rbracket"]

    def test_backslash_newline_in_string_still_bumps_the_line(self):
        # Regression: the escape branch used to consume a backslash-newline
        # pair without bumping `line`, so every later token — and therefore
        # every blame label minted from its location — pointed one line high.
        tokens = tokenize('"a\\\nb" later')
        later = [t for t in tokens if t.text == "later"][0]
        assert later.location.line == 2
        assert later.location.column == 4

    def test_multiple_backslash_newlines_accumulate_lines(self):
        tokens = tokenize('"x\\\n\\\ny" tok')
        tok = [t for t in tokens if t.text == "tok"][0]
        assert tok.location.line == 3

    def test_plain_newline_in_string_is_still_rejected(self):
        with pytest.raises(ParseError):
            tokenize('"a\nb"')


class TestTypeParsing:
    def test_base_types(self):
        assert parse_type("int") == INT
        assert parse_type("bool") == BOOL
        assert parse_type("str") == STR
        assert parse_type("unit") == UNIT

    def test_dynamic_type_spellings(self):
        assert parse_type("?") == DYN
        assert parse_type("dyn") == DYN
        assert parse_type("Dyn") == DYN

    def test_function_types_are_right_associative(self):
        assert parse_type("(-> int bool)") == FunType(INT, BOOL)
        assert parse_type("(-> int int bool)") == FunType(INT, FunType(INT, BOOL))

    def test_product_types(self):
        assert parse_type("(* int ?)") == ProdType(INT, DYN)

    def test_nested_types(self):
        assert parse_type("(-> (* int int) ?)") == FunType(ProdType(INT, INT), DYN)

    def test_unknown_type_name(self):
        with pytest.raises(ParseError):
            parse_type("float")

    def test_malformed_arrow(self):
        with pytest.raises(ParseError):
            parse_type("(-> int)")


class TestExpressionParsing:
    def test_literals(self):
        assert parse("42") == SConst(42, parse("42").location)
        assert isinstance(parse("#t"), SConst) and parse("#t").value is True
        assert parse('"hi"').value == "hi"
        assert parse("unit").value is None

    def test_variables(self):
        assert isinstance(parse("x"), SVar)

    def test_lambda_with_annotations(self):
        expr = parse("(lambda ([x : int]) x)")
        assert isinstance(expr, SLam)
        assert expr.params == (("x", INT),)

    def test_lambda_without_annotations_defaults_to_dyn(self):
        expr = parse("(lambda (x) x)")
        assert expr.params == (("x", DYN),)

    def test_multi_parameter_lambda(self):
        expr = parse("(lambda ([x : int] y) (+ x 1))")
        assert expr.params == (("x", INT), ("y", DYN))

    def test_application_is_curried_at_elaboration_not_parsing(self):
        expr = parse("(f 1 2)")
        assert isinstance(expr, SApp)
        assert len(expr.args) == 2

    def test_operators_parse_as_sop(self):
        expr = parse("(+ 1 2)")
        assert isinstance(expr, SOp) and expr.op == "+"

    def test_if_let_letrec(self):
        assert isinstance(parse("(if #t 1 2)"), SIf)
        assert isinstance(parse("(let ([x 1]) x)"), SLet)
        letrec = parse("(letrec ([f : (-> int int) (lambda ([n : int]) n)]) (f 3))")
        assert isinstance(letrec, SLetRec)
        assert letrec.annotation == FunType(INT, INT)

    def test_pairs_and_projections(self):
        assert isinstance(parse("(pair 1 2)"), SPair)
        assert isinstance(parse("(cons 1 2)"), SPair)
        assert isinstance(parse("(fst p)"), SFst)
        assert isinstance(parse("(snd p)"), SSnd)

    def test_ascriptions(self):
        expr = parse("(: 42 ?)")
        assert isinstance(expr, SAscribe)
        assert expr.annotation == DYN
        assert isinstance(parse("(ann 42 int)"), SAscribe)

    def test_source_locations_flow_into_the_ast(self):
        expr = parse("(: 42\n   int)")
        assert expr.location.line == 1

    def test_malformed_forms(self):
        for source in ["(lambda)", "(if #t 1)", "(let (x) 1)", "()", "(fst)", "(: 1)"]:
            with pytest.raises(ParseError):
                parse(source)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(+ 1 2")
        with pytest.raises(ParseError):
            parse(")")


class TestProgramParsing:
    def test_defines_and_main(self):
        program = parse_program(
            """
            (define (square [x : int]) : int (* x x))
            (define limit : int 10)
            (square limit)
            """
        )
        assert len(program.definitions) == 2
        assert program.definitions[0].name == "square"
        assert program.definitions[0].annotation == FunType(INT, INT)
        assert program.definitions[1].annotation == INT
        assert isinstance(program.main, SApp)

    def test_define_without_annotation(self):
        program = parse_program("(define f (lambda (x) x)) (f 1)")
        assert program.definitions[0].annotation is None

    def test_main_must_come_last(self):
        with pytest.raises(ParseError):
            parse_program("(square 2) (define (square [x : int]) : int (* x x))")

    def test_only_one_main_expression(self):
        with pytest.raises(ParseError):
            parse_program("1 2")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("   ;; nothing here\n")

    def test_parse_rejects_programs_with_definitions(self):
        with pytest.raises(ParseError):
            parse("(define x 1) x")


class TestIntegerLiterals:
    def test_superscript_digits_are_a_symbol(self):
        # "²".isdigit() holds but int("²") fails: it is not a decimal digit.
        assert [t.kind for t in tokenize("² -²")] == ["symbol", "symbol"]
        with pytest.raises(ElaborationError, match="unbound variable"):
            run("²")

    def test_unicode_decimal_digits_are_an_integer(self):
        assert [t.kind for t in tokenize("١٢ -١٢")] == ["int", "int"]
        assert run("(+ ١٢ -٢)").value == 10

    def test_literal_with_more_digits_than_int_reads_is_a_parse_error(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ParseError, match="integer literal too long") as info:
                parse_program("(+ 1\n  " + "7" * 4301 + ")")
            assert (info.value.line, info.value.column) == (2, 3)
            assert parse("7" * 4300).value == int("7" * 4300)
        finally:
            sys.set_int_max_str_digits(previous)


def _operator_nest(depth: int) -> str:
    """``(+ 1 (+ 1 … 0))`` with ``depth`` nested brackets."""
    return "(+ 1 " * depth + "0" + ")" * depth


def _annotation_nest(depth: int) -> str:
    """An identity ascribed ``(-> int (-> int … int))`` and applied, ``depth`` brackets deep."""
    arrows = depth - 2
    return "((: (lambda (x) x) " + "(-> int " * arrows + "int" + ")" * arrows + ") 1)"


def _first_too_deep(source: str) -> int:
    """The column of the first bracket nested deeper than the limit (one-line sources)."""
    depth = 0
    for column, char in enumerate(source, 1):
        if char in "([":
            depth += 1
            if depth > MAX_NESTING:
                return column
        elif char in ")]":
            depth -= 1
    raise AssertionError("not nested past the limit")


NESTS = [_operator_nest, _annotation_nest]


class TestNestingLimit:
    @pytest.mark.parametrize("nest", NESTS)
    def test_programs_at_the_limit_run_on_every_engine(self, nest):
        source = nest(MAX_NESTING)
        results = [run(source, RunConfig(engine=engine)) for engine in ("machine", "vm", "rvm")]
        assert len({(r.kind, r.value, str(r.blame_label)) for r in results}) == 1, results
        assert results[0].kind in ("value", "blame")

    @pytest.mark.parametrize("nest", NESTS)
    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000])
    @pytest.mark.parametrize("engine", ["machine", "vm", "rvm", "subst"])
    def test_past_the_limit_is_a_parse_error(self, nest, depth, engine):
        source = nest(depth)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as info:
            run(source, RunConfig(engine=engine))
        assert (info.value.line, info.value.column) == (1, _first_too_deep(source))

    @pytest.mark.parametrize("nest", NESTS)
    def test_the_cli_exits_2_with_one_line(self, nest, tmp_path, capsys):
        path = tmp_path / "deep.grad"
        path.write_text(nest(MAX_NESTING + 1) + "\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1, err


def _definitions(levels: int) -> str:
    """``levels`` definitions, each naming the one before, one per line."""
    lines = ["(define x1 1)"] + [f"(define x{i} x{i - 1})" for i in range(2, levels + 1)]
    return "\n".join(lines + [f"x{levels}"]) + "\n"


def _wide_let(levels: int) -> str:
    """One ``let`` of ``levels`` bindings, each naming the one before."""
    bindings = " ".join(["[x1 1]"] + [f"[x{i} x{i - 1}]" for i in range(2, levels + 1)])
    return f"(let ({bindings}) x{levels})\n"


def _applied_lambda(levels: int) -> str:
    """A lambda of ``levels / 2`` parameters applied to as many arguments
    (one fewer when ``levels`` is odd)."""
    params = " ".join(f"x{i}" for i in range(1, (levels + 1) // 2 + 1))
    return f"((lambda ({params}) x1) {' '.join(['1'] * (levels // 2))})\n"


def _curried(levels: int) -> str:
    """A ``?``-typed function applied to ``levels - 1`` arguments: each
    application casts its function and its argument, so the λB term nests
    about twice as deep as the levels counted."""
    args = " ".join(map(str, range(levels - 1)))
    return f"(letrec ([g : ? (lambda (x) g)]) (g {args}))\n"


def _first_arguments(levels: int) -> str:
    """Applications of a two-parameter function nested in their first
    argument, two levels each, after one or two definitions."""
    definitions = ["(define h (lambda (x y) x))", "(define z 0)"][:2 - levels % 2]
    nests = (levels - len(definitions)) // 2
    return "\n".join(definitions + ["(h " * nests + "1" + " 0)" * nests]) + "\n"


def _deep_bindings(levels: int) -> str:
    """``let``s of eight bindings nested in their last binding, eight levels
    each, after ``levels % 8`` definitions."""
    definitions = [f"(define d{i} {i})" for i in range(levels % 8)]
    first = " ".join(f"[a{i} 1]" for i in range(7))
    main = f"(let ({first} [b " * (levels // 8) + "1" + "]) b)" * (levels // 8)
    return "\n".join(definitions + [main]) + "\n"


def _mixed(levels: int) -> str:
    """50 definitions, then a 50-binding ``let`` whose body applies a
    25-parameter lambda, whose body applies a ``?``-typed function to
    ``levels - 150`` arguments."""
    definitions = ["(define g (letrec ([h : ? (lambda (x) h)]) h))"]
    definitions += [f"(define y{i} {i})" for i in range(1, 50)]
    bindings = " ".join(f"[z{i} y{1 + i % 49}]" for i in range(50))
    params = " ".join(f"p{i}" for i in range(25))
    args = " ".join(map(str, range(levels - 150)))
    main = f"(let ({bindings}) ((lambda ({params}) (g {args})) {' '.join(['z0'] * 25)}))"
    return "\n".join(definitions + [main]) + "\n"


#: Each shape, and where its form one level past the limit starts.
SHAPES = {
    _definitions: (MAX_NESTING + 1, 1),
    _wide_let: (1, 1),
    _applied_lambda: (1, 1),
    _curried: (1, 1),
    _first_arguments: (2, 1),
    _deep_bindings: (2, 1),
    _mixed: (51, 1),
}

#: Every engine, under every calculus it runs.
CELLS = [("machine", "B"), ("machine", "C"), ("machine", "S"), ("subst", "B"), ("subst", "C"),
         ("subst", "S"), ("vm", "S"), ("rvm", "S")]


def _term_depth(term) -> int:
    """How many levels a λB term nests, casts not counted."""
    from repro.core.terms import Cast, children

    below = children(term)
    if not below:
        return 0
    deepest = max(map(_term_depth, below))
    return deepest if isinstance(term, Cast) else deepest + 1


class TestElaborationNesting:
    """Definitions, ``let`` bindings, lambda parameters and application
    arguments nest the λB term one level each; the limit counts them."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes_at_the_limit_run_on_every_engine_and_calculus(self, shape):
        source = shape(MAX_NESTING)
        assert _term_depth(compile_source(source)[0]) == MAX_NESTING
        results = [run(source, RunConfig(engine=engine, calculus=calculus))
                   for engine, calculus in CELLS]
        assert {(r.kind, r.value) for r in results} == {(results[0].kind, results[0].value)}
        assert results[0].kind == "value"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_past_the_limit_is_a_parse_error(self, shape):
        source = shape(MAX_NESTING + 1)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels") as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == SHAPES[shape]
        with pytest.raises(ParseError) as memoized:
            compile_source(source, lines={})
        assert str(memoized.value) == str(info.value)

    @pytest.mark.parametrize("engine, calculus", CELLS)
    @pytest.mark.parametrize("shape, levels", [(_definitions, 1000), (_wide_let, 1000),
                                               (_applied_lambda, 2000)],
                             ids=["definitions", "let", "lambda"])
    def test_a_thousand_is_a_parse_error_on_every_engine(self, shape, levels, engine,
                                                         calculus):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels") as info:
            run(shape(levels), RunConfig(engine=engine, calculus=calculus))
        assert (info.value.line, info.value.column) == SHAPES[shape]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_the_cli_exits_2_with_one_line(self, shape, tmp_path, capsys):
        path = tmp_path / "deep.grad"
        path.write_text(shape(MAX_NESTING + 1))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1, err

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_configurations() | surface_sources())
    def test_a_limit_below_the_elaborated_depth_rejects_the_program(self, source):
        """Whatever the program, the levels counted are at least the levels
        its λB term nests."""
        import repro.surface.parser as parser

        try:
            depth = _term_depth(compile_source(source)[0])
        except ReproError:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser, "MAX_NESTING", depth - 1)
            with pytest.raises(ParseError, match="nested deeper than"):
                parse_program(source)


def _tokens_of(tokenizer, source: str):
    """The token sequence as (kind, text, line, column), or the ParseError."""
    try:
        return [(t.kind, t.text, t.location.line, t.location.column) for t in tokenizer(source)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _program_of(parser, source: str):
    """The parsed program's repr, locations included, or the ParseError."""
    try:
        return repr(parser(source))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _assert_matches_reference(source: str) -> None:
    assert _tokens_of(tokenize, source) == _tokens_of(reference.tokenize, source)
    assert _program_of(parse_program, source) == _program_of(reference.parse_program, source)


class TestAgainstReference:
    """The regex lexer and explicit-stack reader against the character-at-a-
    time tokenizer and recursive reader they replaced (``reference_frontend``)."""

    def test_shipped_and_generated_programs(self):
        sources = [path.read_text() for path in sorted(EXAMPLES.glob("*.grad"))]
        for seed in range(4):
            sources += [source for _, source in generate_corpus(16, seed=seed, bindings=6)]
        for source in sources:
            _assert_matches_reference(source)

    @pytest.mark.parametrize("source", [
        '"a\\\nb" later', '"x\\\n\\\ny" tok', '"a\nb"', '"oops', '"a\\', "(f [x)", "(f", ")",
        "x\f y\u00a0z", "a\rb\r\n  c", "; only a comment", "(+ 1 2) ; trailing", "#t#f -3x 1.5",
    ])
    def test_edge_cases(self, source):
        _assert_matches_reference(source)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(surface_sources())
    def test_grammar_biased_sources(self, source):
        _assert_matches_reference(source)


class TestTotality:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.text() | surface_sources())
    def test_any_text_gives_a_result_or_a_repro_error(self, source):
        for engine in ("machine", "rvm"):
            try:
                result = run(source, RunConfig(engine=engine, fuel=500))
            except ReproError:
                continue
            assert isinstance(result, RunResult)
