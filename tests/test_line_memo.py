"""The line memo: a program assembled from the parses of its lines
(:func:`repro.surface.parser.memoized_program`, which pool workers use
through ``compile_source(source, lines=...)``) equals the whole-source
parse, and every source the memo cannot take is read whole, with the
whole-source result or error."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.surface.parser as parser
from repro.core.errors import ReproError
from repro.experiment.lattice import ProgramLattice, render_configuration
from repro.gen.surface_programs import generate_program
from repro.surface.interp import compile_source
from repro.surface.parser import MAX_NESTING, memoized_program, parse_program

from .strategies import lattice_sweeps, surface_sources


def outcome(thunk):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", thunk()
    except ReproError as exc:
        return type(exc), str(exc)


def assert_as_whole(source: str, lines: dict) -> None:
    """``compile_source`` with the memo returns or raises what it does
    without, and a memoized program is the whole-source parse."""
    program = memoized_program(source, dict(lines))
    if program is not None:
        assert program == parse_program(source)
    assert outcome(lambda: compile_source(source, lines=lines)) == outcome(
        lambda: compile_source(source))


class TestIdentity:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_sweeps())
    def test_lattice_configurations(self, sources):
        lines: dict = {}
        compile_lines: dict = {}
        for source in sources:
            program = memoized_program(source, lines)
            assert program is not None
            assert program == parse_program(source)
            assert compile_source(source, lines=compile_lines) == compile_source(source)

    @settings(deadline=None)
    @given(st.lists(surface_sources(), min_size=1, max_size=3))
    def test_any_text_compiles_as_it_does_whole(self, sources):
        lines: dict = {}
        for source in sources + sources:
            assert_as_whole(source, lines)


class TestSourcesReadWhole:
    """Sources the memo does not take: each is parsed by ``parse_program``."""

    @pytest.mark.parametrize("source", [
        "(define (f [x : int]) : int\n  (+ x 1))\n(f 2)\n",
        '(define s : str "a\\\nb")\ns\n',
        "(+ 1 2)\n(define x 1)\n",
        "(define x 1) x\n(define y 2)\n",
        "1\n2\n",
        "1 2\n",
        "",
        "\n;; nothing here\n\n",
        "(define x 1)\n",
    ])
    def test_not_taken(self, source):
        assert memoized_program(source, {}) is None
        assert_as_whole(source, {})

    @pytest.mark.parametrize("source", [
        "(define x 1))\nx\n",
        "(define x 1)\n(+ x 1\n",
        "(define x : integer 1)\nx\n",
        "(define x 1)\n" + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1) + "\n",
        '(define x 1)\n(+ x "oops\n',
    ])
    def test_parse_errors_are_the_whole_source_errors(self, source):
        lines: dict = {}
        assert memoized_program(source, lines) is None
        kind, message = outcome(lambda: compile_source(source, lines=lines))
        assert kind != "returned"
        assert (kind, message) == outcome(lambda: parse_program(source))

    def test_an_elaboration_error_on_a_memoized_program(self):
        source = "(define x 1)\n(+ y 1)\n"
        assert memoized_program(source, {}) == parse_program(source)
        kind, _ = outcome(lambda: compile_source(source, lines={}))
        assert kind != "returned"
        assert_as_whole(source, {})


class TestSourcesTaken:
    @pytest.mark.parametrize("source", [
        "(define a 1) (define b 2)\n(+ a b)\n",
        "(define a 1) (+ a 1)",
        "\n;; a comment\n(define a 1) ; and another\n\n   \n(+ a 1)\n",
        "(define a 1)\r\n(define (f [x : int]) : int (+ x a))\r\n(f 2)\r\n",
    ])
    def test_taken(self, source):
        lines: dict = {}
        program = memoized_program(source, lines)
        assert program is not None and program == parse_program(source)
        assert compile_source(source, lines=lines) == compile_source(source)


@pytest.fixture
def lexed(monkeypatch):
    """The ``(text, first line)`` of every ``tokenize`` call."""
    calls: list = []
    original = parser.tokenize

    def counted(source, first_line=1):
        calls.append((source, first_line))
        return original(source, first_line)

    monkeypatch.setattr(parser, "tokenize", counted)
    return calls


class TestReuse:
    def test_only_lines_not_seen_are_lexed(self, lexed):
        lines: dict = {}
        memoized_program("(define a 1)\n(+ a 1)\n", lines)
        assert lexed == [("(define a 1)", 1), ("(+ a 1)", 2), ("", 3)]
        lexed.clear()
        source = "(define a 2)\n(+ a 1)\n"
        program = memoized_program(source, lines)
        assert lexed == [("(define a 2)", 1)]
        assert program == parse_program(source)

    def test_a_line_seen_at_another_number_is_lexed_again(self, lexed):
        lines: dict = {}
        memoized_program("(define a 1)\n(+ a 1)\n", lines)
        lexed.clear()
        source = "(define b 0)\n(define a 1)\n(+ a 1)\n"
        program = memoized_program(source, lines)
        assert lexed == [("(define b 0)", 1), ("(define a 1)", 2), ("(+ a 1)", 3), ("", 4)]
        assert program == parse_program(source)
        assert program.definitions[1].location.line == 2

    def test_a_worker_lexes_only_the_lines_a_configuration_changed(self, lexed):
        from repro.serve.pool import WorkerMemo, handle_job

        memo = WorkerMemo()
        first = "(define (f [x : int]) : int (+ x 1))\n(define (g [x : int]) : int (f x))\n(g 2)\n"
        second = "(define (f x) (+ x 1))\n(define (g [x : int]) : int (f x))\n(g 2)\n"
        results = [handle_job({"source": source, "engine": "vm", "semantics": "coercion",
                               "opt_level": 2, "use_cache": False}, memo)
                   for source in (first, second)]
        assert [result["value"] for result in results] == [3, 3]
        assert [text for text, _ in lexed] == [*first.split("\n"), "(define (f x) (+ x 1))"]


class TestBound:
    def test_the_memo_is_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(parser, "LINE_MEMO_CAP", 8)
        lines: dict = {}
        lattice = ProgramLattice.from_source(generate_program(11, 5))
        names = lattice.typeable_names
        for index in range(2 ** len(names)):
            untyped = {name for bit, name in enumerate(names) if index >> bit & 1}
            source = render_configuration(lattice, untyped)[0]
            assert memoized_program(source, lines) == parse_program(source)
            assert len(lines) <= 8
            assert compile_source(source, lines=lines) == compile_source(source)
            assert len(lines) <= 8

    def test_a_long_line_is_parsed_but_not_kept(self, monkeypatch):
        monkeypatch.setattr(parser, "LINE_MEMO_WIDTH", 20)
        lines: dict = {}
        source = "(define a 1)\n(+ a (+ a (+ a (+ a 1))))\n"
        assert memoized_program(source, lines) == parse_program(source)
        assert sorted(lines) == [(1, "(define a 1)"), (3, "")]
