"""Tests for gradual type checking and cast insertion (the GTLC elaboration)."""

from __future__ import annotations

import pytest

from repro.core.terms import Cast, count_casts
from repro.core.types import BOOL, DYN, INT, FunType, ProdType
from repro.lambda_b.typecheck import type_of as type_b
from repro.surface.cast_insertion import ElaborationError, elaborate, elaborate_program
from repro.surface.consistency import branch_join, consistent, fun_match, prod_match
from repro.api import run
from repro.surface.interp import compile_source
from repro.surface.parser import parse, parse_program
from repro.surface.typecheck import (
    static_errors,
    type_of_program,
    type_of_surface,
    well_typed_surface,
)


class TestConsistency:
    def test_consistency_examples(self):
        assert consistent(INT, DYN)
        assert consistent(DYN, FunType(INT, BOOL))
        assert consistent(FunType(INT, DYN), FunType(DYN, BOOL))
        assert not consistent(INT, BOOL)
        assert not consistent(FunType(INT, INT), INT)

    def test_fun_match(self):
        assert fun_match(FunType(INT, BOOL)) == FunType(INT, BOOL)
        assert fun_match(DYN) == FunType(DYN, DYN)
        assert fun_match(INT) is None

    def test_prod_match(self):
        assert prod_match(ProdType(INT, BOOL)) == ProdType(INT, BOOL)
        assert prod_match(DYN) == ProdType(DYN, DYN)
        assert prod_match(INT) is None

    def test_branch_join_keeps_precision(self):
        assert branch_join(INT, DYN) == INT
        assert branch_join(DYN, FunType(INT, DYN)) == FunType(INT, DYN)
        assert branch_join(INT, BOOL) is None


class TestTypeChecking:
    def test_simple_types(self):
        assert type_of_surface(parse("42")) == INT
        assert type_of_surface(parse("(+ 1 2)")) == INT
        assert type_of_surface(parse("(zero? 0)")) == BOOL
        assert type_of_surface(parse("(lambda ([x : int]) x)")) == FunType(INT, INT)

    def test_dynamic_parameters(self):
        assert type_of_surface(parse("(lambda (x) x)")) == FunType(DYN, DYN)

    def test_application_of_a_dynamic_function_has_type_dyn(self):
        assert type_of_surface(parse("(lambda (f) (f 1))")) == FunType(DYN, DYN)

    def test_ascription_changes_the_type(self):
        assert type_of_surface(parse("(: 42 ?)")) == DYN

    def test_pairs(self):
        assert type_of_surface(parse("(pair 1 #t)")) == ProdType(INT, BOOL)
        assert type_of_surface(parse("(fst (pair 1 #t))")) == INT

    def test_letrec(self):
        source = "(letrec ([f : (-> int int) (lambda ([n : int]) (f n))]) f)"
        assert type_of_surface(parse(source)) == FunType(INT, INT)

    def test_static_errors_are_reported(self):
        for source in [
            "(+ 1 #t)",                                  # bool where int expected
            "(1 2)",                                     # applying an int
            "(if 1 2 3)",                                # non-bool test of non-dyn type
            "(if #t 1 #f)",                              # inconsistent branches
            "(: (lambda ([x : bool]) x) (-> int int))",  # inconsistent ascription
            "(fst 3)",
            "x",                                         # unbound variable
        ]:
            assert not well_typed_surface(parse(source)), source

    def test_dynamic_code_is_always_well_typed(self):
        # The untyped fragment embeds fully: everything checks at ?.
        source = "((lambda (f) (f (f 1))) (lambda (x) (+ x 1)))"
        assert well_typed_surface(parse(source))

    def test_program_types(self):
        program = parse_program("(define (id [x : int]) : int x) (id 3)")
        assert type_of_program(program) == INT

    def test_static_errors_helper(self):
        program = parse_program("(+ 1 #t)")
        assert static_errors(program)
        assert not static_errors(parse_program("(+ 1 2)"))


class TestCastInsertion:
    def test_no_casts_for_fully_typed_code(self):
        term, ty = elaborate(parse("((lambda ([x : int]) (* x x)) 7)"))
        assert ty == INT
        assert count_casts(term) == 0

    def test_cast_inserted_at_a_consistency_site(self):
        term, ty = elaborate(parse("((lambda ([x : int]) (* x x)) (: 7 ?))"))
        assert ty == INT
        assert count_casts(term) == 2  # 7 ⇒ ?  and  ? ⇒ int

    def test_blame_labels_point_at_source_locations(self):
        term, _ = elaborate(parse("((lambda ([x : int]) x)\n (: 7 ?))"))
        labels = [t.label.name for t in _all_casts(term)]
        assert any("1:" in name or "2:" in name for name in labels)

    def test_elaborated_terms_are_well_typed_lambda_b(self):
        sources = [
            "((lambda ([x : int]) (* x x)) (: 7 ?))",
            "(lambda (f) (f 1))",
            "(if (: #t ?) 1 2)",
            "(letrec ([f : (-> int int) (lambda ([n : int]) (if (zero? n) 0 (f (- n 1))))]) (f 3))",
            "(snd (: (pair 1 #t) ?))",
        ]
        for source in sources:
            term, ty = elaborate(parse(source))
            assert type_b(term) == ty, source

    def test_dynamic_function_position_gets_a_fun_cast(self):
        term, _ = elaborate(parse("(lambda (f) (f 1))"))
        assert count_casts(term) >= 2  # f ⇒ ?→?  and  1 ⇒ ?

    def test_if_branches_are_cast_to_the_join(self):
        term, ty = elaborate(parse("(if #t 1 (: 2 ?))"))
        assert ty == INT
        assert count_casts(term) >= 1

    def test_program_elaboration_binds_definitions_in_order(self):
        program = parse_program(
            """
            (define (double [x : int]) : int (* x 2))
            (define (quad [x : int]) : int (double (double x)))
            (quad 4)
            """
        )
        term, ty = elaborate_program(program)
        assert ty == INT
        assert type_b(term) == INT

    def test_unknown_definition_reference_is_an_error(self):
        program = parse_program("(define (f [x : int]) : int (g x)) (f 1)")
        with pytest.raises(ElaborationError):
            elaborate_program(program)


def _all_casts(term):
    from repro.core.terms import subterms

    return [t for t in subterms(term) if isinstance(t, Cast)]


class TestEndToEndExecution:
    def test_fully_typed_program(self):
        result = run("((lambda ([x : int]) (* x x)) 7)")
        assert result.is_value and result.value == 49

    def test_gradual_program_runs_on_every_backend(self):
        source = "((lambda ([x : int]) (* x x)) (: 7 ?))"
        for calculus in ("B", "C", "S"):
            assert run(source, calculus=calculus).value == 49
            assert run(source, calculus=calculus, engine="subst").value == 49

    def test_recursive_program(self):
        source = """
        (define (sum [n : int]) : int
          (if (zero? n) 0 (+ n (sum (- n 1)))))
        (sum 10)
        """
        assert run(source).value == 55

    def test_dynamically_typed_recursion(self):
        source = """
        (letrec ([count : ?
                  (lambda (n) (if (zero? n) 0 (count (- n 1))))])
          (count 25))
        """
        result = run(source)
        assert result.is_value and result.value == 0

    def test_untyped_library_typed_client_blames_the_library(self):
        source = """
        (define lib : ? (lambda (x) #t))          ; promises int -> int below, returns a bool
        (define use : (-> int int) (: lib (-> int int)))
        (+ 1 (use 3))
        """
        result = run(source)
        assert result.is_blame
        assert "3:" in result.blame_label.name  # the ascription on line 3

    def test_typed_library_untyped_client_blames_the_client(self):
        source = """
        (define (inc [x : int]) : int (+ x 1))
        (define client : ? (lambda (f) (f #t)))
        (client (: inc ?))
        """
        result = run(source)
        assert result.is_blame
        assert not result.blame_label.positive

    def test_boundary_crossing_loop_is_space_bounded_on_the_s_machine(self):
        # A tail-recursive function whose result round-trips through ? at
        # every level: the result casts break the tail call in λB but are
        # merged away by the λS machine.
        source = """
        (define (loop [n : int]) : bool
          (if (zero? n) #t (: (: (loop (- n 1)) ?) bool)))
        (loop 300)
        """
        result_s = run(source, calculus="S")
        result_b = run(source, calculus="B")
        assert result_s.value is True and result_b.value is True
        assert result_s.space_stats["max_pending_mediators"] <= 4
        assert result_b.space_stats["max_pending_mediators"] >= 300

    def test_compile_source_returns_a_closed_term(self):
        from repro.core.terms import is_closed

        term, ty = compile_source("(define (id [x : int]) : int x) (id 1)")
        assert is_closed(term) and ty == INT
