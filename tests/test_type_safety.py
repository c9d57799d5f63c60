"""Tests for Proposition 3 (type safety) in all three calculi, via the checker."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.labels import label
from repro.core.terms import App, Cast, const_int
from repro.core.types import BOOL, DYN, INT
from repro.gen.programs import (
    even_odd_boundary,
    fib_boundary,
    pair_boundary_swap,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.properties.calculi import CALCULI, LAMBDA_B, LAMBDA_C, LAMBDA_S
from repro.properties.type_safety import check_type_safety, check_unique_type
from repro.translate import b_to_c, b_to_s

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")

WORKLOADS = [
    even_odd_boundary(5),
    typed_loop_untyped_step(3),
    fib_boundary(5),
    twice_boundary(3),
    untyped_library_bad_result(),
    untyped_client_bad_argument(),
    pair_boundary_swap(),
]


def _translate_for(calculus_name, term_b):
    if calculus_name == "B":
        return term_b
    if calculus_name == "C":
        return b_to_c(term_b)
    return b_to_s(term_b)


class TestProposition3:
    @given(lambda_b_programs())
    def test_lambda_b(self, program):
        term, _ = program
        report = check_type_safety(LAMBDA_B, term)
        assert report.ok, report.reason

    @given(lambda_b_programs())
    def test_lambda_c(self, program):
        term, _ = program
        report = check_type_safety(LAMBDA_C, b_to_c(term))
        assert report.ok, report.reason

    @given(lambda_b_programs())
    def test_lambda_s(self, program):
        term, _ = program
        report = check_type_safety(LAMBDA_S, b_to_s(term))
        assert report.ok, report.reason

    @pytest.mark.parametrize("calculus_name", ["B", "C", "S"])
    def test_workloads(self, calculus_name):
        calculus = CALCULI[calculus_name]
        for program in WORKLOADS:
            report = check_type_safety(calculus, _translate_for(calculus_name, program), fuel=3_000)
            assert report.ok, (calculus_name, report.reason)

    def test_ill_typed_terms_are_reported(self):
        report = check_type_safety(LAMBDA_B, App(const_int(1), const_int(2)))
        assert not report.ok
        assert "type check" in report.reason

    def test_blame_outcomes_count_as_safe(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q)
        assert check_type_safety(LAMBDA_B, term).ok

    @given(lambda_b_programs())
    def test_unique_typing(self, program):
        term, _ = program
        assert check_unique_type(LAMBDA_B, term)
