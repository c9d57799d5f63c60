"""Tests for λC type checking and reduction (Figure 3)."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.errors import StuckError, TypeCheckError
from repro.core.labels import label
from repro.core.terms import (
    App,
    Blame,
    Cast,
    Coerce,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Var,
    const_bool,
    const_int,
)
from repro.core.types import BOOL, DYN, INT
from repro.lambda_c.coercions import (
    Fail,
    FunCoercion,
    Identity,
    Inject,
    ProdCoercion,
    Project,
    Sequence,
)
from repro.lambda_c.reduction import run, step
from repro.lambda_c.safety import mentioned_labels, term_safe_for
from repro.lambda_c.syntax import is_lambda_c_term, is_value
from repro.lambda_c.typecheck import type_of
from repro.translate.b_to_c import term_to_lambda_c

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")


class TestTypeChecking:
    def test_coercion_application_rule(self):
        term = Coerce(const_int(1), Inject(INT))
        assert type_of(term) == DYN

    def test_coercion_must_match_subject_type(self):
        with pytest.raises(TypeCheckError):
            type_of(Coerce(const_bool(True), Inject(INT)))

    def test_casts_are_rejected(self):
        with pytest.raises(TypeCheckError):
            type_of(Cast(const_int(1), INT, DYN, P))

    def test_non_lambda_c_coercion_rejected(self):
        from repro.lambda_s.coercions import IdBase

        with pytest.raises(TypeCheckError):
            type_of(Coerce(const_int(1), IdBase(INT)))

    def test_blame_subject(self):
        term = Coerce(Blame(P), Inject(INT))
        assert type_of(term) == DYN

    def test_is_lambda_c_term(self):
        assert is_lambda_c_term(Coerce(const_int(1), Identity(INT)))
        assert not is_lambda_c_term(Cast(const_int(1), INT, DYN, P))


class TestValues:
    def test_function_coercion_value(self):
        proxy = Coerce(Lam("x", INT, Var("x")), FunCoercion(Project(INT, P), Inject(INT)))
        assert is_value(proxy)

    def test_injection_value(self):
        assert is_value(Coerce(const_int(1), Inject(INT)))

    def test_product_coercion_value(self):
        proxy = Coerce(Pair(const_int(1), const_int(2)), ProdCoercion(Inject(INT), Inject(INT)))
        assert is_value(proxy)

    def test_identity_application_is_not_a_value(self):
        assert not is_value(Coerce(const_int(1), Identity(INT)))

    def test_sequence_application_is_not_a_value(self):
        assert not is_value(Coerce(const_int(1), Sequence(Identity(INT), Inject(INT))))


class TestReductionRules:
    def test_identity(self):
        assert step(Coerce(const_int(1), Identity(INT))) == const_int(1)

    def test_function_coercion_applied(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        c, d = Project(INT, P), Inject(INT)
        applied = App(Coerce(double, FunCoercion(c, d)), Coerce(const_int(3), Inject(INT)))
        stepped = step(applied)
        assert stepped == Coerce(App(double, Coerce(Coerce(const_int(3), Inject(INT)), c)), d)

    def test_matching_injection_projection_collapse(self):
        term = Coerce(Coerce(const_int(1), Inject(INT)), Project(INT, P))
        assert step(term) == const_int(1)

    def test_mismatched_projection_blames(self):
        term = Coerce(Coerce(const_int(1), Inject(INT)), Project(BOOL, P))
        assert step(term) == Blame(P)

    def test_composition_splits(self):
        term = Coerce(const_int(1), Sequence(Inject(INT), Project(INT, P)))
        assert step(term) == Coerce(Coerce(const_int(1), Inject(INT)), Project(INT, P))

    def test_fail_blames(self):
        term = Coerce(const_int(1), Fail(INT, P, BOOL))
        assert step(term) == Blame(P)

    def test_product_coercion_pushes_through_projections(self):
        proxy = Coerce(Pair(const_int(1), const_int(2)), ProdCoercion(Inject(INT), Identity(INT)))
        assert step(Fst(proxy)) == Coerce(Fst(Pair(const_int(1), const_int(2))), Inject(INT))
        assert step(Snd(proxy)) == Coerce(Snd(Pair(const_int(1), const_int(2))), Identity(INT))

    def test_blame_collapses_context(self):
        term = Op("+", (Coerce(Blame(P), Identity(INT)), const_int(1)))
        assert step(term) == Blame(P)

    def test_standard_rules_still_work(self):
        assert step(If(const_bool(False), const_int(1), const_int(2))) == const_int(2)
        assert step(Let("x", const_int(3), Var("x"))) == const_int(3)

    def test_stuck_application(self):
        with pytest.raises(StuckError):
            step(App(const_int(1), const_int(1)))


class TestRunAndSafety:
    def test_run_to_value(self):
        term = Coerce(Coerce(const_int(1), Inject(INT)), Project(INT, P))
        outcome = run(term)
        assert outcome.is_value and outcome.term == const_int(1)

    def test_run_to_blame(self):
        term = Coerce(const_int(1), Sequence(Inject(INT), Project(BOOL, Q)))
        outcome = run(term)
        assert outcome.is_blame and outcome.label == Q

    def test_term_safety(self):
        term = Coerce(const_int(1), Sequence(Inject(INT), Project(BOOL, Q)))
        assert not term_safe_for(term, Q)
        assert term_safe_for(term, P)
        assert mentioned_labels(term) == {Q}

    def test_safe_terms_do_not_blame_their_safe_labels(self):
        term = Coerce(const_int(1), Sequence(Inject(INT), Project(BOOL, Q)))
        outcome = run(term)
        assert outcome.is_blame and term_safe_for(term, outcome.label) is False

    @given(lambda_b_programs())
    def test_translated_generated_programs_run_like_lambda_b(self, program):
        """Kleene agreement between λB and λC on generated programs."""
        from repro.core.terms import erase
        from repro.lambda_b.reduction import run as run_b

        term_b, _ = program
        term_c = term_to_lambda_c(term_b)
        out_b = run_b(term_b, 20_000)
        out_c = run(term_c, 20_000)
        assert out_b.kind == out_c.kind
        if out_b.is_blame:
            assert out_b.label == out_c.label
        if out_b.is_value:
            from repro.core.terms import alpha_equal

            assert alpha_equal(erase(out_b.term), erase(out_c.term))
