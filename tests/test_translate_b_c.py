"""Tests for the translation |·|BC from λB to λC (Figure 4) and Proposition 10."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.errors import TypeCheckError
from repro.core.labels import label
from repro.core.terms import App, Blame, Cast, Coerce, Lam, Var, const_int
from repro.core.types import BOOL, DYN, GROUND_FUN, GROUND_PROD, INT, FunType, ProdType, types_equal
from repro.lambda_b.safety import term_safe_for as safe_b
from repro.lambda_b.typecheck import type_of as type_b
from repro.lambda_c.coercions import (
    FunCoercion,
    Identity,
    Inject,
    ProdCoercion,
    Project,
    Sequence,
    check_coercion,
)
from repro.lambda_c.safety import term_safe_for as safe_c
from repro.lambda_c.typecheck import type_of as type_c
from repro.properties.blame_safety import labels_in_term
from repro.translate.b_to_c import cast_to_coercion, term_to_lambda_c

from .strategies import compatible_type_pairs, lambda_b_programs

P = label("p")
Q = label("q")
I2I = FunType(INT, INT)


class TestCastTranslation:
    def test_base_identity(self):
        assert cast_to_coercion(INT, P, INT) == Identity(INT)

    def test_dyn_identity(self):
        assert cast_to_coercion(DYN, P, DYN) == Identity(DYN)

    def test_ground_injection(self):
        assert cast_to_coercion(INT, P, DYN) == Inject(INT)
        assert cast_to_coercion(GROUND_FUN, P, DYN) == Inject(GROUND_FUN)

    def test_ground_projection_carries_the_label(self):
        assert cast_to_coercion(DYN, P, INT) == Project(INT, P)

    def test_non_ground_injection_factors_through_the_ground_type(self):
        coercion = cast_to_coercion(I2I, P, DYN)
        assert coercion == Sequence(cast_to_coercion(I2I, P, GROUND_FUN), Inject(GROUND_FUN))

    def test_non_ground_projection_factors_through_the_ground_type(self):
        coercion = cast_to_coercion(DYN, P, I2I)
        assert coercion == Sequence(Project(GROUND_FUN, P), cast_to_coercion(GROUND_FUN, P, I2I))

    def test_function_cast_complements_the_domain_label(self):
        coercion = cast_to_coercion(I2I, P, FunType(DYN, INT))
        assert coercion == FunCoercion(
            cast_to_coercion(DYN, P.complement(), INT), cast_to_coercion(INT, P, INT)
        )

    def test_product_cast_is_covariant(self):
        coercion = cast_to_coercion(ProdType(INT, INT), P, GROUND_PROD)
        assert coercion == ProdCoercion(Inject(INT), Inject(INT))

    def test_incompatible_cast_is_rejected(self):
        with pytest.raises(TypeCheckError):
            cast_to_coercion(INT, P, BOOL)

    @given(compatible_type_pairs())
    def test_translation_has_the_same_typing_as_the_cast(self, pair):
        """|A ⇒p B|BC : A ⇒ B (the coercion half of Proposition 10)."""
        source, target = pair
        coercion = cast_to_coercion(source, P, target)
        assert types_equal(check_coercion(coercion, source), target)

    @given(compatible_type_pairs())
    def test_translation_mentions_only_the_cast_label(self, pair):
        from repro.lambda_c.coercions import labels_of

        source, target = pair
        mentioned = labels_of(cast_to_coercion(source, P, target))
        assert mentioned <= {P, P.complement()}


class TestTermTranslation:
    def test_casts_become_coercions(self):
        term = Cast(const_int(1), INT, DYN, P)
        assert term_to_lambda_c(term) == Coerce(const_int(1), Inject(INT))

    def test_translation_is_homomorphic(self):
        term = App(Lam("x", DYN, Var("x")), Cast(const_int(1), INT, DYN, P))
        translated = term_to_lambda_c(term)
        assert translated == App(Lam("x", DYN, Var("x")), Coerce(const_int(1), Inject(INT)))

    def test_blame_is_preserved(self):
        assert term_to_lambda_c(Blame(P)) == Blame(P)

    def test_coercions_are_rejected_as_input(self):
        with pytest.raises(TypeCheckError):
            term_to_lambda_c(Coerce(const_int(1), Identity(INT)))

    @given(lambda_b_programs())
    def test_proposition_10_type_preservation(self, program):
        term, ty = program
        translated = term_to_lambda_c(term)
        assert types_equal(type_c(translated), type_b(term))
        assert types_equal(type_c(translated), ty)

    @given(lambda_b_programs())
    def test_proposition_10_blame_safety_preservation(self, program):
        term, _ = program
        translated = term_to_lambda_c(term)
        for q in labels_in_term(term):
            if safe_b(term, q):
                assert safe_c(translated, q)
