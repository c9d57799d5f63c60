"""Tests for |·|CS (Figure 6), the inclusion |·|SC, and Proposition 15."""

from __future__ import annotations

from hypothesis import given

from repro.core.labels import label
from repro.core.terms import App, Cast, Coerce, Lam, Var, const_int
from repro.core.types import BOOL, DYN, GROUND_FUN, GROUND_PROD, INT, FunType, ProdType, types_equal
from repro.lambda_c.coercions import (
    Fail,
    FunCoercion,
    Identity,
    Inject,
    ProdCoercion,
    Project,
    Sequence,
)
from repro.lambda_c.safety import term_safe_for as safe_c
from repro.lambda_c.typecheck import type_of as type_c
from repro.lambda_s.coercions import (
    ID_DYN,
    FailS,
    FunCo,
    IdBase,
    Injection,
    ProdCo,
    Projection,
)
from repro.lambda_s.safety import term_safe_for as safe_s
from repro.lambda_s.typecheck import type_of as type_s
from repro.properties.blame_safety import labels_in_term
from repro.translate.b_to_c import term_to_lambda_c
from repro.translate.c_to_s import coercion_to_space, term_to_lambda_s
from repro.translate.s_to_c import space_to_coercion, term_to_lambda_c as s_back_to_c

from .strategies import lambda_b_programs, lambda_c_coercions, space_coercions

P = label("p")
Q = label("q")


class TestCoercionNormalisation:
    def test_identities(self):
        assert coercion_to_space(Identity(DYN)) == ID_DYN
        assert coercion_to_space(Identity(INT)) == IdBase(INT)
        assert coercion_to_space(Identity(FunType(INT, DYN))) == FunCo(IdBase(INT), ID_DYN)
        assert coercion_to_space(Identity(ProdType(INT, BOOL))) == ProdCo(IdBase(INT), IdBase(BOOL))

    def test_projection_gains_an_identity_body(self):
        assert coercion_to_space(Project(INT, P)) == Projection(INT, P, IdBase(INT))
        assert coercion_to_space(Project(GROUND_FUN, P)) == Projection(
            GROUND_FUN, P, FunCo(ID_DYN, ID_DYN)
        )

    def test_injection_gains_an_identity_body(self):
        assert coercion_to_space(Inject(INT)) == Injection(IdBase(INT), INT)
        assert coercion_to_space(Inject(GROUND_PROD)) == Injection(
            ProdCo(ID_DYN, ID_DYN), GROUND_PROD
        )

    def test_structural_cases(self):
        fun = FunCoercion(Project(INT, P), Inject(INT))
        assert coercion_to_space(fun) == FunCo(
            Projection(INT, P, IdBase(INT)), Injection(IdBase(INT), INT)
        )
        prod = ProdCoercion(Identity(INT), Inject(BOOL))
        assert coercion_to_space(prod) == ProdCo(IdBase(INT), Injection(IdBase(BOOL), BOOL))

    def test_fail_is_preserved(self):
        assert coercion_to_space(Fail(INT, P, BOOL)) == FailS(INT, P, BOOL)

    def test_composition_becomes_sharp(self):
        round_trip = Sequence(Inject(INT), Project(INT, P))
        assert coercion_to_space(round_trip) == IdBase(INT)
        failing = Sequence(Inject(INT), Project(BOOL, Q))
        assert coercion_to_space(failing) == FailS(INT, Q, BOOL)

    def test_long_compositions_collapse(self):
        chain = Sequence(
            Sequence(Inject(INT), Project(INT, P)),
            Sequence(Inject(INT), Project(INT, Q)),
        )
        assert coercion_to_space(chain) == IdBase(INT)

    def test_normalisation_is_idempotent_through_the_inclusion(self):
        fun = FunCoercion(Project(INT, P), Inject(INT))
        canonical = coercion_to_space(fun)
        assert coercion_to_space(space_to_coercion(canonical)) == canonical

    @given(lambda_c_coercions())
    def test_normal_forms_type_like_the_original(self, generated):
        from repro.lambda_s.coercions import check_space_coercion
        from repro.core.types import UnknownType

        coercion, source, target = generated
        canonical = coercion_to_space(coercion)
        result = check_space_coercion(canonical, source)
        assert isinstance(result, UnknownType) or types_equal(result, target)

    @given(lambda_c_coercions())
    def test_normal_form_labels_are_a_subset_of_the_original(self, generated):
        """Normalisation may drop labels (cancelled round trips) but never invents them."""
        from repro.lambda_c.coercions import labels_of as labels_c
        from repro.lambda_s.coercions import labels_of as labels_s

        coercion, _, _ = generated
        assert labels_s(coercion_to_space(coercion)) <= labels_c(coercion)

    @given(space_coercions())
    def test_round_trip_from_canonical_form_is_the_identity(self, generated):
        canonical, _, _ = generated
        assert coercion_to_space(space_to_coercion(canonical)) == canonical

    @given(lambda_c_coercions())
    def test_height_grows_by_at_most_one_under_normalisation(self, generated):
        """Normalisation expands G! / G?p at higher-order ground types into
        ``id_G ; G!`` / ``G?p ; id_G`` whose identity body has height 2, so the
        height of the canonical form exceeds the original by at most one."""
        from repro.lambda_c.coercions import height as height_c
        from repro.lambda_s.coercions import height as height_s

        coercion, _, _ = generated
        assert height_s(coercion_to_space(coercion)) <= height_c(coercion) + 1


class TestTermTranslation:
    def test_terms_translate_homomorphically(self):
        term = App(Lam("x", DYN, Var("x")), Coerce(const_int(1), Inject(INT)))
        translated = term_to_lambda_s(term)
        assert translated == App(
            Lam("x", DYN, Var("x")), Coerce(const_int(1), Injection(IdBase(INT), INT))
        )

    def test_casts_rejected(self):
        import pytest
        from repro.core.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            term_to_lambda_s(Cast(const_int(1), INT, DYN, P))

    @given(lambda_b_programs())
    def test_proposition_15_type_preservation(self, program):
        term_b, ty = program
        term_c = term_to_lambda_c(term_b)
        term_s = term_to_lambda_s(term_c)
        assert types_equal(type_s(term_s), type_c(term_c))
        assert types_equal(type_s(term_s), ty)

    @given(lambda_b_programs())
    def test_proposition_15_blame_safety_preservation(self, program):
        term_b, _ = program
        term_c = term_to_lambda_c(term_b)
        term_s = term_to_lambda_s(term_c)
        for q in labels_in_term(term_c):
            if safe_c(term_c, q):
                assert safe_s(term_s, q)

    @given(lambda_b_programs())
    def test_inclusion_back_into_lambda_c_is_well_typed(self, program):
        term_b, ty = program
        term_s = term_to_lambda_s(term_to_lambda_c(term_b))
        back = s_back_to_c(term_s)
        assert types_equal(type_c(back), ty)
