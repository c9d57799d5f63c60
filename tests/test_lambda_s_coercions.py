"""Tests for λS canonical coercions and the composition operator ``#`` (Figure 5)."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.errors import CoercionTypeError
from repro.core.labels import label
from repro.core.types import BOOL, DYN, GROUND_FUN, GROUND_PROD, INT, FunType, ProdType
from repro.lambda_s.coercions import (
    ID_DYN,
    FailS,
    FunCo,
    GroundCoercion,
    IdBase,
    Injection,
    Intermediate,
    ProdCo,
    Projection,
    SpaceCoercion,
    check_space_coercion,
    coercion_safe_for,
    compose,
    height,
    identity_for,
    is_canonical_identity,
    is_identity,
    is_identity_free,
    lemma13_source_target,
    size,
    space_source,
    space_target,
)
from repro.translate.c_to_s import coercion_to_space
from repro.translate.s_to_c import space_to_coercion

from .strategies import composable_space_coercions, space_coercions

P = label("p")
Q = label("q")

ID_INT = IdBase(INT)
ID_BOOL = IdBase(BOOL)
INT_INJ = Injection(ID_INT, INT)                    # idι ; int!
INT_PROJ = Projection(INT, P, ID_INT)               # int?p ; idι
BOOL_PROJ = Projection(BOOL, Q, ID_BOOL)
FUN_ID = FunCo(ID_DYN, ID_DYN)                      # id? → id?


class TestGrammar:
    def test_class_hierarchy_mirrors_the_grammar(self):
        assert isinstance(ID_INT, GroundCoercion)
        assert isinstance(ID_INT, Intermediate)
        assert isinstance(INT_INJ, Intermediate)
        assert not isinstance(INT_INJ, GroundCoercion)
        assert isinstance(INT_PROJ, SpaceCoercion)
        assert not isinstance(INT_PROJ, Intermediate)
        assert isinstance(FailS(INT, P, BOOL), Intermediate)

    def test_projection_body_must_be_intermediate(self):
        with pytest.raises(CoercionTypeError):
            Projection(INT, P, ID_DYN)

    def test_injection_body_must_be_ground(self):
        with pytest.raises(CoercionTypeError):
            Injection(INT_INJ, INT)

    def test_idbase_requires_a_base_type(self):
        with pytest.raises(CoercionTypeError):
            IdBase(GROUND_FUN)

    def test_fail_requires_distinct_grounds(self):
        with pytest.raises(CoercionTypeError):
            FailS(INT, P, INT)

    def test_fail_equality_ignores_annotations(self):
        assert FailS(INT, P, BOOL, source=INT, target=BOOL) == FailS(INT, P, BOOL)

    def test_identity_freedom(self):
        assert not is_identity_free(ID_DYN)
        assert not is_identity_free(ID_INT)
        assert is_identity_free(INT_INJ)
        assert is_identity_free(INT_PROJ)
        assert is_identity_free(FUN_ID)
        assert is_identity_free(FailS(INT, P, BOOL))

    def test_is_identity(self):
        assert is_identity(ID_DYN) and is_identity(ID_INT)
        assert not is_identity(FUN_ID)

    def test_canonical_identity_recognition(self):
        assert is_canonical_identity(identity_for(FunType(INT, FunType(DYN, BOOL))))
        assert not is_canonical_identity(INT_INJ)


class TestIdentityFor:
    def test_identity_for_base_and_dyn(self):
        assert identity_for(INT) == ID_INT
        assert identity_for(DYN) == ID_DYN

    def test_identity_for_ground_function_is_ground(self):
        ground_id = identity_for(GROUND_FUN)
        assert isinstance(ground_id, GroundCoercion)
        assert ground_id == FUN_ID

    def test_identity_for_products(self):
        assert identity_for(GROUND_PROD) == ProdCo(ID_DYN, ID_DYN)

    def test_identity_for_typing(self):
        ty = FunType(INT, ProdType(BOOL, DYN))
        assert space_source(identity_for(ty)) == ty
        assert space_target(identity_for(ty)) == ty


class TestTyping:
    def test_sources_and_targets(self):
        assert space_source(INT_INJ) == INT and space_target(INT_INJ) == DYN
        assert space_source(INT_PROJ) == DYN and space_target(INT_PROJ) == INT
        assert space_source(ID_DYN) == DYN
        assert space_source(FUN_ID) == GROUND_FUN

    def test_check_space_coercion(self):
        assert check_space_coercion(INT_INJ, INT) == DYN
        assert check_space_coercion(INT_PROJ, DYN) == INT
        with pytest.raises(CoercionTypeError):
            check_space_coercion(INT_INJ, BOOL)
        with pytest.raises(CoercionTypeError):
            check_space_coercion(INT_PROJ, INT)

    @given(space_coercions())
    def test_generated_canonical_coercions_type_check(self, generated):
        coercion, source, target = generated
        result = check_space_coercion(coercion, source)
        from repro.core.types import types_equal

        assert types_equal(result, target)

    @given(space_coercions())
    def test_lemma13_source_and_target(self, generated):
        coercion, _, _ = generated
        from repro.lambda_s.coercions import subcoercions

        for sub in subcoercions(coercion):
            assert lemma13_source_target(sub)


class TestCompositionEquations:
    """Each defining equation of ``#`` from Figure 5."""

    def test_idi_compose_idi(self):
        assert compose(ID_INT, ID_INT) == ID_INT

    def test_function_composition_swaps_domains(self):
        # (s → t) # (s' → t') = (s' # s) → (t # t'):
        # here both round trips cancel, leaving the identity function coercion.
        s = FunCo(INT_PROJ, INT_INJ)       # int→int ⇒ ?→?  (dom ?⇒int, cod int⇒?)
        t = FunCo(INT_INJ, INT_PROJ)       # ?→? ⇒ int→int
        composed = compose(s, t)
        assert composed == FunCo(ID_INT, ID_INT)
        # And composing the other way round gives the identity at ?→?.
        assert compose(t, s) == FunCo(compose(INT_PROJ, INT_INJ), compose(INT_PROJ, INT_INJ))

    def test_product_composition_is_componentwise(self):
        s = ProdCo(INT_INJ, ID_INT)
        t = ProdCo(INT_PROJ, ID_INT)
        assert compose(s, t) == ProdCo(compose(INT_INJ, INT_PROJ), ID_INT)

    def test_id_dyn_is_a_left_unit(self):
        assert compose(ID_DYN, INT_PROJ) == INT_PROJ
        assert compose(ID_DYN, ID_DYN) == ID_DYN

    def test_id_dyn_is_a_right_unit_for_injections(self):
        assert compose(INT_INJ, ID_DYN) == INT_INJ

    def test_projection_prefix_floats_out(self):
        assert compose(INT_PROJ, INT_INJ) == Projection(INT, P, compose(ID_INT, INT_INJ))

    def test_injection_suffix_floats_out(self):
        assert compose(ID_INT, INT_INJ) == Injection(compose(ID_INT, ID_INT), INT)

    def test_matching_injection_projection_cancel(self):
        assert compose(INT_INJ, INT_PROJ) == ID_INT

    def test_mismatched_injection_projection_fail(self):
        result = compose(INT_INJ, BOOL_PROJ)
        assert result == FailS(INT, Q, BOOL)

    def test_fail_absorbs_on_the_left(self):
        fail = FailS(INT, P, BOOL)
        assert compose(fail, ID_BOOL) == fail
        assert compose(fail, Injection(ID_BOOL, BOOL)) == fail

    def test_fail_absorbs_on_the_right(self):
        fail = FailS(BOOL, P, INT)
        assert compose(ID_BOOL, fail) == fail

    def test_ill_typed_composition_raises(self):
        with pytest.raises(CoercionTypeError):
            compose(ID_INT, ID_BOOL)
        with pytest.raises(CoercionTypeError):
            compose(ID_INT, ID_DYN)

    def test_higher_order_round_trip_composes_to_identity(self):
        # (id_G ; G!) # (G?p ; id_G)  =  id_G   for G = ?→?
        inj = Injection(FUN_ID, GROUND_FUN)
        proj = Projection(GROUND_FUN, P, FUN_ID)
        assert compose(inj, proj) == FUN_ID

    def test_fail_detected_deep_inside_composition(self):
        # int! then bool?q deep under a projection prefix.
        s = Projection(INT, P, Injection(ID_INT, INT))     # int?p ; idι ; int!
        t = Projection(BOOL, Q, ID_BOOL)                   # bool?q ; idι
        assert compose(s, t) == Projection(INT, P, FailS(INT, Q, BOOL))


class TestCompositionProperties:
    @given(composable_space_coercions())
    def test_composition_stays_canonical_and_well_typed(self, generated):
        s, t, source, _, target = generated
        composed = compose(s, t)
        assert isinstance(composed, SpaceCoercion)
        result = check_space_coercion(composed, source)
        from repro.core.types import UnknownType, types_equal

        assert isinstance(result, UnknownType) or types_equal(result, target)

    @given(composable_space_coercions())
    def test_height_preservation_proposition_14(self, generated):
        s, t, *_ = generated
        assert height(compose(s, t)) <= max(height(s), height(t))

    @given(space_coercions())
    def test_size_is_bounded_by_height(self, generated):
        """A canonical coercion of bounded height has bounded size (Section 4)."""
        coercion, _, _ = generated
        assert size(coercion) <= 6 * (2 ** height(coercion))

    @given(composable_space_coercions())
    def test_composition_agrees_with_normalisation_of_the_sequence(self, generated):
        """s # t is the canonical form of the λC composition (s ; t)."""
        from repro.lambda_c.coercions import Sequence

        s, t, *_ = generated
        sequential = Sequence(space_to_coercion(s), space_to_coercion(t))
        assert coercion_to_space(sequential) == compose(s, t)

    @given(composable_space_coercions())
    def test_composition_with_identity_is_neutral(self, generated):
        s, _, source, middle, _ = generated
        assert compose(identity_for(source), s) == s
        assert compose(s, identity_for(middle)) == s


class TestSafetyAndMetrics:
    def test_projection_and_fail_mention_their_labels(self):
        assert not coercion_safe_for(INT_PROJ, P)
        assert coercion_safe_for(INT_PROJ, Q)
        assert not coercion_safe_for(FailS(INT, P, BOOL), P)

    def test_height_of_primitives(self):
        assert height(ID_DYN) == 1
        assert height(ID_INT) == 1
        assert height(INT_INJ) == 1
        assert height(INT_PROJ) == 1
        assert height(FUN_ID) == 2

    def test_size_counts_constructors(self):
        assert size(INT_PROJ) == 2
        assert size(Injection(FUN_ID, GROUND_FUN)) == 4

    def test_pretty_printing(self):
        assert "int!" in str(INT_INJ)
        assert "?p" in str(INT_PROJ)
        assert "id?" == str(ID_DYN)
        assert "->" in str(FUN_ID)
