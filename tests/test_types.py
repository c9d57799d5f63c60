"""Tests for the type structure: ground types, compatibility, grounding (Lemma 1)."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.types import (
    BOOL,
    DYN,
    GROUND_FUN,
    GROUND_PROD,
    INT,
    STR,
    UNIT,
    UNKNOWN,
    DynType,
    FunType,
    ProdType,
    all_types,
    compatible,
    ground_of,
    grounds_to,
    is_dyn,
    is_ground,
    needs_ground_factoring,
    subterms,
    type_height,
    type_size,
    type_to_str,
    types_equal,
)

from .strategies import compatible_type_pairs, types


class TestTypeConstruction:
    def test_base_types_are_distinct(self):
        assert INT != BOOL
        assert INT != STR
        assert BOOL != UNIT

    def test_structural_equality(self):
        assert FunType(INT, BOOL) == FunType(INT, BOOL)
        assert ProdType(INT, BOOL) == ProdType(INT, BOOL)
        assert FunType(INT, BOOL) != FunType(BOOL, INT)

    def test_dyn_is_a_singleton_value(self):
        assert DynType() == DYN

    def test_types_are_hashable(self):
        seen = {INT, DYN, FunType(INT, DYN), ProdType(DYN, DYN)}
        assert FunType(INT, DYN) in seen

    def test_function_types_nest(self):
        higher = FunType(FunType(INT, INT), BOOL)
        assert higher.dom == FunType(INT, INT)
        assert higher.cod == BOOL


class TestGroundTypes:
    def test_base_types_are_ground(self):
        for base in (INT, BOOL, STR, UNIT):
            assert is_ground(base)

    def test_dynamic_type_is_not_ground(self):
        assert not is_ground(DYN)

    def test_ground_function_type(self):
        assert is_ground(GROUND_FUN)
        assert not is_ground(FunType(INT, DYN))
        assert not is_ground(FunType(DYN, INT))

    def test_ground_product_type(self):
        assert is_ground(GROUND_PROD)
        assert not is_ground(ProdType(INT, DYN))

    def test_grounding_of_base(self):
        assert ground_of(INT) == INT

    def test_grounding_of_function(self):
        assert ground_of(FunType(INT, BOOL)) == GROUND_FUN
        assert ground_of(FunType(DYN, DYN)) == GROUND_FUN

    def test_grounding_of_product(self):
        assert ground_of(ProdType(INT, DYN)) == GROUND_PROD

    def test_grounding_of_dyn_is_an_error(self):
        with pytest.raises(ValueError):
            ground_of(DYN)

    def test_grounds_to(self):
        assert grounds_to(FunType(INT, INT), GROUND_FUN)
        assert not grounds_to(FunType(INT, INT), INT)
        assert not grounds_to(DYN, GROUND_FUN)

    def test_needs_ground_factoring(self):
        assert needs_ground_factoring(FunType(INT, INT))
        assert not needs_ground_factoring(GROUND_FUN)
        assert not needs_ground_factoring(INT)
        assert not needs_ground_factoring(DYN)

    @given(types(max_depth=3))
    def test_grounding_lemma_part1(self, ty):
        """Lemma 1(1): every A ≠ ? is compatible with a unique ground type."""
        if is_dyn(ty):
            return
        ground = ground_of(ty)
        assert is_ground(ground)
        assert compatible(ty, ground)
        # Uniqueness: no other ground type of our universe is compatible.
        for other in (INT, BOOL, STR, UNIT, GROUND_FUN, GROUND_PROD):
            if other != ground:
                assert not compatible(ty, other)

    def test_grounding_lemma_part2(self):
        """Lemma 1(2): two ground types are compatible iff they are equal."""
        grounds = [INT, BOOL, STR, UNIT, GROUND_FUN, GROUND_PROD]
        for g in grounds:
            for h in grounds:
                assert compatible(g, h) == (g == h)


class TestCompatibility:
    def test_dyn_is_compatible_with_everything(self):
        for ty in (INT, BOOL, FunType(INT, BOOL), ProdType(DYN, INT), DYN):
            assert compatible(DYN, ty)
            assert compatible(ty, DYN)

    def test_base_compatibility_is_equality(self):
        assert compatible(INT, INT)
        assert not compatible(INT, BOOL)

    def test_function_compatibility_is_componentwise(self):
        assert compatible(FunType(INT, BOOL), FunType(DYN, BOOL))
        assert compatible(FunType(INT, BOOL), FunType(INT, DYN))
        assert not compatible(FunType(INT, BOOL), FunType(BOOL, BOOL))

    def test_product_compatibility_is_componentwise(self):
        assert compatible(ProdType(INT, BOOL), ProdType(DYN, DYN))
        assert not compatible(ProdType(INT, BOOL), ProdType(BOOL, BOOL))

    def test_function_never_compatible_with_base(self):
        assert not compatible(FunType(DYN, DYN), INT)
        assert not compatible(INT, GROUND_FUN)

    def test_function_never_compatible_with_product(self):
        assert not compatible(GROUND_FUN, GROUND_PROD)

    @given(types(max_depth=3))
    def test_compatibility_is_reflexive(self, ty):
        assert compatible(ty, ty)

    @given(compatible_type_pairs())
    def test_compatibility_is_symmetric(self, pair):
        a, b = pair
        assert compatible(a, b)
        assert compatible(b, a)

    def test_compatibility_is_not_transitive(self):
        # int ~ ? and ? ~ bool, but int is not compatible with bool.
        assert compatible(INT, DYN) and compatible(DYN, BOOL)
        assert not compatible(INT, BOOL)

    def test_unknown_wildcard_matches_everything(self):
        assert types_equal(UNKNOWN, INT)
        assert types_equal(FunType(INT, UNKNOWN), FunType(INT, BOOL))
        assert compatible(UNKNOWN, FunType(INT, BOOL))


class TestMetricsAndEnumeration:
    def test_type_height(self):
        assert type_height(INT) == 1
        assert type_height(DYN) == 1
        assert type_height(FunType(INT, INT)) == 2
        assert type_height(FunType(FunType(INT, INT), INT)) == 3
        assert type_height(ProdType(INT, FunType(INT, INT))) == 3

    def test_type_size(self):
        assert type_size(INT) == 1
        assert type_size(FunType(INT, BOOL)) == 3
        assert type_size(ProdType(FunType(INT, BOOL), DYN)) == 5

    def test_subterms(self):
        ty = FunType(INT, ProdType(DYN, BOOL))
        parts = list(subterms(ty))
        assert ty in parts and INT in parts and DYN in parts and BOOL in parts
        assert len(parts) == 5

    def test_all_types_depth_one(self):
        assert set(all_types(1)) == {DYN, INT, BOOL}

    def test_all_types_depth_two_contains_functions(self):
        enumerated = all_types(2)
        assert FunType(INT, BOOL) in enumerated
        assert FunType(DYN, DYN) in enumerated
        assert len(enumerated) == 3 + 9

    def test_all_types_with_products(self):
        enumerated = all_types(2, include_products=True)
        assert ProdType(INT, DYN) in enumerated

    def test_all_types_has_no_duplicates(self):
        enumerated = all_types(3)
        assert len(enumerated) == len(set(enumerated))


class TestPrettyPrinting:
    def test_base_and_dyn(self):
        assert type_to_str(INT) == "int"
        assert type_to_str(DYN) == "?"

    def test_function_arrows(self):
        assert type_to_str(FunType(INT, BOOL)) == "int -> bool"
        assert type_to_str(FunType(FunType(INT, INT), BOOL)) == "(int -> int) -> bool"
        assert type_to_str(FunType(INT, FunType(INT, BOOL))) == "int -> int -> bool"

    def test_products(self):
        assert type_to_str(ProdType(INT, BOOL)) == "int * bool"
        assert type_to_str(ProdType(FunType(INT, INT), DYN)) == "(int -> int) * ?"

    def test_str_dunder(self):
        assert str(GROUND_FUN) == "? -> ?"
