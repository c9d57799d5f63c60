"""Tests for the reverse translation |·|CB from λC to λB (Figure 4) and Lemma 8."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import BULLET, label
from repro.core.terms import Cast, Coerce, Lam, Op, Var, const_int
from repro.core.types import BOOL, DYN, GROUND_FUN, INT, FunType, ProdType, types_equal
from repro.lambda_b.typecheck import type_of as type_b
from repro.lambda_c.coercions import (
    Fail,
    FunCoercion,
    Identity,
    Inject,
    ProdCoercion,
    Project,
    Sequence,
)
from repro.lambda_c.typecheck import type_of as type_c
from repro.properties.calculi import LAMBDA_C
from repro.properties.equivalence import contextually_equivalent, kleene_equivalent
from repro.translate.b_to_c import term_to_lambda_c
from repro.translate.c_to_b import (
    CastSpec,
    apply_cast_sequence,
    arrow_left,
    arrow_right,
    coercion_to_casts,
    concat,
    reverse_complement,
    term_to_lambda_b,
)

from .strategies import lambda_c_coercions

P = label("p")
Q = label("q")


class TestSequenceCombinators:
    def test_reverse_complement(self):
        seq = (CastSpec(INT, P, DYN), CastSpec(DYN, Q, BOOL))
        reversed_seq = reverse_complement(seq)
        assert reversed_seq == (
            CastSpec(BOOL, Q.complement(), DYN),
            CastSpec(DYN, P.complement(), INT),
        )

    def test_reverse_complement_is_involutive(self):
        seq = (CastSpec(INT, P, DYN), CastSpec(DYN, Q, BOOL))
        assert reverse_complement(reverse_complement(seq)) == seq

    def test_arrow_right_and_left(self):
        seq = (CastSpec(INT, P, DYN),)
        assert arrow_right(seq, BOOL) == (CastSpec(FunType(INT, BOOL), P, FunType(DYN, BOOL)),)
        assert arrow_left(BOOL, seq) == (CastSpec(FunType(BOOL, INT), P, FunType(BOOL, DYN)),)

    def test_concat_checks_the_meeting_type(self):
        first = (CastSpec(INT, P, DYN),)
        second = (CastSpec(DYN, Q, BOOL),)
        assert concat(first, second) == first + second
        from repro.core.errors import TypeCheckError
        import pytest

        with pytest.raises(TypeCheckError):
            concat(first, (CastSpec(BOOL, Q, DYN),))


class TestCoercionToCasts:
    def test_identity_translates_to_the_empty_sequence(self):
        assert coercion_to_casts(Identity(INT)) == ()

    def test_injection_uses_the_bullet_label(self):
        assert coercion_to_casts(Inject(INT)) == (CastSpec(INT, BULLET, DYN),)

    def test_projection_keeps_its_label(self):
        assert coercion_to_casts(Project(INT, P)) == (CastSpec(DYN, P, INT),)

    def test_sequence_concatenates(self):
        seq = coercion_to_casts(Sequence(Inject(INT), Project(BOOL, P)))
        assert seq == (CastSpec(INT, BULLET, DYN), CastSpec(DYN, P, BOOL))

    def test_function_coercion_splits_into_domain_and_codomain_casts(self):
        # (int?p → int!) : int→int ⇒ ?→?
        coercion = FunCoercion(Project(INT, P), Inject(INT))
        seq = coercion_to_casts(coercion)
        # Domain part: reverse-complemented projection lifted to function types.
        assert seq[0] == CastSpec(FunType(INT, INT), P.complement(), FunType(DYN, INT))
        # Codomain part: the injection on the result side.
        assert seq[1] == CastSpec(FunType(DYN, INT), BULLET, FunType(DYN, DYN))
        assert len(seq) == 2

    def test_product_coercion_splits_covariantly(self):
        coercion = ProdCoercion(Inject(INT), Inject(BOOL))
        seq = coercion_to_casts(coercion)
        assert seq == (
            CastSpec(ProdType(INT, BOOL), BULLET, ProdType(DYN, BOOL)),
            CastSpec(ProdType(DYN, BOOL), BULLET, ProdType(DYN, DYN)),
        )

    def test_fail_expands_to_the_lemma2_sequence(self):
        fail = Fail(INT, P, BOOL, source=INT, target=BOOL)
        seq = coercion_to_casts(fail)
        assert seq == (
            CastSpec(INT, BULLET, DYN),
            CastSpec(DYN, P, BOOL),
        ) or seq == (
            CastSpec(INT, BULLET, INT),
            CastSpec(INT, BULLET, DYN),
            CastSpec(DYN, P, BOOL),
            CastSpec(BOOL, BULLET, BOOL),
        )

    def test_fail_with_incompatible_target_routes_through_dyn(self):
        fail = Fail(INT, P, BOOL, source=INT, target=INT)
        seq = coercion_to_casts(fail)
        # The sequence must still be type-correct end to end.
        assert seq[0].source == INT and seq[-1].target == INT

    @given(lambda_c_coercions())
    def test_cast_sequences_are_type_correct_chains(self, generated):
        coercion, source, target = generated
        seq = coercion_to_casts(coercion)
        current = source
        for spec in seq:
            assert types_equal(spec.source, current)
            current = spec.target
        if seq:
            assert types_equal(current, target)

    @given(lambda_c_coercions())
    def test_every_run_time_label_of_the_coercion_survives_translation(self, generated):
        from repro.lambda_c.coercions import labels_of

        coercion, _, _ = generated
        translated_labels = set()
        for spec in coercion_to_casts(coercion):
            translated_labels.add(spec.label)
            translated_labels.add(spec.label.complement())
        for lbl in labels_of(coercion):
            assert lbl in translated_labels or lbl.complement() in translated_labels


class TestTermTranslationAndLemma8:
    def test_apply_cast_sequence_nests_innermost_first(self):
        seq = (CastSpec(INT, P, DYN), CastSpec(DYN, Q, BOOL))
        term = apply_cast_sequence(const_int(1), seq)
        assert term == Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q)

    def test_identity_coercion_disappears(self):
        term = Coerce(const_int(1), Identity(INT))
        assert term_to_lambda_b(term) == const_int(1)

    def test_round_trip_typing(self):
        term = Coerce(Lam("x", INT, Var("x")), FunCoercion(Project(INT, P), Inject(INT)))
        back = term_to_lambda_b(term)
        assert types_equal(type_b(back), type_c(term))

    def test_lemma8_on_a_first_order_round_trip(self):
        term_c = Coerce(const_int(3), Sequence(Inject(INT), Project(INT, P)))
        back_and_forth = term_to_lambda_c(term_to_lambda_b(term_c))
        assert kleene_equivalent(LAMBDA_C, term_c, LAMBDA_C, back_and_forth)

    def test_lemma8_on_a_failing_round_trip(self):
        term_c = Coerce(const_int(3), Sequence(Inject(INT), Project(BOOL, Q)))
        back_and_forth = term_to_lambda_c(term_to_lambda_b(term_c))
        assert kleene_equivalent(LAMBDA_C, term_c, LAMBDA_C, back_and_forth)

    def test_lemma8_on_a_higher_order_coercion(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        coercion = FunCoercion(Project(INT, P), Inject(INT))
        term_c = Coerce(double, coercion)
        back_and_forth = term_to_lambda_c(term_to_lambda_b(term_c))
        assert contextually_equivalent(
            LAMBDA_C, term_c, LAMBDA_C, back_and_forth, GROUND_FUN, depth=2
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lemma8_behavioural_on_random_coercions_applied_to_values(self, seed):
        """``||M|CB|BC`` is Kleene-equivalent to ``M`` for coerced base values."""
        from repro.gen.coercions_gen import random_coercion
        from repro.gen.terms_gen import TermGenerator

        rng = random.Random(seed)
        coercion, source, target = random_coercion(rng, length=3, depth=2)
        subject = TermGenerator(rng, max_depth=2).term(source)
        subject_c = term_to_lambda_c(subject)
        term_c = Coerce(subject_c, coercion)
        back_and_forth = term_to_lambda_c(term_to_lambda_b(term_c))
        assert types_equal(type_c(back_and_forth), type_c(term_c))
        assert contextually_equivalent(
            LAMBDA_C, term_c, LAMBDA_C, back_and_forth, target, depth=1
        )
