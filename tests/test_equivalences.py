"""Tests for the coercion equivalences of Lemma 7 / Lemma 19 (Section 5.1).

The paper proves these contextual equivalences in λC by translating both
sides to λS and appealing to full abstraction.  We check them the same way —
the λS normal forms coincide syntactically — and additionally check them
behaviourally with probing contexts.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import label
from repro.core.terms import Coerce, Lam, Op, Var, const_int
from repro.core.types import BOOL, DYN, GROUND_FUN, INT
from repro.lambda_c.coercions import (
    FunCoercion,
    Identity,
    Inject,
    Project,
    Sequence,
)
from repro.properties.calculi import LAMBDA_C
from repro.properties.equivalence import contextually_equivalent, kleene_equivalent
from repro.translate.c_to_s import coercion_to_space

from .strategies import lambda_c_coercions

P = label("p")
Q = label("q")


def _canonical(coercion):
    return coercion_to_space(coercion)


class TestLemma19Syntactic:
    """Each clause, checked on the λS normal forms (the paper's own proof route)."""

    @given(lambda_c_coercions())
    def test_clause_3_identity_units(self, generated):
        c, source, target = generated
        assert _canonical(Sequence(c, Identity(target))) == _canonical(c)
        assert _canonical(Sequence(Identity(source), c)) == _canonical(c)

    @given(lambda_c_coercions(length=2), lambda_c_coercions(length=2))
    def test_clause_4_function_compositions_merge(self, left, right):
        c, c_src, c_tgt = left
        d, d_src, d_tgt = right
        lhs = Sequence(FunCoercion(c, d), FunCoercion(Identity(c_src), Identity(d_tgt)))
        rhs = FunCoercion(Sequence(Identity(c_src), c), Sequence(d, Identity(d_tgt)))
        assert _canonical(lhs) == _canonical(rhs)

    @given(lambda_c_coercions(length=2), lambda_c_coercions(length=2))
    def test_clause_5_factor_through_domain(self, left, right):
        c, c_src, c_tgt = left
        d, d_src, d_tgt = right
        # c → d  ≃  (c → id) ; (id → d)
        fun = FunCoercion(c, d)
        factored = Sequence(FunCoercion(c, Identity(d_src)), FunCoercion(Identity(c_src), d))
        assert _canonical(fun) == _canonical(factored)

    @given(lambda_c_coercions(length=2), lambda_c_coercions(length=2))
    def test_clause_6_factor_through_codomain(self, left, right):
        c, c_src, c_tgt = left
        d, d_src, d_tgt = right
        # c → d  ≃  (id → d) ; (c → id)
        fun = FunCoercion(c, d)
        factored = Sequence(FunCoercion(Identity(c_tgt), d), FunCoercion(c, Identity(d_tgt)))
        assert _canonical(fun) == _canonical(factored)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_composition_is_associative_up_to_normal_form(self, seed):
        """The associativity headache of Herman et al., dissolved by canonical forms."""
        from repro.gen.coercions_gen import random_coercion

        rng = random.Random(seed)
        c1, a, b = random_coercion(rng, length=2)
        c2, _, c_mid = random_coercion(rng, length=2, start=b)
        c3, _, _ = random_coercion(rng, length=2, start=c_mid)
        left = Sequence(Sequence(c1, c2), c3)
        right = Sequence(c1, Sequence(c2, c3))
        assert _canonical(left) == _canonical(right)


class TestLemma7Behavioural:
    """Clauses 1 and 2 of Lemma 7, checked by running both sides."""

    def test_identity_application_is_equivalent_to_nothing(self):
        term = const_int(3)
        assert kleene_equivalent(
            LAMBDA_C, Coerce(term, Identity(INT)), LAMBDA_C, term
        )

    def test_composition_application_splits(self):
        c = Inject(INT)
        d = Project(INT, P)
        lhs = Coerce(const_int(3), Sequence(c, d))
        rhs = Coerce(Coerce(const_int(3), c), d)
        assert kleene_equivalent(LAMBDA_C, lhs, LAMBDA_C, rhs)

    def test_composition_application_splits_when_failing(self):
        c = Inject(INT)
        d = Project(BOOL, Q)
        lhs = Coerce(const_int(3), Sequence(c, d))
        rhs = Coerce(Coerce(const_int(3), c), d)
        assert kleene_equivalent(LAMBDA_C, lhs, LAMBDA_C, rhs)

    def test_function_factoring_behaves_identically(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        c, d = Project(INT, P), Inject(INT)
        fun = Coerce(double, FunCoercion(c, d))
        factored = Coerce(
            double,
            Sequence(FunCoercion(c, Identity(INT)), FunCoercion(Identity(DYN), d)),
        )
        assert contextually_equivalent(LAMBDA_C, fun, LAMBDA_C, factored, GROUND_FUN, depth=2)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_lemma7_clause2_on_random_coercions_and_subjects(self, seed):
        from repro.gen.coercions_gen import random_coercion
        from repro.gen.terms_gen import TermGenerator

        rng = random.Random(seed)
        c, a, b = random_coercion(rng, length=2, depth=2)
        d, _, target = random_coercion(rng, length=2, depth=2, start=b)
        subject = TermGenerator(rng, max_depth=2).term(a)
        from repro.translate.b_to_c import term_to_lambda_c

        subject_c = term_to_lambda_c(subject)
        lhs = Coerce(subject_c, Sequence(c, d))
        rhs = Coerce(Coerce(subject_c, c), d)
        assert kleene_equivalent(LAMBDA_C, lhs, LAMBDA_C, rhs)
