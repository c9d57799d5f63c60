"""Tests for the Fundamental Property of Casts (Section 5.2, Lemmas 20 and 21)."""

from __future__ import annotations

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import label
from repro.core.subtyping import meet
from repro.core.terms import Lam, Op, Var, const_int
from repro.core.types import BOOL, DYN, INT, FunType, all_types, compatible
from repro.properties.casts import (
    applicable,
    candidate_mediating_types,
    check_lemma20,
    check_lemma21,
)
from repro.gen.terms_gen import TermGenerator

P = label("p")

SMALL_TYPES = all_types(2)
I2I = FunType(INT, INT)


class TestHypothesis:
    def test_applicable_requires_compatibility_and_the_meet_condition(self):
        assert applicable(INT, DYN, INT)
        assert applicable(I2I, DYN, FunType(DYN, INT))
        assert not applicable(INT, BOOL, INT)      # int and bool are incompatible
        assert not applicable(INT, DYN, BOOL)      # int & ? = int is not <:n bool

    def test_candidate_mediating_types(self):
        candidates = candidate_mediating_types(INT, DYN, SMALL_TYPES)
        assert INT in candidates and DYN in candidates
        assert BOOL not in candidates

    def test_the_meet_itself_is_always_a_candidate_when_bottom_free(self):
        for a, b in itertools.product(SMALL_TYPES, repeat=2):
            if not compatible(a, b):
                continue
            lower = meet(a, b)
            from repro.core.subtyping import contains_bottom

            if contains_bottom(lower):
                continue
            assert applicable(a, b, lower)


class TestLemma20:
    def test_exhaustive_over_small_types(self):
        """|A ⇒p B|BS  =  |A ⇒p C|BS # |C ⇒p B|BS  whenever A & B <:n C."""
        checked = 0
        for a, b, c in itertools.product(SMALL_TYPES, repeat=3):
            if not applicable(a, b, c):
                continue
            report = check_lemma20(a, P, b, c)
            assert report.ok, (a, b, c, report.reason)
            checked += 1
        assert checked > 100

    def test_through_the_dynamic_type(self):
        assert check_lemma20(INT, P, INT, DYN).ok
        assert check_lemma20(I2I, P, FunType(DYN, INT), DYN).ok

    def test_fails_when_the_hypothesis_fails(self):
        report = check_lemma20(INT, P, DYN, BOOL)
        assert not report.ok

    def test_counterexample_without_the_meet_condition(self):
        """Dropping the hypothesis breaks the identity: going through an
        unrelated ground type inserts a failure coercion."""
        from repro.lambda_s.coercions import compose
        from repro.translate.b_to_s import cast_to_space

        direct = cast_to_space(INT, P, DYN)
        through_bool = compose(cast_to_space(INT, P, DYN), cast_to_space(DYN, P, BOOL))
        assert direct != through_bool


class TestLemma21:
    def test_first_order_instances(self):
        subject = const_int(7)
        for b, c in [(DYN, INT), (DYN, DYN), (INT, INT)]:
            report = check_lemma21(subject, INT, P, b, c, probe=False)
            assert report.ok, report.reason

    def test_higher_order_instance(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        report = check_lemma21(double, I2I, P, DYN, FunType(DYN, INT))
        assert report.ok, report.reason

    def test_rejects_inapplicable_triples(self):
        assert not check_lemma21(const_int(1), INT, P, DYN, BOOL).ok

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        generator = TermGenerator(rng, max_depth=2)
        # Draw a compatible triple satisfying the hypothesis.
        for _ in range(20):
            a = rng.choice(SMALL_TYPES)
            b = rng.choice([t for t in SMALL_TYPES if compatible(a, t)])
            candidates = candidate_mediating_types(a, b, SMALL_TYPES)
            if not candidates:
                continue
            c = rng.choice(candidates)
            subject = generator.term(a)
            report = check_lemma21(subject, a, P, b, c, probe=False, fuel=5_000)
            assert report.ok, (a, b, c, report.reason)
            return
