"""Tests for λB blame safety (Figure 2, Proposition 5) at the term level."""

from __future__ import annotations

from repro.core.labels import label
from repro.core.terms import Blame, Cast, Lam, Op, Var, const_int
from repro.core.types import DYN, INT, FunType
from repro.gen.programs import (
    safe_boundary_program,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.lambda_b.reduction import run
from repro.lambda_b.safety import cast_is_safe, safe_labels_among, term_safe_for, unsafe_labels

P = label("p")
Q = label("q")
I2I = FunType(INT, INT)


class TestCastSafety:
    def test_injection_is_safe_for_its_label(self):
        cast = Cast(const_int(1), INT, DYN, P)
        assert cast_is_safe(cast, P)

    def test_projection_is_unsafe_for_its_label_but_safe_for_the_complement(self):
        cast = Cast(Cast(const_int(1), INT, DYN, Q), DYN, INT, P)
        assert not cast_is_safe(cast, P)
        assert cast_is_safe(cast, P.complement())

    def test_any_cast_is_safe_for_unrelated_labels(self):
        cast = Cast(const_int(1), INT, DYN, P)
        assert cast_is_safe(cast, Q)
        assert cast_is_safe(cast, Q.complement())

    def test_higher_order_export_is_safe_positively_but_not_negatively(self):
        # int→int <:+ ?  but not  int→int <:− ?  (the context may pass a bad argument).
        cast = Cast(Lam("x", INT, Var("x")), I2I, DYN, P)
        assert cast_is_safe(cast, P)
        assert not cast_is_safe(cast, P.complement())


class TestTermSafety:
    def test_term_safety_collects_all_casts(self):
        term = Op(
            "+",
            (
                Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q),
                const_int(1),
            ),
        )
        assert term_safe_for(term, P)           # injection cannot blame p
        assert not term_safe_for(term, Q)       # the projection may blame q
        assert term_safe_for(term, Q.complement())

    def test_blame_nodes_make_a_term_unsafe_for_that_label(self):
        assert not term_safe_for(Blame(P), P)
        assert term_safe_for(Blame(P), Q)

    def test_unsafe_labels_of_a_projection(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q)
        assert Q in unsafe_labels(term)
        assert P not in unsafe_labels(term)

    def test_safe_labels_among(self):
        # A first-order injection can blame neither side: int <:+ ? and int <:− ?.
        injection = Cast(const_int(1), INT, DYN, P)
        labels = {P, P.complement(), Q}
        assert safe_labels_among(injection, labels) == {P, P.complement(), Q}
        # A projection may blame its own label but never the complement.
        projection = Cast(injection, DYN, INT, Q)
        assert safe_labels_among(projection, {Q, Q.complement()}) == {Q.complement()}


class TestWellTypedProgramsCantBeBlamed:
    """End-to-end checks of the slogan on the library/client scenarios."""

    def test_positive_blame_falls_on_the_untyped_library(self):
        program = untyped_library_bad_result("boundary")
        outcome = run(program)
        assert outcome.is_blame
        assert outcome.label == label("boundary")
        # The typed client's side of the contract (negative blame) is safe.
        assert term_safe_for(program, label("boundary").complement())

    def test_negative_blame_falls_on_the_untyped_client(self):
        program = untyped_client_bad_argument("boundary")
        outcome = run(program)
        assert outcome.is_blame
        assert outcome.label == label("boundary").complement()
        # The typed library's side of the contract (positive blame) is safe.
        assert term_safe_for(program, label("boundary"))

    def test_casts_from_precise_types_never_blame(self):
        program = safe_boundary_program("boundary")
        assert term_safe_for(program, label("boundary"))
        outcome = run(program)
        assert outcome.is_value

    def test_statically_safe_labels_are_never_blamed_at_runtime(self):
        for program in (
            untyped_library_bad_result("b"),
            untyped_client_bad_argument("b"),
            safe_boundary_program("b"),
        ):
            outcome = run(program)
            if outcome.is_blame:
                assert not term_safe_for(program, outcome.label)
