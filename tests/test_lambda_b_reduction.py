"""Tests for λB reduction (Figure 1): each rule, values, blame, and Lemma 2."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.errors import StuckError
from repro.core.labels import BULLET, label
from repro.core.terms import (
    App,
    Blame,
    Cast,
    Fix,
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
from repro.core.types import BOOL, DYN, GROUND_FUN, INT, FunType, ProdType, all_types, compatible, ground_of
from repro.lambda_b.embed import embed
from repro.lambda_b.reduction import blame_in_evaluation_position, run, step, trace
from repro.lambda_b.syntax import is_value
from repro.lambda_b.typecheck import type_of

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")
I2I = FunType(INT, INT)


class TestValues:
    def test_constants_and_lambdas_are_values(self):
        assert is_value(const_int(1))
        assert is_value(Lam("x", INT, Var("x")))

    def test_pairs_of_values_are_values(self):
        assert is_value(Pair(const_int(1), const_bool(True)))
        assert not is_value(Pair(Op("+", (const_int(1), const_int(1))), const_int(2)))

    def test_function_cast_of_value_is_a_value(self):
        proxy = Cast(Lam("x", INT, Var("x")), I2I, FunType(DYN, DYN), P)
        assert is_value(proxy)

    def test_product_cast_of_value_is_a_value(self):
        proxy = Cast(Pair(const_int(1), const_int(2)), ProdType(INT, INT), ProdType(DYN, DYN), P)
        assert is_value(proxy)

    def test_injection_of_value_is_a_value(self):
        assert is_value(Cast(const_int(1), INT, DYN, P))
        assert is_value(Cast(Lam("x", DYN, Var("x")), GROUND_FUN, DYN, P))

    def test_base_cast_is_not_a_value(self):
        assert not is_value(Cast(const_int(1), INT, INT, P))

    def test_projection_is_not_a_value(self):
        injected = Cast(const_int(1), INT, DYN, P)
        assert not is_value(Cast(injected, DYN, INT, Q))

    def test_blame_is_not_a_value(self):
        assert not is_value(Blame(P))


class TestCastRules:
    def test_identity_base_cast(self):
        assert step(Cast(const_int(1), INT, INT, P)) == const_int(1)

    def test_identity_dyn_cast(self):
        injected = Cast(const_int(1), INT, DYN, P)
        assert step(Cast(injected, DYN, DYN, Q)) == injected

    def test_function_cast_applied(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        proxy = Cast(double, I2I, FunType(DYN, DYN), P)
        applied = App(proxy, Cast(const_int(3), INT, DYN, Q))
        stepped = step(applied)
        # (V : int→int ⇒p ?→?) W  →  (V (W : ? ⇒p̄ int)) : int ⇒p ?
        assert stepped == Cast(
            App(double, Cast(Cast(const_int(3), INT, DYN, Q), DYN, INT, P.complement())),
            INT,
            DYN,
            P,
        )

    def test_injection_factoring(self):
        fun = Lam("x", INT, Var("x"))
        cast = Cast(fun, I2I, DYN, P)
        stepped = step(cast)
        assert stepped == Cast(Cast(fun, I2I, GROUND_FUN, P), GROUND_FUN, DYN, P)

    def test_projection_factoring(self):
        injected = Cast(Cast(Lam("x", DYN, Var("x")), GROUND_FUN, DYN, P), DYN, I2I, Q)
        stepped = step(injected)
        assert stepped == Cast(
            Cast(Cast(Lam("x", DYN, Var("x")), GROUND_FUN, DYN, P), DYN, GROUND_FUN, Q),
            GROUND_FUN,
            I2I,
            Q,
        )

    def test_collapse_matching_ground_types(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q)
        assert step(term) == const_int(1)

    def test_mismatched_ground_types_blame_the_outer_label(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q)
        assert step(term) == Blame(Q)

    def test_product_cast_pushes_through_fst(self):
        pair_proxy = Cast(Pair(const_int(1), const_int(2)), ProdType(INT, INT), ProdType(DYN, INT), P)
        assert step(Fst(pair_proxy)) == Cast(Fst(Pair(const_int(1), const_int(2))), INT, DYN, P)

    def test_product_cast_pushes_through_snd(self):
        pair_proxy = Cast(Pair(const_int(1), const_int(2)), ProdType(INT, INT), ProdType(INT, DYN), P)
        assert step(Snd(pair_proxy)) == Cast(Snd(Pair(const_int(1), const_int(2))), INT, DYN, P)


class TestStandardRules:
    def test_beta(self):
        term = App(Lam("x", INT, Op("+", (Var("x"), const_int(1)))), const_int(2))
        assert step(term) == Op("+", (const_int(2), const_int(1)))

    def test_operator_application(self):
        assert step(Op("+", (const_int(2), const_int(3)))) == const_int(5)

    def test_if_true_false(self):
        assert step(If(const_bool(True), const_int(1), const_int(2))) == const_int(1)
        assert step(If(const_bool(False), const_int(1), const_int(2))) == const_int(2)

    def test_let(self):
        assert step(Let("x", const_int(1), Var("x"))) == const_int(1)

    def test_pair_projections(self):
        pair = Pair(const_int(1), const_int(2))
        assert step(Fst(pair)) == const_int(1)
        assert step(Snd(pair)) == const_int(2)

    def test_fix_unrolls(self):
        fun_type = I2I
        functional = Lam("f", fun_type, Lam("x", INT, Var("x")))
        stepped = step(Fix(functional, fun_type))
        assert isinstance(stepped, App)
        assert stepped.fun == functional

    def test_left_to_right_evaluation_order(self):
        term = Op("+", (Op("+", (const_int(1), const_int(1))), Op("+", (const_int(2), const_int(2)))))
        stepped = step(term)
        assert stepped == Op("+", (const_int(2), Op("+", (const_int(2), const_int(2)))))

    def test_values_do_not_step(self):
        assert step(const_int(1)) is None
        assert step(Lam("x", INT, Var("x"))) is None
        assert step(Blame(P)) is None

    def test_stuck_term_raises(self):
        with pytest.raises(StuckError):
            step(App(const_int(1), const_int(2)))


class TestBlamePropagation:
    def test_blame_in_evaluation_position_is_found(self):
        term = Op("+", (Blame(P), const_int(1)))
        assert blame_in_evaluation_position(term) == P

    def test_blame_not_in_evaluation_position(self):
        term = Op("+", (Op("+", (const_int(1), const_int(1))), Blame(P)))
        assert blame_in_evaluation_position(term) is None

    def test_blame_collapses_the_whole_context_in_one_step(self):
        term = Op("+", (App(Lam("x", INT, Var("x")), Blame(P)), const_int(1)))
        assert step(term) == Blame(P)

    def test_blame_under_a_lambda_does_not_propagate(self):
        term = Lam("x", INT, Blame(P))
        assert step(term) is None

    def test_blame_in_cast_position(self):
        term = Cast(Blame(P), INT, DYN, Q)
        assert step(term) == Blame(P)


class TestFailureLemma:
    def test_lemma2_exhaustive_on_small_types(self):
        """Lemma 2: V : A ⇒ G ⇒ ? ⇒p3 H ⇒ B  reduces to blame p3 when G ≠ H."""
        grounds = [INT, BOOL, GROUND_FUN]
        small = [t for t in all_types(2) if not t == DYN]
        p1, p2, p3, p4 = label("p1"), label("p2"), label("p3"), label("p4")
        checked = 0
        for a in small:
            g = ground_of(a)
            for h in grounds:
                if g == h:
                    continue
                for b in small:
                    if not compatible(h, b):
                        continue
                    value = _canonical_value(a)
                    term = Cast(
                        Cast(Cast(Cast(value, a, g, p1), g, DYN, p2), DYN, h, p3), h, b, p4
                    )
                    outcome = run(term, 100)
                    assert outcome.is_blame and outcome.label == p3, (a, g, h, b, outcome)
                    checked += 1
        assert checked > 20


def _canonical_value(ty):
    """A closed value of the given type, for the failure-lemma sweep."""
    if ty == INT:
        return const_int(0)
    if ty == BOOL:
        return const_bool(True)
    if isinstance(ty, FunType):
        return Lam("x", ty.dom, _dummy_of(ty.cod))
    if isinstance(ty, ProdType):
        return Pair(_canonical_value(ty.left), _canonical_value(ty.right))
    if ty == DYN:
        return Cast(const_int(0), INT, DYN, BULLET)
    raise AssertionError(ty)


def _dummy_of(ty):
    if isinstance(ty, (FunType, ProdType)) or ty == DYN:
        return _canonical_value(ty)
    return _canonical_value(ty)


class TestRunAndTrace:
    def test_run_to_value(self):
        outcome = run(Op("*", (const_int(6), const_int(7))))
        assert outcome.is_value and outcome.term == const_int(42)

    def test_run_to_blame(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q)
        outcome = run(term)
        assert outcome.is_blame and outcome.label == Q

    def test_run_timeout_on_divergence(self):
        omega_fun = Lam("f", I2I, Lam("x", INT, App(Var("f"), Var("x"))))
        diverging = App(Fix(omega_fun, I2I), const_int(0))
        outcome = run(diverging, fuel=200)
        assert outcome.is_timeout

    def test_trace_starts_with_the_term_and_ends_with_the_result(self):
        term = Op("+", (const_int(1), const_int(1)))
        steps = list(trace(term))
        assert steps[0] == term
        assert steps[-1] == const_int(2)

    def test_outcome_str(self):
        assert "value" in str(run(const_int(1)))
        assert "blame" in str(run(Blame(P)))

    @given(lambda_b_programs())
    def test_every_generated_program_terminates_cleanly(self, program):
        term, ty = program
        outcome = run(term, fuel=20_000)
        assert outcome.is_value or outcome.is_blame
        if outcome.is_value:
            assert is_value(outcome.term)
            # Preservation at the end of the run.
            from repro.core.types import types_equal, UnknownType

            final = type_of(outcome.term)
            assert isinstance(final, UnknownType) or types_equal(final, ty)


class TestEmbedding:
    def test_embedded_constant(self):
        term = embed(const_int(5))
        assert type_of(term) == DYN
        outcome = run(term)
        assert outcome.is_value

    def test_embedded_application(self):
        program = App(Lam("x", DYN, Op("+", (Var("x"), const_int(1)))), const_int(41))
        term = embed(program)
        assert type_of(term) == DYN
        outcome = run(term)
        assert outcome.is_value
        from repro.core.terms import erase

        assert erase(outcome.term) == const_int(42)

    def test_embedded_dynamic_type_error_blames(self):
        # (1 2) — applying a number — must blame some label, not get stuck.
        program = App(const_int(1), const_int(2))
        outcome = run(embed(program))
        assert outcome.is_blame

    def test_embedded_if_and_pair(self):
        program = If(const_bool(True), Fst(Pair(const_int(1), const_int(2))), const_int(9))
        outcome = run(embed(program))
        assert outcome.is_value

    def test_embedding_rejects_casts(self):
        from repro.core.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            embed(Cast(const_int(1), INT, DYN, P))

    def test_embedded_terms_are_well_typed(self):
        program = Let("f", Lam("x", DYN, Var("x")), App(Var("f"), const_bool(True)))
        assert type_of(embed(program)) == DYN
