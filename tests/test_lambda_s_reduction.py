"""Tests for λS reduction (Figure 5): merge-first discipline, values, rules."""

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
    Op,
    Pair,
    Snd,
    Var,
    const_bool,
    const_int,
    max_adjacent_coercions,
)
from repro.core.types import BOOL, DYN, INT
from repro.lambda_s.coercions import (
    ID_DYN,
    FailS,
    FunCo,
    IdBase,
    Injection,
    ProdCo,
    Projection,
    compose,
)
from repro.lambda_s.reduction import run, step, trace
from repro.lambda_s.syntax import is_lambda_s_term, is_uncoerced_value, is_value, pending_coercion_size
from repro.lambda_s.typecheck import type_of
from repro.translate import b_to_s

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")

ID_INT = IdBase(INT)
INT_INJ = Injection(ID_INT, INT)
INT_PROJ = Projection(INT, P, ID_INT)
BOOL_PROJ = Projection(BOOL, Q, IdBase(BOOL))


class TestTypingAndValues:
    def test_coercion_application_typing(self):
        assert type_of(Coerce(const_int(1), INT_INJ)) == DYN

    def test_rejects_lambda_c_coercions(self):
        from repro.lambda_c.coercions import Identity

        with pytest.raises(TypeCheckError):
            type_of(Coerce(const_int(1), Identity(INT)))

    def test_rejects_casts(self):
        with pytest.raises(TypeCheckError):
            type_of(Cast(const_int(1), INT, DYN, P))

    def test_uncoerced_values(self):
        assert is_uncoerced_value(const_int(1))
        assert is_uncoerced_value(Lam("x", INT, Var("x")))
        assert is_uncoerced_value(Pair(const_int(1), const_bool(True)))
        assert not is_uncoerced_value(Coerce(const_int(1), INT_INJ))

    def test_values_carry_at_most_one_coercion(self):
        injected = Coerce(const_int(1), INT_INJ)
        assert is_value(injected)
        assert not is_value(Coerce(injected, Projection(INT, P, ID_INT)))

    def test_function_and_product_proxies_are_values(self):
        fun_proxy = Coerce(Lam("x", INT, Var("x")), FunCo(INT_PROJ, INT_INJ))
        assert is_value(fun_proxy)
        pair_proxy = Coerce(Pair(const_int(1), const_int(2)), ProdCo(INT_INJ, INT_INJ))
        assert is_value(pair_proxy)

    def test_identity_application_is_not_a_value(self):
        assert not is_value(Coerce(const_int(1), ID_INT))
        assert not is_value(Coerce(Coerce(const_int(1), INT_INJ), ID_DYN))

    def test_is_lambda_s_term(self):
        assert is_lambda_s_term(Coerce(const_int(1), INT_INJ))
        from repro.lambda_c.coercions import Identity

        assert not is_lambda_s_term(Coerce(const_int(1), Identity(INT)))

    def test_pending_coercion_size(self):
        term = Coerce(Coerce(const_int(1), INT_INJ), INT_PROJ)
        # (idι ; int!) has size 2 and (int?p ; idι) has size 2.
        assert pending_coercion_size(term) == 4


class TestMergeFirstDiscipline:
    def test_adjacent_coercions_merge(self):
        term = Coerce(Coerce(const_int(1), INT_INJ), INT_PROJ)
        assert step(term) == Coerce(const_int(1), compose(INT_INJ, INT_PROJ))
        assert step(term) == Coerce(const_int(1), ID_INT)

    def test_merge_has_priority_over_evaluating_the_subject(self):
        inner = Op("+", (const_int(1), const_int(1)))
        term = Coerce(Coerce(inner, INT_INJ), INT_PROJ)
        stepped = step(term)
        # The coercions merge before the addition is performed.
        assert stepped == Coerce(inner, ID_INT)

    def test_merge_of_mismatched_round_trip_produces_fail(self):
        inner = Op("+", (const_int(1), const_int(1)))
        term = Coerce(Coerce(inner, INT_INJ), BOOL_PROJ)
        stepped = step(term)
        assert isinstance(stepped, Coerce)
        assert stepped.coercion == FailS(INT, Q, BOOL)
        # The failure only fires once the subject is a value.
        outcome = run(term)
        assert outcome.is_blame and outcome.label == Q

    def test_evaluation_is_allowed_under_a_single_coercion(self):
        term = Coerce(Op("+", (const_int(1), const_int(1))), ID_INT)
        assert step(term) == Coerce(const_int(2), ID_INT)

    def test_the_chain_never_grows_beyond_the_static_bound(self):
        program = b_to_s(_boundary_roundtrip_program())
        bound = max(max_adjacent_coercions(program), 1) + 1
        for state in trace(program, 10_000):
            assert max_adjacent_coercions(state) <= bound


def _boundary_roundtrip_program():
    from repro.gen.programs import even_odd_boundary

    return even_odd_boundary(9)


class TestReductionRules:
    def test_identity_rules(self):
        assert step(Coerce(const_int(1), ID_INT)) == const_int(1)
        injected = Coerce(const_int(1), INT_INJ)
        assert step(Coerce(injected, ID_DYN)) == Coerce(const_int(1), compose(INT_INJ, ID_DYN))

    def test_fail_rule(self):
        assert step(Coerce(const_int(1), FailS(INT, P, BOOL))) == Blame(P)

    def test_function_proxy_application(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        proxy = Coerce(double, FunCo(INT_PROJ, INT_INJ))
        applied = App(proxy, Coerce(const_int(3), INT_INJ))
        stepped = step(applied)
        assert stepped == Coerce(App(double, Coerce(Coerce(const_int(3), INT_INJ), INT_PROJ)), INT_INJ)

    def test_product_proxy_projection(self):
        proxy = Coerce(Pair(const_int(1), const_int(2)), ProdCo(INT_INJ, ID_INT))
        assert step(Fst(proxy)) == Coerce(Fst(Pair(const_int(1), const_int(2))), INT_INJ)
        assert step(Snd(proxy)) == Coerce(Snd(Pair(const_int(1), const_int(2))), ID_INT)

    def test_projection_of_injected_value_via_merge(self):
        injected = Coerce(const_int(1), INT_INJ)
        term = Coerce(injected, INT_PROJ)
        outcome = run(term)
        assert outcome.is_value and outcome.term == const_int(1)

    def test_mismatched_projection_blames(self):
        injected = Coerce(const_int(1), INT_INJ)
        outcome = run(Coerce(injected, BOOL_PROJ))
        assert outcome.is_blame and outcome.label == Q

    def test_blame_collapses_context(self):
        term = Op("+", (Coerce(Blame(P), ID_INT), const_int(1)))
        assert step(term) == Blame(P)

    def test_standard_rules(self):
        assert step(If(const_bool(True), const_int(1), const_int(2))) == const_int(1)
        assert step(Op("*", (const_int(6), const_int(7)))) == const_int(42)

    def test_stuck_projection_of_uncoerced_value(self):
        with pytest.raises(StuckError):
            step(Coerce(const_int(1), INT_PROJ))


class TestRunAgainstLambdaB:
    @given(lambda_b_programs())
    def test_generated_programs_agree_with_lambda_b(self, program):
        from repro.core.terms import alpha_equal, erase
        from repro.lambda_b.reduction import run as run_b

        term_b, _ = program
        out_b = run_b(term_b, 20_000)
        out_s = run(b_to_s(term_b), 50_000)
        assert out_b.kind == out_s.kind
        if out_b.is_blame:
            assert out_b.label == out_s.label
        if out_b.is_value:
            assert alpha_equal(erase(out_b.term), erase(out_s.term))
