"""Tests for the CEK abstract machines: correctness against the small-step
semantics and the space-profiling claims."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.labels import label
from repro.core.terms import App, Cast, Const, Lam, Op, Var, const_int, erase
from repro.core.types import BOOL, DYN, INT, FunType
from repro.gen.programs import (
    even_odd_all_typed,
    even_odd_boundary,
    even_odd_expected,
    fib_boundary,
    fib_expected,
    pair_boundary_swap,
    safe_boundary_program,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.lambda_b.reduction import run as run_b_small_step
from repro.machine import MACHINE_B, MACHINE_C, MACHINE_S, MACHINES, run_on_machine
from repro.machine.values import MConst, MPair, MProxy, machine_value_to_python, proxy_depth

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")


class TestMachineValues:
    def test_python_projection_of_constants_and_pairs(self):
        value = MPair(MConst(1, INT), MConst(True, BOOL))
        assert machine_value_to_python(value) == (1, True)

    def test_python_projection_unwraps_proxies(self):
        value = MProxy(MConst(1, INT), mediator=None)
        assert machine_value_to_python(value) == 1

    def test_proxy_depth(self):
        value = MProxy(MProxy(MConst(1, INT), None), None)
        assert proxy_depth(value) == 2


class TestOutcomesMatchTheSmallStepSemantics:
    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_simple_value(self, calculus):
        term = Op("+", (const_int(40), const_int(2)))
        outcome = run_on_machine(term, calculus)
        assert outcome.is_value and outcome.python_value() == 42

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_first_order_round_trip(self, calculus):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q)
        assert run_on_machine(term, calculus).python_value() == 1

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_failed_projection_blames_the_right_label(self, calculus):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q)
        outcome = run_on_machine(term, calculus)
        assert outcome.is_blame and outcome.label == Q

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_higher_order_proxies(self, calculus):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        proxied = Cast(Cast(double, FunType(INT, INT), DYN, P), DYN, FunType(INT, INT), Q)
        outcome = run_on_machine(App(proxied, const_int(5)), calculus)
        assert outcome.python_value() == 10

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_negative_blame(self, calculus):
        outcome = run_on_machine(untyped_client_bad_argument("edge"), calculus)
        assert outcome.is_blame and outcome.label == label("edge").complement()

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_pairs_across_the_boundary(self, calculus):
        outcome = run_on_machine(pair_boundary_swap(), calculus)
        assert outcome.python_value() == (7, True)

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_recursion_through_fix(self, calculus):
        outcome = run_on_machine(fib_boundary(10), calculus)
        assert outcome.python_value() == fib_expected(10)

    def test_timeout_reported(self):
        loop = Lam("f", FunType(INT, INT), Lam("x", INT, App(Var("f"), Var("x"))))
        from repro.core.terms import Fix

        diverging = App(Fix(loop, FunType(INT, INT)), const_int(0))
        outcome = MACHINE_B.run(diverging, fuel=500)
        assert outcome.is_timeout

    @given(lambda_b_programs())
    @settings(max_examples=40)
    def test_agreement_with_the_small_step_reducer_on_generated_programs(self, program):
        term, _ = program
        reference = run_b_small_step(term, 20_000)
        for calculus in ("B", "C", "S"):
            outcome = run_on_machine(term, calculus)
            assert outcome.kind == reference.kind
            if reference.is_blame:
                assert outcome.label == reference.label
            if reference.is_value:
                erased = erase(reference.term)
                if isinstance(erased, Const):
                    assert outcome.python_value() == erased.value

    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    def test_workload_results(self, calculus):
        assert run_on_machine(even_odd_boundary(9), calculus).python_value() is even_odd_expected(9)
        assert run_on_machine(typed_loop_untyped_step(20), calculus).python_value() == 0
        assert run_on_machine(twice_boundary(5), calculus).python_value() == 7
        assert run_on_machine(safe_boundary_program(), calculus).python_value() == 8
        assert run_on_machine(untyped_library_bad_result(), calculus).is_blame


class TestSpaceProfile:
    """The quantitative space claims of Section 1 / Herman et al."""

    def test_pending_mediators_grow_linearly_without_merging(self):
        small = run_on_machine(even_odd_boundary(50), "B").stats
        large = run_on_machine(even_odd_boundary(200), "B").stats
        assert large["max_pending_mediators"] >= 4 * small["max_pending_mediators"] * 0.9

    def test_pending_mediators_grow_in_lambda_c_too(self):
        small = run_on_machine(even_odd_boundary(50), "C").stats
        large = run_on_machine(even_odd_boundary(200), "C").stats
        assert large["max_pending_mediators"] > small["max_pending_mediators"]

    def test_pending_mediators_are_constant_in_lambda_s(self):
        small = run_on_machine(even_odd_boundary(50), "S").stats
        large = run_on_machine(even_odd_boundary(800), "S").stats
        assert large["max_pending_mediators"] == small["max_pending_mediators"]
        assert large["max_pending_size"] == small["max_pending_size"]

    def test_lambda_s_matches_the_fully_typed_control(self):
        boundary = run_on_machine(even_odd_boundary(300), "S").stats
        control = run_on_machine(even_odd_all_typed(300), "S").stats
        # Same asymptotics: both bounded by a small constant.
        assert boundary["max_pending_mediators"] <= control["max_pending_mediators"] + 3
        assert boundary["max_kont_depth"] <= control["max_kont_depth"] + 3

    def test_space_gap_grows_with_the_number_of_calls(self):
        n = 400
        stats_b = run_on_machine(even_odd_boundary(n), "B").stats
        stats_s = run_on_machine(even_odd_boundary(n), "S").stats
        assert stats_b["max_pending_mediators"] > n
        assert stats_s["max_pending_mediators"] <= 4

    def test_merges_happen_only_on_the_space_machine(self):
        stats_b = run_on_machine(even_odd_boundary(40), "B").stats
        stats_s = run_on_machine(even_odd_boundary(40), "S").stats
        assert stats_b["merges"] == 0
        assert stats_s["merges"] > 0

    def test_stats_are_reported_for_blame_outcomes_too(self):
        outcome = run_on_machine(untyped_library_bad_result(), "S")
        assert outcome.is_blame and outcome.stats["steps"] > 0


class TestMachineRegistry:
    def test_machines_exposes_all_three(self):
        assert set(MACHINES) == {"B", "C", "S"}
        assert MACHINES["B"] is MACHINE_B
        assert MACHINES["C"] is MACHINE_C
        assert MACHINES["S"] is MACHINE_S

    def test_unknown_calculus_rejected(self):
        with pytest.raises(ValueError):
            run_on_machine(const_int(1), "X")

    def test_python_value_of_non_value_outcome_raises(self):
        from repro.core.errors import EvaluationError

        outcome = run_on_machine(untyped_library_bad_result(), "B")
        with pytest.raises(EvaluationError):
            outcome.python_value()
