"""Tests for the bisimulations between the calculi (Propositions 11 and 16)."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.compiler.rvm import RVM
from repro.compiler.vm import VM
from repro.core.labels import label
from repro.core.terms import App, Cast, Lam, Op, Var, const_int
from repro.core.types import BOOL, DYN, INT, FunType
from repro.gen.programs import (
    even_odd_boundary,
    fib_boundary,
    let_chain_boundary,
    pair_boundary_swap,
    safe_boundary_program,
    tail_countdown_boundary,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.machine.cek import CEKMachine
from repro.machine.values import MConst
from repro.properties.bisimulation import (
    check_lockstep_b_c,
    check_oracle_matrix,
    check_outcomes_b_c_s,
    check_outcomes_c_s,
)
from repro.semantics import SEMANTICS
from repro.translate.b_to_c import term_to_lambda_c

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")


class TestLockstepBisimulation:
    """Proposition 11: λB and λC run in lockstep under |·|BC."""

    def test_first_order_round_trip(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q)
        assert check_lockstep_b_c(term)

    def test_failing_round_trip(self):
        term = Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q)
        assert check_lockstep_b_c(term)

    def test_higher_order_proxy(self):
        double = Lam("x", INT, Op("*", (Var("x"), const_int(2))))
        proxied = Cast(Cast(double, FunType(INT, INT), DYN, P), DYN, FunType(INT, INT), Q)
        assert check_lockstep_b_c(App(proxied, const_int(5)))

    def test_factoring_steps_match(self):
        term = Cast(Lam("x", INT, Var("x")), FunType(INT, INT), DYN, P)
        assert check_lockstep_b_c(App(Cast(term, DYN, FunType(INT, INT), Q), const_int(1)))

    @given(lambda_b_programs())
    def test_lockstep_on_generated_programs(self, program):
        term, _ = program
        report = check_lockstep_b_c(term, fuel=4_000)
        assert report.ok, report.reason

    def test_lockstep_on_the_boundary_workloads(self):
        for program in (
            even_odd_boundary(5),
            typed_loop_untyped_step(3),
            twice_boundary(2),
            untyped_library_bad_result(),
            untyped_client_bad_argument(),
            safe_boundary_program(),
            pair_boundary_swap(),
        ):
            report = check_lockstep_b_c(program, fuel=4_000)
            assert report.ok, report.reason


class TestOutcomeBisimulationCS:
    """Proposition 16: λC and λS agree observationally (not lockstep)."""

    def test_round_trips(self):
        for term_b in (
            Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, Q),
            Cast(Cast(const_int(1), INT, DYN, P), DYN, BOOL, Q),
        ):
            report = check_outcomes_c_s(term_to_lambda_c(term_b))
            assert report.ok, report.reason

    def test_step_counts_differ_but_outcomes_agree(self):
        term_b = even_odd_boundary(6)
        report = check_outcomes_c_s(term_to_lambda_c(term_b))
        assert report.ok
        # λS takes extra merge steps; λC takes extra composition-splitting steps.
        assert report.steps_left != 0 and report.steps_right != 0

    @given(lambda_b_programs())
    def test_outcomes_on_generated_programs(self, program):
        term, _ = program
        report = check_outcomes_c_s(term_to_lambda_c(term), fuel=30_000)
        assert report.ok, report.reason

    def test_transient_chain_through_a_dissolving_let(self):
        """Regression: a let that binds a coerced value and is used under a
        coercion, itself sitting under a program coercion.  When the let
        dissolves, three previously separated chains fuse into ``2·static + 1``
        adjacent coercions for one step before the priority merges collapse
        them — the space checker must tolerate exactly that transient."""
        from repro.core.terms import Let

        inner = Let(
            "f",
            Cast(Lam("x", BOOL, Var("x")), FunType(BOOL, BOOL), FunType(BOOL, BOOL), P),
            Cast(Var("f"), FunType(BOOL, BOOL), DYN, Q),
        )
        program = App(
            Cast(inner, DYN, FunType(INT, DYN), label("r")),
            const_int(3),
        )
        report = check_outcomes_c_s(term_to_lambda_c(program), fuel=5_000)
        assert report.ok, report.reason

    def test_outcomes_on_the_boundary_workloads(self):
        for program in (
            even_odd_boundary(8),
            typed_loop_untyped_step(4),
            fib_boundary(6),
            twice_boundary(3),
            untyped_library_bad_result(),
            untyped_client_bad_argument(),
            pair_boundary_swap(),
        ):
            report = check_outcomes_c_s(term_to_lambda_c(program), fuel=60_000)
            assert report.ok, report.reason


class TestVMOracle:
    """Every engine × semantics × ``-O`` cell against the others and against
    the oracles: the CEK machine and the λS substitution reducer."""

    def test_vm_oracle_on_the_boundary_workloads(self):
        for program in (
            even_odd_boundary(8),
            typed_loop_untyped_step(4),
            fib_boundary(6),
            twice_boundary(3),
            untyped_library_bad_result(),
            untyped_client_bad_argument(),
            safe_boundary_program(),
            pair_boundary_swap(),
        ):
            report = check_oracle_matrix(program)
            assert report.ok, report.reason

    def test_vm_oracle_on_the_vm_stress_shapes(self):
        # The let-heavy and deep tail-recursive generators added for the VM.
        for program in (
            tail_countdown_boundary(40),
            tail_countdown_boundary(0),
            let_chain_boundary(30),
            let_chain_boundary(0),
        ):
            report = check_oracle_matrix(program)
            assert report.ok, report.reason

    @given(lambda_b_programs())
    @settings(max_examples=30)
    def test_vm_oracle_on_generated_programs(self, program):
        term, _ = program
        report = check_oracle_matrix(term)
        assert report.ok, report.reason


def _bump(stat: str, by: int):
    return lambda outcome: replace(
        outcome, stats={**outcome.stats, stat: outcome.stats[stat] + by})


def _int_plus_one(outcome):
    value = outcome.value
    if outcome.is_value and isinstance(value, MConst) and type(value.value) is int:
        return replace(outcome, value=MConst(value.value + 1, value.type))
    return outcome


def _value_to_blame(outcome):
    if outcome.is_value:
        return replace(outcome, kind="blame", value=None, label=label("seeded"))
    return outcome


#: Seeded engine defects: the engine class, the semantics and -O level of
#: the cell it is planted in (no level for the machine), and what it does to
#: the outcome of a run in that cell.
SEEDED_DEFECTS = {
    "rvm/coercion/-O2 max_pending_mediators +1": (
        RVM, "coercion", 2, _bump("max_pending_mediators", 1)),
    "vm/coercion/-O2 max_pending_mediators +5": (
        VM, "coercion", 2, _bump("max_pending_mediators", 5)),
    "rvm/threesome/-O2 int value +1": (RVM, "threesome", 2, _int_plus_one),
    "vm/erasure/-O2 value to blame": (VM, "erasure", 2, _value_to_blame),
    "machine/transient int value +1": (CEKMachine, "transient", None, _int_plus_one),
    "machine/coercion int value +1": (CEKMachine, "coercion", None, _int_plus_one),
    "rvm/threesome/-O0 int value +1": (RVM, "threesome", 0, _int_plus_one),
    "rvm/transient/-O0 int value +1": (RVM, "transient", 0, _int_plus_one),
    "rvm/threesome/-O2 max_pending_size +1": (
        RVM, "threesome", 2, _bump("max_pending_size", 1)),
    "rvm/erasure/-O0 value to blame": (RVM, "erasure", 0, _value_to_blame),
}


class TestOracleMatrixCatchesSeededDefects:
    """Each defect, planted in one engine × semantics × level cell, makes the
    matrix fail on at least one boundary workload."""

    @pytest.mark.parametrize("defect", sorted(SEEDED_DEFECTS))
    def test_defect_is_caught(self, defect, monkeypatch):
        engine, semantics, level, mutate = SEEDED_DEFECTS[defect]
        original = engine.run

        def seeded_run(self, program, *args, **kwargs):
            outcome = original(self, program, *args, **kwargs)
            if engine is CEKMachine:
                hit = self is SEMANTICS[semantics].machine
            else:
                hit = program.pool.semantics == semantics and program.opt_level == level
            return mutate(outcome) if hit else outcome

        monkeypatch.setattr(engine, "run", seeded_run)
        reports = [
            check_oracle_matrix(program)
            for program in (fib_boundary(6), even_odd_boundary(8),
                            tail_countdown_boundary(40), twice_boundary(3))
        ]
        failures = [report for report in reports if not report.ok]
        assert failures, defect
        assert all(report.reason for report in failures)


class TestThreeWayAgreement:
    @given(lambda_b_programs())
    @settings(max_examples=30)
    def test_all_three_calculi_agree_on_generated_programs(self, program):
        term, _ = program
        report = check_outcomes_b_c_s(term, fuel=30_000)
        assert report.ok, report.reason

    def test_all_three_calculi_agree_on_blame_scenarios(self):
        for program in (untyped_library_bad_result(), untyped_client_bad_argument()):
            report = check_outcomes_b_c_s(program, fuel=10_000)
            assert report.ok, report.reason
