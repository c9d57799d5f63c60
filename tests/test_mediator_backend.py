"""Tests for the threesome mediator backend of the machine and the VM.

The paper's §6.1 claims threesomes and space-efficient coercions are two
presentations of the same thing.  PRs 1–2 validated the claim statically
(``compose_labeled`` against ``#`` through the representation maps); this
suite validates it *dynamically*: the λS CEK machine and the bytecode VM,
running with ``semantics="threesome"``, must be observationally
indistinguishable from the coercion backend — values, blame labels,
timeouts, and the constant pending-mediator footprint — on the boundary
workloads, the shipped example programs, and hypothesis-generated programs
(``check_oracle_matrix``).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.api import run
from repro.compiler import compile_term
from repro.core.errors import UsageError
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
from repro.machine import run_on_machine
from repro.properties.bisimulation import check_oracle_matrix
from repro.semantics import SEMANTICS
from repro.surface.interp import compile_source
from repro.threesomes import Threesome, threesome_of_coercion
from repro.threesomes.labeled_types import LBase

from .strategies import lambda_b_programs

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"


class TestThreesomeMachineBackend:
    def test_runs_values_through_the_threesome_policy(self):
        outcome = run_on_machine(even_odd_boundary(8), "S", semantics="threesome")
        assert outcome.is_value and outcome.python_value() is True

    def test_blame_labels_survive_the_representation_change(self):
        coercion = run_on_machine(untyped_library_bad_result(), "S", semantics="coercion")
        threesome = run_on_machine(untyped_library_bad_result(), "S", semantics="threesome")
        assert coercion.is_blame and threesome.is_blame
        assert coercion.label == threesome.label

    def test_boundary_tail_loop_keeps_one_pending_mediator(self):
        outcome = run_on_machine(tail_countdown_boundary(200), "S", semantics="threesome")
        assert outcome.is_value
        assert outcome.stats["max_pending_mediators"] == 1

    def test_pending_footprint_is_constant_in_the_iteration_count(self):
        small = run_on_machine(tail_countdown_boundary(10), "S", semantics="threesome")
        large = run_on_machine(tail_countdown_boundary(300), "S", semantics="threesome")
        assert (
            small.stats["max_pending_mediators"]
            == large.stats["max_pending_mediators"]
        )

    def test_all_pending_mediators_are_threesomes(self):
        # The machine's policy converts every term coercion on sight, so the
        # run never mixes representations.
        from repro.core.terms import Coerce
        from repro.machine.policy import THREESOME_POLICY
        from repro.translate import b_to_s

        term_s = b_to_s(even_odd_boundary(2))

        def coerce_nodes(term):
            from repro.core.terms import subterms

            return [t for t in subterms(term) if isinstance(t, Coerce)]

        for node in coerce_nodes(term_s):
            assert isinstance(THREESOME_POLICY.term_mediator(node), Threesome)
        assert SEMANTICS["threesome"].machine.policy is THREESOME_POLICY

    def test_rejects_non_s_calculi(self):
        with pytest.raises(UsageError):
            run_on_machine(even_odd_boundary(2), "B", semantics="threesome")
        with pytest.raises(UsageError):
            run_on_machine(even_odd_boundary(2), "C", semantics="threesome")

    def test_rejects_unknown_mediators(self):
        with pytest.raises(UsageError):
            run_on_machine(even_odd_boundary(2), "S", semantics="foursome")


class TestThreesomeVMBackend:
    def test_pool_entries_are_threesomes(self):
        code = compile_term(even_odd_boundary(2), semantics="threesome")
        assert code.pool.semantics == "threesome"
        assert code.pool.coercions  # boundary program has real mediators
        assert all(isinstance(entry, Threesome) for entry in code.pool.coercions)

    def test_pool_entries_are_interned(self):
        from repro.threesomes import is_interned_threesome

        code = compile_term(even_odd_boundary(2), semantics="threesome")
        assert all(is_interned_threesome(entry) for entry in code.pool.coercions)

    def test_identity_coercions_are_still_dropped(self):
        # Identity mediators vanish at lowering for both backends, so the
        # instruction streams are identical — only the pool representation
        # differs.
        from repro.compiler import instruction_streams

        for term in (even_odd_boundary(3), fib_boundary(5), pair_boundary_swap()):
            coercion_code = compile_term(term, semantics="coercion")
            threesome_code = compile_term(term, semantics="threesome")
            assert instruction_streams(coercion_code) == instruction_streams(threesome_code)

    def test_vm_runs_values_blame_and_space(self):
        # -O0 keeps the boundary mediators at run time: exactly one pending
        # threesome, composed in place.  At the default -O2 the optimizer
        # pre-composes this workload's chain away entirely (still ≤ 1).
        value = run(tail_countdown_boundary(100), engine="vm", semantics="threesome",
                    opt_level=0)
        assert value.is_value and value.value is True
        assert value.space_stats["max_pending_mediators"] == 1
        optimized = run(tail_countdown_boundary(100), engine="vm", semantics="threesome")
        assert optimized.is_value and optimized.space_stats["max_pending_mediators"] <= 1

        blame = run(untyped_client_bad_argument(), engine="vm", semantics="threesome")
        reference = run(untyped_client_bad_argument(), engine="vm", semantics="coercion")
        assert blame.is_blame and blame.blame_label == reference.blame_label

    def test_vm_timeout_is_uniform_across_backends(self):
        from repro.core.terms import App, Lam, Var
        from repro.core.types import DYN

        omega = App(Lam("x", DYN, App(Var("x"), Var("x"))),
                    Lam("x", DYN, App(Var("x"), Var("x"))))
        coercion = run(omega, engine="vm", fuel=5_000, semantics="coercion")
        threesome = run(omega, engine="vm", fuel=5_000, semantics="threesome")
        assert coercion.is_timeout and threesome.is_timeout
        assert coercion.space_stats["steps"] == threesome.space_stats["steps"] == 5_000


class TestMediatorOracle:
    """values / blame / timeout / space agreement between the two backends."""

    def test_mediator_oracle_on_the_boundary_workloads(self):
        for program in (
            even_odd_boundary(8),
            typed_loop_untyped_step(4),
            fib_boundary(6),
            twice_boundary(3),
            untyped_library_bad_result(),
            untyped_client_bad_argument(),
            safe_boundary_program(),
            pair_boundary_swap(),
            tail_countdown_boundary(40),
            let_chain_boundary(30),
        ):
            report = check_oracle_matrix(program)
            assert report.ok, report.reason

    def test_mediator_oracle_on_the_shipped_examples(self):
        for example in sorted(EXAMPLES.glob("*.grad")):
            term, _ = compile_source(example.read_text())
            report = check_oracle_matrix(term)
            assert report.ok, f"{example.name}: {report.reason}"

    def test_mediator_oracle_flags_timeout_disagreement(self):
        # Same fuel, same units: a diverging program must time out on both
        # backends at the same step count, and the check must treat a
        # one-sided timeout as a failure (strict, not inconclusive).
        from repro.core.terms import App, Lam, Var
        from repro.core.types import DYN

        omega = App(Lam("x", DYN, App(Var("x"), Var("x"))),
                    Lam("x", DYN, App(Var("x"), Var("x"))))
        report = check_oracle_matrix(omega, machine_fuel=3_000, vm_fuel=3_000,
                                     subst_fuel=3_000)
        assert report.ok, report.reason

    @given(lambda_b_programs())
    @settings(max_examples=30, deadline=None)
    def test_mediator_oracle_on_generated_programs(self, program):
        term, _ = program
        report = check_oracle_matrix(term)
        assert report.ok, report.reason


class TestSurfaceMediatorKnob:
    def test_run_term_threads_the_mediator_through(self):
        term, ty = compile_source("(: (: 21 ?) int)")
        for engine in ("machine", "vm"):
            result = run(term, type=ty, engine=engine, semantics="threesome")
            assert result.is_value and result.value == 21
            assert result.semantics == "threesome"

    def test_subst_engine_has_no_threesome_backend(self):
        term, ty = compile_source("(: (: 21 ?) int)")
        with pytest.raises(UsageError):
            run(term, type=ty, engine="subst", semantics="threesome")

    def test_unknown_mediator_is_rejected(self):
        term, ty = compile_source("1")
        with pytest.raises(UsageError):
            run(term, type=ty, semantics="nonesuch")
