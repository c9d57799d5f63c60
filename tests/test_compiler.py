"""Tests for the bytecode compiler and the coercion-aware VM (repro.compiler).

The CEK machine is the VM's oracle: most tests here compare the two engines
observationally, on the shipped ``.grad`` programs, the hand-written
workloads, and hypothesis-generated λB programs.  The rest pin down the
subsystem's own invariants: disassembler round trips, constant-pool
interning stability, the tail-call space discipline, and uniform timeout
reporting across all three engines.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.api import run
from repro.compiler import (
    CodeObject,
    VMClosure,
    all_code_objects,
    compile_term,
    disassemble,
    instruction_streams,
    lower_program,
    parse_disassembly,
    run_code,
)
from repro.compiler.bytecode import (
    COERCE,
    COMPOSE,
    OPCODE_NAMES,
    TAILCALL,
)
from repro.core.errors import CompileError
from repro.core.labels import label
from repro.core.terms import App, Cast, Coerce, Lam, Let, Op, Var, const_int
from repro.core.types import DYN, INT
from repro.gen.programs import (
    WORKLOADS,
    deep_cast_chain,
    even_odd_boundary,
    fib_boundary,
    fib_expected,
    let_chain_boundary,
    pair_boundary_swap,
    safe_boundary_program,
    tail_countdown_boundary,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.lambda_s.coercions import is_interned_space
from repro.properties.bisimulation import check_oracle_matrix
from repro.translate import b_to_s

from .strategies import lambda_b_programs

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"

P = label("p")
Q = label("q")


def _vm_and_machine(term_b):
    return run(term_b, engine="vm"), run(term_b, engine="machine")


# ---------------------------------------------------------------------------
# VM vs machine: values, blame, and the hand-written workloads
# ---------------------------------------------------------------------------


class TestVMAgainstMachine:
    @pytest.mark.parametrize(
        "term_b, expected",
        [
            (even_odd_boundary(40), True),
            (even_odd_boundary(41), False),
            (typed_loop_untyped_step(50), 0),
            (tail_countdown_boundary(64), True),
            (let_chain_boundary(25), 25),
            (fib_boundary(10), fib_expected(10)),
            (twice_boundary(5), 7),
            (pair_boundary_swap(), (7, True)),
            (safe_boundary_program(), 8),
            (deep_cast_chain(8), 42),
        ],
    )
    def test_workload_values(self, term_b, expected):
        vm, machine = _vm_and_machine(term_b)
        assert vm.is_value and machine.is_value
        assert vm.value == expected
        assert vm.value == machine.value

    @pytest.mark.parametrize(
        "term_b",
        [untyped_library_bad_result(), untyped_client_bad_argument()],
    )
    def test_blame_labels_agree(self, term_b):
        vm, machine = _vm_and_machine(term_b)
        assert vm.is_blame and machine.is_blame
        assert vm.blame_label == machine.blame_label

    def test_oracle_matrix_on_all_registered_workloads(self):
        sizes = {"deep_cast_chain": 6}
        for name, builder in WORKLOADS.items():
            term = builder(sizes.get(name, 12))
            report = check_oracle_matrix(term)
            assert report.ok, f"{name}: {report.reason}"

    @given(lambda_b_programs())
    @settings(max_examples=60, deadline=None)
    def test_vm_agrees_with_machine_and_subst_on_generated_programs(self, program):
        term, _ = program
        report = check_oracle_matrix(term)
        assert report.ok, report.reason


# ---------------------------------------------------------------------------
# The shipped example programs
# ---------------------------------------------------------------------------


class TestVMOnExamplePrograms:
    @pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.grad")), ids=lambda p: p.stem)
    def test_vm_agrees_with_machine_on_grad_files(self, path):
        source = path.read_text()
        vm = run(source, engine="vm")
        machine = run(source, engine="machine")
        assert vm.kind == machine.kind
        assert vm.value == machine.value
        assert vm.blame_label == machine.blame_label

    def test_engine_vm_is_exposed_by_run_source(self):
        result = run("(: (: 21 ?) int)", engine="vm")
        assert result.is_value and result.value == 21
        assert result.engine == "vm"
        assert result.space_stats is not None


# ---------------------------------------------------------------------------
# The space discipline: pending coercions composed, never stacked
# ---------------------------------------------------------------------------


class TestSpaceDiscipline:
    @pytest.mark.parametrize("builder", [tail_countdown_boundary, even_odd_boundary,
                                         typed_loop_untyped_step])
    def test_tail_loops_run_in_constant_pending_space(self, builder):
        small = run(builder(20), engine="vm").space_stats
        large = run(builder(400), engine="vm").space_stats
        # The pending-coercion footprint must not grow with the iteration count.
        assert large["max_pending_mediators"] == small["max_pending_mediators"]
        assert large["max_pending_size"] == small["max_pending_size"]
        assert large["max_pending_mediators"] <= 2

    def test_tail_calls_reuse_frames(self):
        # At -O0 the boundary coercions survive to run time, so the loop
        # must *merge* them into the single pending slot every iteration.
        stats = run(tail_countdown_boundary(300), engine="vm", opt_level=0).space_stats
        # One saved frame at most: the whole countdown runs in the entry frame.
        assert stats["max_kont_depth"] <= 1
        assert stats["merges"] >= 299
        # At -O2 the same chain pre-composes statically (to the identity,
        # here), but frame reuse is unchanged.
        stats_o2 = run(tail_countdown_boundary(300), engine="vm").space_stats
        assert stats_o2["max_kont_depth"] <= 1

    def test_compose_and_tailcall_are_emitted_for_tail_coercions(self):
        # -O0 keeps the lowered stream: the tail coercion is a COMPOSE.  At
        # -O1 and -O2 this particular chain pre-composes away
        # (tests/test_opt.py).
        code = compile_term(tail_countdown_boundary(5), opt_level=0)
        opcodes = {op for obj in all_code_objects(code) for op, _ in obj.instructions}
        assert COMPOSE in opcodes
        assert TAILCALL in opcodes

    def test_non_tail_coercions_are_immediate(self):
        code = compile_term(let_chain_boundary(3))
        opcodes = [op for obj in all_code_objects(code) for op, _ in obj.instructions]
        assert COERCE in opcodes


# ---------------------------------------------------------------------------
# Disassembler round trips and pool stability
# ---------------------------------------------------------------------------


class TestDisassembler:
    @pytest.mark.parametrize(
        "term_b",
        [
            even_odd_boundary(3),
            fib_boundary(3),
            pair_boundary_swap(),
            untyped_library_bad_result(),
            let_chain_boundary(4),
        ],
    )
    def test_round_trip(self, term_b):
        code = compile_term(term_b)
        assert parse_disassembly(disassemble(code)) == instruction_streams(code)

    @pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.grad")), ids=lambda p: p.stem)
    def test_round_trip_on_examples(self, path):
        from repro.surface.interp import compile_source

        term, _ = compile_source(path.read_text())
        code = compile_term(term)
        assert parse_disassembly(disassemble(code)) == instruction_streams(code)

    def test_disassembly_shows_pools_and_opcode_names(self):
        text = disassemble(compile_term(even_odd_boundary(3)))
        assert "pool coercions:" in text
        assert "pool consts:" in text
        assert "COMPOSE" in text and "TAILCALL" in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(CompileError):
            parse_disassembly("code 0 <main>\n   0  NOT_AN_OPCODE 3\n")


class TestConstantPool:
    def test_coercion_pool_entries_are_interned(self):
        code = compile_term(even_odd_boundary(3))
        assert code.pool.coercions
        for coercion in code.pool.coercions:
            assert is_interned_space(coercion)

    def test_interning_is_stable_across_compilations(self):
        first = compile_term(even_odd_boundary(3))
        second = compile_term(even_odd_boundary(3))
        assert len(first.pool.coercions) == len(second.pool.coercions)
        for a, b in zip(first.pool.coercions, second.pool.coercions):
            assert a is b  # pointer-identical: the pools share canonical nodes

    def test_duplicate_constants_are_pooled_once(self):
        term = Op("+", (const_int(7), const_int(7)))
        code = lower_program(b_to_s(term))
        assert len([c for c in code.pool.consts if getattr(c, "value", None) == 7]) == 1


# ---------------------------------------------------------------------------
# Lowering: rejections and structure
# ---------------------------------------------------------------------------


class TestLowering:
    @pytest.mark.parametrize(
        "term, opcode",
        [
            # int ⇒ ? ⇒ int under +: two COERCEs on the value just computed.
            (Op("+", (Cast(Cast(const_int(1), INT, DYN, P), DYN, INT, P), const_int(2))),
             COERCE),
            # An identity cast emits nothing.
            (Cast(const_int(1), INT, INT, P), None),
            # A cast in tail position is COMPOSEd before the tail call.
            (Let("f", Lam("x", INT, Var("x")), Cast(App(Var("f"), const_int(1)), INT, DYN, P)),
             COMPOSE),
        ],
        ids=["non-identity", "identity", "tail"],
    )
    def test_lambda_b_casts_lower_to_their_b_to_s_image(self, term, opcode):
        code, expected = lower_program(term), lower_program(b_to_s(term))
        assert instruction_streams(code) == instruction_streams(expected)
        assert len(code.pool.coercions) == len(expected.pool.coercions)
        assert all(a is b for a, b in zip(code.pool.coercions, expected.pool.coercions))
        opcodes = {op for op, _ in code.instructions}
        assert opcodes & {COERCE, COMPOSE} == ({opcode} if opcode else set())

    def test_rejects_lambda_c_coercions(self):
        from repro.lambda_c.coercions import Identity

        with pytest.raises(CompileError):
            lower_program(Coerce(const_int(1), Identity(INT)))

    def test_rejects_open_terms(self):
        with pytest.raises(CompileError):
            lower_program(Var("ghost"))

    def test_identity_coercions_are_dropped(self):
        term = b_to_s(Cast(const_int(1), INT, INT, P))
        code = lower_program(term)
        opcodes = {op for op, _ in code.instructions}
        assert COERCE not in opcodes and COMPOSE not in opcodes

    def test_shadowing_resolves_to_innermost_binding(self):
        term = Let("x", const_int(1), Let("x", const_int(2), Var("x")))
        outcome = run_code(lower_program(b_to_s(term)))
        assert outcome.python_value() == 2

    def test_let_scope_does_not_leak_into_siblings(self):
        term = Let(
            "x",
            const_int(10),
            Op("+", (Let("x", const_int(1), Var("x")), Var("x"))),
        )
        outcome = run_code(lower_program(b_to_s(term)))
        assert outcome.python_value() == 11

    def test_closures_capture_by_value(self):
        # let y = 5 in (λx:int. x + y) 2  — y captured at MAKE_CLOSURE time
        term = Let(
            "y",
            const_int(5),
            App(Lam("x", INT, Op("+", (Var("x"), Var("y")))), const_int(2)),
        )
        outcome = run_code(lower_program(b_to_s(term)))
        assert outcome.python_value() == 7

    def test_every_emitted_opcode_is_named(self):
        code = compile_term(even_odd_boundary(3))
        for obj in all_code_objects(code):
            for op, _ in obj.instructions:
                assert op in OPCODE_NAMES


# ---------------------------------------------------------------------------
# Uniform timeout outcomes across the three engines
# ---------------------------------------------------------------------------


class TestUniformTimeouts:
    DIVERGING = "((lambda (f) (f f)) (lambda (f) (f f)))"

    @pytest.mark.parametrize("engine", ["vm", "machine", "subst"])
    def test_timeout_outcome_shape_is_engine_independent(self, engine):
        result = run(self.DIVERGING, engine=engine, fuel=2_000)
        assert result.kind == "timeout"
        assert result.is_timeout
        assert result.value is None and result.blame_label is None
        assert result.steps == 2_000  # the fuel spent, in the engine's unit
        assert result.engine == engine

    def test_vm_timeout_reports_stats(self):
        result = run(self.DIVERGING, engine="vm", fuel=500)
        assert result.is_timeout and result.space_stats is not None
        assert result.space_stats["steps"] == 500


# ---------------------------------------------------------------------------
# VM odds and ends
# ---------------------------------------------------------------------------


class TestVMDetails:
    def test_vm_rejects_non_s_calculus_through_interp(self):
        with pytest.raises(ValueError):
            run("(: 1 ?)", engine="vm", calculus="B")

    def test_vm_closure_projects_as_function(self):
        outcome = run_code(compile_term(Lam("x", INT, Var("x"))))
        assert isinstance(outcome.value, VMClosure)
        assert outcome.python_value() == "<function>"

    def test_fix_unrolls_without_frame_growth(self):
        result = run(even_odd_boundary(100), engine="vm")
        assert result.is_value
        assert result.space_stats["max_kont_depth"] <= 3

    def test_higher_order_proxies_compose_result_coercions(self):
        # twice applies a proxied function twice: the dom/cod coercions of the
        # proxy go through the pending-slot discipline, not stacked frames.
        result = run(twice_boundary(3), engine="vm")
        assert result.is_value and result.value == 5
        assert result.space_stats["max_pending_mediators"] <= 3

    def test_compile_term_returns_code_object(self):
        code = compile_term(const_int(1))
        assert isinstance(code, CodeObject)
        assert code.pool is not None
