"""Tests for the bytecode optimizer (repro.compiler.opt) and its VM support.

The optimizer's contract: ``-O1``/``-O2`` never change observables — the
projected value, the blame label, timeout behaviour — and never *grow* the
pending-mediator footprint, on either mediator backend.  The ``-O0`` stream
is the oracle throughout.  The rest pins down the mechanics: identity
elision, static pre-composition through ``#``/``∘``, jump remapping,
superinstruction fusion and packing, disassembler round trips of fused
streams, the inline mediator caches, and the single-sourced fuel defaults.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler import (
    DEFAULT_OPT_LEVEL,
    SUPERINSTRUCTIONS,
    all_code_objects,
    compile_term,
    disassemble,
    instruction_streams,
    lower_program,
    optimize,
    parse_disassembly,
    run_code,
    run_on_vm,
)
from repro.compiler.bytecode import (
    COERCE,
    COMPOSE,
    JUMP,
    JUMP_IF_FALSE,
    LOAD,
    LOAD2,
    LOAD_CALL,
    LOAD_TAILCALL,
    OPCODE_NAMES,
    PRIM_JUMP_IF_FALSE,
    PUSH_PRIM,
    TAILCALL,
    pack_operands,
    unpack_operands,
)
from repro.core.labels import label
from repro.core.terms import App, Cast, Coerce, If, Lam, Let, Op, Var, const_bool, const_int
from repro.core.types import DYN, INT, FunType
from repro.gen.programs import (
    WORKLOADS,
    even_odd_boundary,
    fib_boundary,
    let_chain_boundary,
    pair_boundary_swap,
    tail_countdown_boundary,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.lambda_s.coercions import identity_for
from repro.semantics import NATURAL_SEMANTICS_NAMES
from repro.translate import b_to_s

from .strategies import lambda_b_programs

P = label("p")


def _outcome_key(outcome):
    if outcome.is_value:
        return ("value", outcome.python_value())
    if outcome.is_blame:
        return ("blame", outcome.label)
    return ("timeout", outcome.stats["steps"])


# ---------------------------------------------------------------------------
# O0 vs O1 vs O2: observables agree, footprint only shrinks
# ---------------------------------------------------------------------------


class TestLevelsAgree:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize(
        "builder, size",
        [
            (even_odd_boundary, 41),
            (typed_loop_untyped_step, 50),
            (tail_countdown_boundary, 64),
            (let_chain_boundary, 25),
            (fib_boundary, 10),
            (twice_boundary, 5),
        ],
    )
    def test_levels_agree_on_workloads(self, builder, size, semantics):
        outcomes = [
            run_code(compile_term(builder(size), semantics=semantics, opt_level=level))
            for level in (0, 1, 2)
        ]
        keys = [_outcome_key(o) for o in outcomes]
        assert keys[0] == keys[1] == keys[2]
        pendings = [o.stats["max_pending_mediators"] for o in outcomes]
        assert pendings[2] <= pendings[1] <= pendings[0]

    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize(
        "term", [untyped_library_bad_result(), untyped_client_bad_argument()]
    )
    def test_blame_labels_survive_optimization(self, term, semantics):
        o0 = run_on_vm(term, semantics=semantics, opt_level=0)
        o2 = run_on_vm(term, semantics=semantics, opt_level=2)
        assert o0.is_blame and o2.is_blame
        assert o0.label == o2.label

    def test_all_registered_workloads(self):
        sizes = {"deep_cast_chain": 6}
        for name, builder in WORKLOADS.items():
            term = builder(sizes.get(name, 12))
            for semantics in NATURAL_SEMANTICS_NAMES:
                o0 = run_on_vm(term, semantics=semantics, opt_level=0)
                o2 = run_on_vm(term, semantics=semantics, opt_level=2)
                assert _outcome_key(o0) == _outcome_key(o2), (name, semantics)

    def test_timeouts_report_fuel_at_every_level(self):
        omega = App(Lam("x", DYN, App(Var("x"), Var("x"))),
                    Lam("x", DYN, App(Var("x"), Var("x"))))
        for level in (0, 1, 2):
            outcome = run_on_vm(omega, fuel=3_000, opt_level=level)
            assert outcome.is_timeout
            assert outcome.stats["steps"] == 3_000

    @given(lambda_b_programs())
    @settings(max_examples=60, deadline=None)
    def test_o2_agrees_with_o0_on_generated_programs(self, program):
        """The satellite property: -O2 agrees with -O0 on outcome, blame
        label, timeout step count, and space profile, under both mediators."""
        term, _ = program
        for semantics in NATURAL_SEMANTICS_NAMES:
            o0 = run_on_vm(term, semantics=semantics, opt_level=0)
            o2 = run_on_vm(term, semantics=semantics, opt_level=2)
            assert o0.kind == o2.kind, semantics
            if o0.is_value:
                assert o0.python_value() == o2.python_value()
            elif o0.is_blame:
                assert o0.label == o2.label
            else:  # both timed out: the step count is the fuel, identically
                assert o0.stats["steps"] == o2.stats["steps"]
            assert (
                o2.stats["max_pending_mediators"] <= o0.stats["max_pending_mediators"]
            ), semantics
            assert (
                o2.stats["max_pending_mediators"] <= o2.stats["max_kont_depth"] + 1
            ), semantics


# ---------------------------------------------------------------------------
# Static coercion elision and pre-composition
# ---------------------------------------------------------------------------


class TestElision:
    def test_canonical_identity_coercions_are_elided(self):
        # id at int → int survives lowering (it is not a bare idι) but is a
        # canonical identity: -O1 drops it (here it sits in tail position,
        # so the lowered form is a COMPOSE).
        fun_int = FunType(INT, INT)
        term = Coerce(Lam("x", INT, Var("x")), identity_for(fun_int))
        code = lower_program(term)
        assert any(op in (COERCE, COMPOSE) for op, _ in code.instructions)
        optimize(code, 1)
        assert all(op not in (COERCE, COMPOSE) for op, _ in code.instructions)

    def test_adjacent_coerces_precompose(self):
        # (x : int ⇒ ? ⇒ int) round trip in *non-tail* position: two
        # adjacent COERCEs at -O0, at most one after pre-composition.
        chain = Cast(Cast(const_int(7), INT, DYN, P), DYN, INT, P)
        term = b_to_s(Op("+", (chain, const_int(0))))
        code = lower_program(term)
        coerces = [op for op, _ in code.instructions if op == COERCE]
        assert len(coerces) >= 2
        optimize(code, 1)
        assert len([op for op, _ in code.instructions if op == COERCE]) <= 1
        assert run_code(code).python_value() == 7

    def test_precomposition_collapses_to_identity(self):
        # inject; project with the same label composes to id[int]: both drop.
        term = b_to_s(Cast(Cast(const_int(7), INT, DYN, P), DYN, INT, P))
        code = optimize(lower_program(term), 1)
        assert all(op != COERCE and op != COMPOSE for op, _ in code.instructions)
        assert run_code(code).python_value() == 7

    def test_adjacent_composes_precompose_in_reverse_order(self):
        # Nested tail coercions emit COMPOSE s1; COMPOSE s2 — the merge must
        # be s2 # s1 (the later instruction applies first).  Blame tells the
        # orders apart: the countdown workload exercises this under blame.
        code = lower_program(b_to_s(tail_countdown_boundary(8)))
        composes = sum(1 for obj in all_code_objects(code)
                       for op, _ in obj.instructions if op == COMPOSE)
        assert composes >= 2
        optimized = optimize(lower_program(b_to_s(tail_countdown_boundary(8))), 1)
        composes_after = sum(1 for obj in all_code_objects(optimized)
                             for op, _ in obj.instructions if op == COMPOSE)
        assert composes_after < composes
        assert run_code(optimized).python_value() is True

    def test_elision_does_not_touch_jump_structure(self):
        # A branch whose arms both coerce: jumps must still land correctly.
        term = b_to_s(
            If(
                const_bool(True),
                Cast(const_int(1), INT, DYN, P),
                Cast(const_int(2), INT, DYN, P),
            )
        )
        code = optimize(lower_program(term), 1)
        outcome = run_code(code)
        assert outcome.is_value and outcome.python_value() == 1


# ---------------------------------------------------------------------------
# Superinstruction fusion
# ---------------------------------------------------------------------------


class TestFusion:
    def test_hot_pairs_get_fused(self):
        code = compile_term(even_odd_boundary(6), opt_level=2)
        opcodes = {op for obj in all_code_objects(code) for op, _ in obj.instructions}
        fused = opcodes & set(SUPERINSTRUCTIONS)
        assert LOAD2 in fused
        assert PRIM_JUMP_IF_FALSE in fused or PUSH_PRIM in fused

    def test_load_tailcall_appears_in_optimized_fix_apply(self):
        # The hottest (LOAD, TAILCALL) site of all is the built-in fix
        # unrolling step, which the VM runs at -O2 in its fused form.
        from repro.compiler.vm import _FIX_APPLY, _FIX_APPLY_O2

        assert [op for op, _ in _FIX_APPLY.instructions].count(LOAD) == 3
        fused_ops = [op for op, _ in _FIX_APPLY_O2.instructions]
        assert LOAD_TAILCALL in fused_ops
        assert len(fused_ops) < len(_FIX_APPLY.instructions)

    def test_load_call_fuses_single_load_argument(self):
        # fun is a closure expression, arg a variable: LOAD; CALL fuses.
        term = Let(
            "x",
            const_int(20),
            App(Lam("y", INT, Op("+", (Var("y"), const_int(1)))), Var("x")),
        )
        code = compile_term(term, opt_level=2)
        opcodes = {op for obj in all_code_objects(code) for op, _ in obj.instructions}
        assert LOAD_CALL in opcodes or LOAD_TAILCALL in opcodes
        assert run_code(code).python_value() == 21

    def test_fusion_never_crosses_a_jump_target(self):
        for builder in (even_odd_boundary, fib_boundary, typed_loop_untyped_step):
            code = compile_term(builder(5), opt_level=2)
            for obj in all_code_objects(code):
                targets = set()
                for op, operand in obj.instructions:
                    if op == JUMP or op == JUMP_IF_FALSE:
                        targets.add(operand)
                    elif op == PRIM_JUMP_IF_FALSE:
                        targets.add(unpack_operands(op, operand)[1])
                n = len(obj.instructions)
                assert all(0 <= t <= n for t in targets), obj.name

    def test_pack_unpack_round_trip(self):
        for fused, (op1, op2) in SUPERINSTRUCTIONS.items():
            a = 0 if op1 in (TAILCALL,) else 19
            b = 0 if op2 in (TAILCALL,) else 7
            packed = pack_operands(op1, a, op2, b)
            ra, rb = unpack_operands(fused, packed)
            # Operand-less halves decode as 0; the carried ones round-trip.
            from repro.compiler.bytecode import NO_OPERAND

            if op1 not in NO_OPERAND:
                assert ra == a
            if op2 not in NO_OPERAND:
                assert rb == b

    def test_every_fused_opcode_is_named_and_tabled(self):
        for fused in SUPERINSTRUCTIONS:
            assert fused in OPCODE_NAMES
        for code_obj in all_code_objects(compile_term(fib_boundary(6), opt_level=2)):
            for op, _ in code_obj.instructions:
                assert op in OPCODE_NAMES

    def test_o0_streams_contain_no_superinstructions(self):
        code = compile_term(even_odd_boundary(6), opt_level=0)
        opcodes = {op for obj in all_code_objects(code) for op, _ in obj.instructions}
        assert not (opcodes & set(SUPERINSTRUCTIONS))

    def test_branches_still_compute_correctly_after_fusion(self):
        # if-heavy program: JUMP_IF_FALSE remapping + PRIM fusion together.
        term = Let(
            "n",
            const_int(9),
            If(
                Op("even?", (Var("n"),)),
                Op("+", (Var("n"), const_int(1))),
                Op("-", (Var("n"), const_int(1))),
            ),
        )
        for level in (0, 1, 2):
            outcome = run_code(compile_term(term, opt_level=level))
            assert outcome.python_value() == 8


# ---------------------------------------------------------------------------
# Disassembler round trips of optimized streams
# ---------------------------------------------------------------------------


class TestFusedDisassembly:
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize(
        "term_b",
        [
            even_odd_boundary(3),
            fib_boundary(3),
            pair_boundary_swap(),
            typed_loop_untyped_step(3),
            let_chain_boundary(4),
        ],
    )
    def test_round_trip(self, term_b, level):
        code = compile_term(term_b, opt_level=level)
        assert parse_disassembly(disassemble(code)) == instruction_streams(code)

    def test_fused_comment_names_both_halves(self):
        text = disassemble(compile_term(typed_loop_untyped_step(3), opt_level=2))
        assert "LOAD2" in text
        # The comment decodes the packed operand into the original pair.
        assert "LOAD " in text and " + " in text


# ---------------------------------------------------------------------------
# Inline mediator caches
# ---------------------------------------------------------------------------


class TestInlineCaches:
    def test_caches_allocated_only_at_o2(self):
        for level, expect in ((0, False), (1, False), (2, True)):
            code = compile_term(even_odd_boundary(3), opt_level=level)
            for obj in all_code_objects(code):
                assert (obj.caches is not None) is expect
                assert obj.opt_level == level

    def test_cache_cells_fill_and_hit_on_boundary_loops(self):
        code = compile_term(even_odd_boundary(40), opt_level=2)
        first = run_code(code)
        cells = [c for obj in all_code_objects(code) for c in (obj.caches or []) if c]
        assert cells, "a boundary loop must have filled at least one cache cell"
        # Re-running with warm caches changes nothing observable.
        second = run_code(code)
        assert first.python_value() == second.python_value()
        assert first.stats["max_pending_mediators"] == second.stats["max_pending_mediators"]
        assert first.stats["steps"] == second.stats["steps"]

    def test_caches_are_backend_private(self):
        # The same program compiled per backend gets distinct code objects,
        # so cache cells never mix coercions and threesomes.
        coercion = compile_term(even_odd_boundary(20), semantics="coercion")
        threesome = compile_term(even_odd_boundary(20), semantics="threesome")
        run_code(coercion), run_code(threesome)
        for obj in all_code_objects(coercion):
            assert obj.pool.semantics == "coercion"
        for obj in all_code_objects(threesome):
            assert obj.pool.semantics == "threesome"

    def test_proxy_call_cache_preserves_higher_order_results(self):
        outcome0 = run_on_vm(twice_boundary(3), opt_level=0)
        outcome2 = run_on_vm(twice_boundary(3), opt_level=2)
        assert outcome0.python_value() == outcome2.python_value() == 5


# ---------------------------------------------------------------------------
# Profiling and defaults
# ---------------------------------------------------------------------------


class TestProfilingAndDefaults:
    def test_default_opt_level_is_two(self):
        assert DEFAULT_OPT_LEVEL == 2
        code = compile_term(const_int(1))
        assert code.opt_level == 2

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError):
            optimize(lower_program(b_to_s(const_int(1))), 3)

    def test_fuel_constants_are_single_sourced(self):
        from repro.core import fuel
        from repro.compiler import vm
        from repro.machine import cek
        from repro import api
        from repro.lambda_b import reduction as reduction_b

        assert vm.DEFAULT_VM_FUEL is fuel.DEFAULT_VM_FUEL
        assert cek.DEFAULT_MACHINE_FUEL is fuel.DEFAULT_MACHINE_FUEL
        assert reduction_b.DEFAULT_FUEL is fuel.DEFAULT_REDUCTION_FUEL
        assert api.DEFAULT_FUEL == {
            "vm": fuel.DEFAULT_VM_FUEL,
            "rvm": fuel.DEFAULT_RVM_FUEL,
            "machine": fuel.DEFAULT_MACHINE_FUEL,
            "subst": fuel.DEFAULT_SUBST_FUEL,
        }
