"""Tests for the bytecode optimizer (repro.compiler.opt) and its VM support.

The optimizer's contract: ``-O1``/``-O2`` never change observables — the
projected value, the blame label, timeout behaviour — and never *grow* the
pending-mediator footprint, on either mediator backend.  The ``-O0`` stream
is the oracle throughout.  The rest pins down the mechanics: identity
elision, static pre-composition through ``#``/``∘`` in one sweep that
reaches the streams the old rerun-until-unchanged pass reached
(``tests/reference_opt.py``), jump remapping, the stack VM's ``-O2`` (the
shared passes' stream plus inline-cache cells), disassembler round trips of
optimized streams, the inline mediator caches, and the single-sourced fuel
defaults.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import run
from repro.compiler import (
    DEFAULT_OPT_LEVEL,
    all_code_objects,
    compile_term,
    disassemble,
    instruction_streams,
    lower_program,
    optimize,
    parse_disassembly,
    run_code,
)
from repro.compiler.bytecode import (
    COERCE,
    COMPOSE,
    JUMP,
    JUMP_IF_FALSE,
    OPCODE_NAMES,
    RETURN,
    CodeObject,
    ConstantPool,
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
from repro.compiler.lower import lower_term, with_semantics
from repro.experiment.lattice import ProgramLattice, render_configuration
from repro.gen.surface_programs import generate_corpus
from repro.lambda_s.coercions import IdBase, Injection, Projection, identity_for, intern_space
from repro.semantics import NATURAL_SEMANTICS_NAMES, SEMANTICS_NAMES
from repro.surface.interp import compile_source
from repro.translate import b_to_s

from .reference_opt import optimize as fixpoint_optimize
from .strategies import lambda_b_programs, lattice_configurations

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
        o0 = run(term, engine="vm", semantics=semantics, opt_level=0)
        o2 = run(term, engine="vm", semantics=semantics, opt_level=2)
        assert o0.is_blame and o2.is_blame
        assert o0.blame_label == o2.blame_label

    def test_all_registered_workloads(self):
        sizes = {"deep_cast_chain": 6}
        for name, builder in WORKLOADS.items():
            term = builder(sizes.get(name, 12))
            for semantics in NATURAL_SEMANTICS_NAMES:
                o0, o2 = (run_code(compile_term(term, semantics=semantics, opt_level=level))
                          for level in (0, 2))
                assert _outcome_key(o0) == _outcome_key(o2), (name, semantics)

    def test_timeouts_report_fuel_at_every_level(self):
        omega = App(Lam("x", DYN, App(Var("x"), Var("x"))),
                    Lam("x", DYN, App(Var("x"), Var("x"))))
        for level in (0, 1, 2):
            result = run(omega, engine="vm", fuel=3_000, opt_level=level)
            assert result.is_timeout
            assert result.space_stats["steps"] == 3_000

    @given(lambda_b_programs())
    @settings(max_examples=60, deadline=None)
    def test_o2_agrees_with_o0_on_generated_programs(self, program):
        """The satellite property: -O2 agrees with -O0 on outcome, blame
        label, timeout step count, and space profile, under both mediators."""
        term, _ = program
        for semantics in NATURAL_SEMANTICS_NAMES:
            o0 = run(term, engine="vm", semantics=semantics, opt_level=0)
            o2 = run(term, engine="vm", semantics=semantics, opt_level=2)
            assert o0.kind == o2.kind, semantics
            assert o0.value == o2.value and o0.blame_label == o2.blame_label
            if o0.is_timeout:  # the step count is the fuel, identically
                assert o0.steps == o2.steps
            stats0, stats2 = o0.space_stats, o2.space_stats
            assert (
                stats2["max_pending_mediators"] <= stats0["max_pending_mediators"]
            ), semantics
            assert (
                stats2["max_pending_mediators"] <= stats2["max_kont_depth"] + 1
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
# The stack VM's -O2: the shared stream plus inline-cache cells
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# One sweep reaches the old pass's fixpoint
# ---------------------------------------------------------------------------

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples" / "programs").glob("*.grad"))


def _half_untyped(source: str) -> str:
    """``source`` with every other annotatable binding left unannotated."""
    lattice = ProgramLattice.from_source(source)
    return render_configuration(lattice, set(lattice.typeable_names[::2]))[0]


CORPUS = [(name, _half_untyped(source))
          for name, source in generate_corpus(64, seed=16, bindings=8)]


def _resolved_streams(code) -> list[list[tuple[int, int]]]:
    """Each instruction stream with its mediator operands resolved to the
    identity of their (interned) pool entries, which the two passes number
    differently."""
    coercions = code.pool.coercions
    return [[(op, id(coercions[arg]) if op in (COERCE, COMPOSE) else arg)
             for op, arg in obj.instructions]
            for obj in all_code_objects(code)]


def _assert_one_sweep_reaches_the_fixpoint(term) -> None:
    lowered = lower_term(term)
    for semantics in SEMANTICS_NAMES:
        swept = optimize(with_semantics(lowered, semantics), 1)
        fixpoint = fixpoint_optimize(with_semantics(lowered, semantics))
        assert _resolved_streams(swept) == _resolved_streams(fixpoint), semantics
        # Only the mediator each run folds to enters the pool.
        assert len(swept.pool.coercions) <= len(fixpoint.pool.coercions), semantics


class TestOneSweep:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
    def test_shipped_examples(self, path):
        _assert_one_sweep_reaches_the_fixpoint(compile_source(path.read_text())[0])

    @pytest.mark.parametrize("name, source", CORPUS, ids=[name for name, _ in CORPUS])
    def test_generated_corpus(self, name, source):
        _assert_one_sweep_reaches_the_fixpoint(compile_source(source)[0])

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_configurations())
    def test_lattice_configurations(self, source):
        _assert_one_sweep_reaches_the_fixpoint(compile_source(source)[0])

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lambda_b_programs())
    def test_random_terms(self, program):
        _assert_one_sweep_reaches_the_fixpoint(program[0])

    @pytest.mark.parametrize("landing, length", [(None, 3), (2, 4), (3, 6), (4, 4)])
    def test_landing_sites_and_vanishing_runs(self, landing, length):
        # int! then int?p fold to id[int]: the COERCE run vanishes unless a
        # jump lands on its second half, and the COMPOSEs around it then
        # meet unless a jump landed on the run or the second COMPOSE.
        inj = intern_space(Injection(IdBase(INT), INT))
        proj = intern_space(Projection(INT, P, IdBase(INT)))
        streams = []
        for run in (optimize, fixpoint_optimize):
            pool = ConstantPool()
            i, p = pool.add_canonical_mediator(inj), pool.add_canonical_mediator(proj)
            code = CodeObject("<main>", [
                (JUMP_IF_FALSE, 5 if landing is None else landing),
                (COMPOSE, i), (COERCE, i), (COERCE, p), (COMPOSE, p), (RETURN, 0),
            ], pool, 0, 0, None, ())
            streams.append(_resolved_streams(run(code)))
        assert streams[0] == streams[1]
        assert len(streams[0][0]) == length


class TestOptimizedStreams:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    def test_o2_stream_is_the_o1_stream(self, semantics):
        for builder in (even_odd_boundary, fib_boundary, typed_loop_untyped_step):
            o1 = compile_term(builder(5), semantics=semantics, opt_level=1)
            o2 = compile_term(builder(5), semantics=semantics, opt_level=2)
            assert instruction_streams(o2) == instruction_streams(o1)
            for obj in all_code_objects(o2):
                assert len(obj.caches) == len(obj.instructions)

    def test_optimized_fix_apply_is_the_plain_stub_with_caches(self):
        # The built-in fix unrolling step runs at -O2 with cache cells of
        # its own, over the very instructions the -O0 stub runs.
        from repro.compiler.vm import _FIX_APPLY, _FIX_APPLY_O2

        assert _FIX_APPLY_O2.instructions == _FIX_APPLY.instructions
        assert _FIX_APPLY.caches is None
        assert len(_FIX_APPLY_O2.caches) == len(_FIX_APPLY_O2.instructions)

    def test_call_with_a_variable_argument_runs(self):
        term = Let(
            "x",
            const_int(20),
            App(Lam("y", INT, Op("+", (Var("y"), const_int(1)))), Var("x")),
        )
        for level in (0, 1, 2):
            assert run_code(compile_term(term, opt_level=level)).python_value() == 21

    def test_jump_targets_stay_in_range(self):
        for builder in (even_odd_boundary, fib_boundary, typed_loop_untyped_step):
            code = compile_term(builder(5), opt_level=2)
            for obj in all_code_objects(code):
                n = len(obj.instructions)
                targets = {
                    operand for op, operand in obj.instructions
                    if op == JUMP or op == JUMP_IF_FALSE
                }
                assert all(0 <= t <= n for t in targets), obj.name

    def test_every_o2_opcode_is_named(self):
        for code_obj in all_code_objects(compile_term(fib_boundary(6), opt_level=2)):
            for op, _ in code_obj.instructions:
                assert op in OPCODE_NAMES

    def test_branches_compute_correctly_at_every_level(self):
        # if-heavy program: its branches must land at every level.
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
        outcome0 = run(twice_boundary(3), engine="vm", opt_level=0)
        outcome2 = run(twice_boundary(3), engine="vm", opt_level=2)
        assert outcome0.value == outcome2.value == 5


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
