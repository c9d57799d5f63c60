"""Tests for the enforcement-semantics registry and its four backends.

PRs 1–7 grew two *Natural* presentations of run-time enforcement (canonical
coercions and threesomes); this PR refactors the mediator axis into the
:mod:`repro.semantics` registry and adds two non-Natural disciplines from
the blame-evaluation literature: **Transient** (shallow ground-tag checks,
no proxies, blame may diverge from Natural by design) and **Erasure** (all
mediation elided — the speed ceiling, never blames).  The suite covers the
registry itself, the transient derivation/composition algebra, the
end-to-end 4-semantics × 3-engines matrix, the erasure elision guarantee,
image round-trips, cache-key separation, and the oracle matrix
(``check_oracle_matrix``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler import compile_term
from repro.compiler.bytecode import COERCE, COMPOSE, all_code_objects
from repro.compiler.cache import cache_key
from repro.compiler.serialize import (
    deserialize_image,
    serialize_image,
    source_fingerprint,
)
from repro.core.errors import EvaluationError, UsageError
from repro.core.labels import label
from repro.core.types import BOOL, INT, GROUND_FUN
from repro.gen.programs import (
    even_odd_boundary,
    pair_boundary_swap,
    safe_boundary_program,
    tail_countdown_boundary,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.lambda_s.coercions import (
    ID_DYN,
    FailS,
    FunCo,
    IdBase,
    Injection,
    Projection,
)
from repro.machine.policy import (
    ACT_GENERAL,
    ACT_IDENTITY,
    MachineBlame,
    SPACE_POLICY,
    THREESOME_POLICY,
)
from repro.machine.values import MConst, MPair
from repro.properties.bisimulation import check_oracle_matrix
from repro.semantics import (
    NATURAL_SEMANTICS_NAMES,
    SEMANTICS,
    SEMANTICS_NAMES,
    policy_for,
    resolve,
)
from repro.semantics.erasure import ERASED, ERASURE_POLICY, ErasedMediator
from repro.semantics.transient import (
    NO_CHECK,
    TRANSIENT_POLICY,
    TransientCheck,
    compose_transient,
    intern_transient,
    transient_of_coercion,
)
from repro import api
from repro.surface.interp import compile_source

from .strategies import lambda_b_programs

P = label("p")
Q = label("q")

ID_INT = IdBase(INT)
INT_INJ = Injection(ID_INT, INT)          # idι ; int!
INT_PROJ = Projection(INT, P, ID_INT)     # int?p ; idι


class TestRegistry:
    def test_the_four_semantics_and_their_order(self):
        assert SEMANTICS_NAMES == ("coercion", "threesome", "transient", "erasure")
        assert tuple(SEMANTICS) == SEMANTICS_NAMES

    def test_capability_flags(self):
        assert all(SEMANTICS[name].blames for name in ("coercion", "threesome", "transient"))
        assert not SEMANTICS["erasure"].blames
        assert all(sem.space_bounded for sem in SEMANTICS.values())
        assert NATURAL_SEMANTICS_NAMES == ("coercion", "threesome")
        for name in SEMANTICS_NAMES:
            assert SEMANTICS[name].natural == (name in NATURAL_SEMANTICS_NAMES)

    def test_resolve_returns_the_entry_and_rejects_unknowns(self):
        assert resolve("transient") is SEMANTICS["transient"]
        with pytest.raises(UsageError, match="unknown semantics"):
            resolve("wrapsome")

    def test_policies_are_the_backend_singletons(self):
        assert policy_for("coercion") is SPACE_POLICY
        assert policy_for("threesome") is THREESOME_POLICY
        assert policy_for("transient") is TRANSIENT_POLICY
        assert policy_for("erasure") is ERASURE_POLICY

    def test_each_machine_runs_its_own_policy(self):
        for name, sem in SEMANTICS.items():
            assert sem.machine.policy is sem.policy, name

    def test_old_dispatch_tables_are_gone(self):
        from repro.compiler import opt, vm

        assert not hasattr(opt, "_POLICIES")
        assert not hasattr(vm, "VM_BACKENDS")


class TestTransientDerivation:
    def test_injections_and_ground_coercions_check_nothing(self):
        assert transient_of_coercion(INT_INJ) is NO_CHECK
        assert transient_of_coercion(ID_INT) is NO_CHECK
        assert transient_of_coercion(ID_DYN) is NO_CHECK
        # Higher-order obligations are dropped wholesale: s → t never checks.
        assert transient_of_coercion(FunCo(INT_PROJ, Injection(ID_INT, INT))) is NO_CHECK

    def test_a_projection_becomes_a_tag_check(self):
        t = transient_of_coercion(INT_PROJ)
        assert t.checks == ((INT, P),) and t.fail is None

    def test_a_projection_over_a_failure_keeps_both(self):
        t = transient_of_coercion(Projection(GROUND_FUN, P, FailS(INT, Q, BOOL)))
        assert t.checks == ((GROUND_FUN, P),)
        assert t.fail == Q

    def test_derivation_is_memoised_on_the_interned_coercion(self):
        assert transient_of_coercion(INT_PROJ) is transient_of_coercion(
            Projection(INT, P, IdBase(INT))
        )

    def test_interning_is_structural(self):
        a = intern_transient(TransientCheck(((INT, P),), None))
        b = intern_transient(TransientCheck(((INT, P),), None))
        assert a is b
        assert intern_transient(TransientCheck(((INT, Q),), None)) is not a


class TestTransientComposition:
    def test_composition_dedups_by_ground_keeping_the_earliest_label(self):
        first = intern_transient(TransientCheck(((INT, P),)))
        second = intern_transient(TransientCheck(((INT, Q), (BOOL, Q))))
        merged = compose_transient(first, second)
        assert merged.checks == ((INT, P), (BOOL, Q))

    def test_a_failure_in_first_shadows_second(self):
        first = intern_transient(TransientCheck((), fail=P))
        second = intern_transient(TransientCheck(((INT, Q),), fail=Q))
        assert compose_transient(first, second) is first

    def test_second_failure_survives_composition(self):
        first = intern_transient(TransientCheck(((INT, P),)))
        second = intern_transient(TransientCheck((), fail=Q))
        merged = compose_transient(first, second)
        assert merged.checks == ((INT, P)) or merged.checks == ((INT, P),)
        assert merged.fail == Q

    def test_composition_is_bounded_by_the_distinct_grounds(self):
        # Iterating composition can never grow past one check per ground —
        # the space bound that lets transient reuse the one-slot discipline.
        acc = NO_CHECK
        for lab in (P, Q, label("r"), label("s")):
            acc = compose_transient(acc, intern_transient(TransientCheck(((INT, lab),))))
        assert acc.checks == ((INT, P),)
        assert TRANSIENT_POLICY.size(acc) == 2

    def test_identity_and_classification(self):
        assert TRANSIENT_POLICY.is_identity(NO_CHECK)
        assert TRANSIENT_POLICY.classify(NO_CHECK) == ACT_IDENTITY
        nonempty = intern_transient(TransientCheck(((INT, P),)))
        assert TRANSIENT_POLICY.classify(nonempty) == ACT_GENERAL


class TestTransientApply:
    def test_passing_checks_return_the_value_unwrapped(self):
        v = MConst(7, INT)
        t = intern_transient(TransientCheck(((INT, P),)))
        assert TRANSIENT_POLICY.apply(v, t) is v

    def test_tag_mismatch_blames_the_check_label(self):
        t = intern_transient(TransientCheck(((BOOL, Q),)))
        with pytest.raises(MachineBlame) as exc:
            TRANSIENT_POLICY.apply(MConst(7, INT), t)
        assert exc.value.label == Q

    def test_function_tag_rejects_a_pair(self):
        t = intern_transient(TransientCheck(((GROUND_FUN, P),)))
        pair = MPair(MConst(1, INT), MConst(2, INT))
        with pytest.raises(MachineBlame) as exc:
            TRANSIENT_POLICY.apply(pair, t)
        assert exc.value.label == P

    def test_unconditional_failure_blames_after_checks_pass(self):
        t = intern_transient(TransientCheck(((INT, P),), fail=Q))
        with pytest.raises(MachineBlame) as exc:
            TRANSIENT_POLICY.apply(MConst(7, INT), t)
        assert exc.value.label == Q

    def test_transient_never_wraps(self):
        t = intern_transient(TransientCheck(((INT, P),)))
        assert not TRANSIENT_POLICY.is_fun_proxy(t)
        assert not TRANSIENT_POLICY.is_prod_proxy(t)
        with pytest.raises(EvaluationError):
            TRANSIENT_POLICY.fun_parts(t)


class TestErasurePolicy:
    def test_erased_is_a_singleton_identity(self):
        assert isinstance(ERASED, ErasedMediator)
        assert ERASURE_POLICY.is_identity(ERASED)
        assert ERASURE_POLICY.classify(ERASED) == ACT_IDENTITY
        assert ERASURE_POLICY.size(ERASED) == 0
        assert ERASURE_POLICY.compose(ERASED, ERASED) is ERASED

    def test_apply_is_the_identity_on_values(self):
        v = MConst(3, INT)
        assert ERASURE_POLICY.apply(v, ERASED) is v


SAFE_SOURCES = (
    "(: (: 21 ?) int)",
    "((lambda ([f : (-> int int)]) (f 2)) (: (lambda (x) x) ?))",
    "(fst (: (: (pair 1 #t) ?) (* int bool)))",
)

BLAMING_SOURCE = "(: (: 21 ?) bool)"


#: The engines every semantics runs on.
ENGINES = ("machine", "vm", "rvm")


class TestFourByThreeMatrix:
    def test_all_semantics_and_engines_agree_on_safe_programs(self):
        for source in SAFE_SOURCES:
            term, _ = compile_source(source)
            expected = api.run(term, engine="machine").value
            for engine in ENGINES:
                for sem in SEMANTICS_NAMES:
                    result = api.run(term, engine=engine, semantics=sem)
                    assert result.is_value, f"{engine}/{sem}: {result.kind}"
                    assert result.value == expected, f"{engine}/{sem}"

    def test_blaming_semantics_blame_and_erasure_does_not(self):
        term, _ = compile_source(BLAMING_SOURCE)
        for engine in ENGINES:
            for sem in ("coercion", "threesome", "transient"):
                result = api.run(term, engine=engine, semantics=sem)
                assert result.is_blame, f"{engine}/{sem}"
            erased = api.run(term, engine=engine, semantics="erasure")
            assert erased.is_value and erased.value == 21, engine

    def test_transient_blame_labels_match_natural_on_first_order_projections(self):
        # For a bad base-type projection both disciplines inspect the same
        # tag under the same label, so the labels coincide here even though
        # they may diverge on higher-order programs.
        term, _ = compile_source(BLAMING_SOURCE)
        natural = api.run(term, engine="vm", semantics="coercion")
        transient = api.run(term, engine="vm", semantics="transient")
        assert natural.blame_label == transient.blame_label

    def test_erasure_never_blames_the_known_blamers(self):
        for program in (untyped_library_bad_result(), untyped_client_bad_argument()):
            for engine in ENGINES:
                result = api.run(program, engine=engine, semantics="erasure")
                assert not result.is_blame, engine


#: Erasure lets a string reach ``+``: the meaning function's TypeError.
ILL_TYPED_ERASURE_SOURCE = '((lambda ([x : ?]) (+ x 1)) (: "a" ?))'


class TestErasureOperandTypeErrors:
    @pytest.mark.parametrize("engine", ["machine", "vm", "rvm"])
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_a_primitive_type_error_is_an_evaluation_error(self, engine, opt_level):
        config = api.RunConfig(engine=engine, semantics="erasure", opt_level=opt_level)
        with pytest.raises(EvaluationError, match="operator '\\+'"):
            api.run(ILL_TYPED_ERASURE_SOURCE, config)

    def test_the_mediator_oracle_holds_on_the_term(self):
        term, _ = compile_source(ILL_TYPED_ERASURE_SOURCE)
        assert check_oracle_matrix(term).ok

    @pytest.mark.parametrize("engine", ["machine", "vm", "rvm"])
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_a_type_error_from_elsewhere_is_not_converted(
        self, engine, opt_level, monkeypatch
    ):
        # At -O2 the rvm fuses the mediator half with the operator that
        # reads its result (COERCE_BR_PRIM1): the planted error still wins.
        def planted(*_args):
            raise TypeError("planted")

        policy = policy_for("coercion")
        monkeypatch.setattr(policy, "apply", planted)
        monkeypatch.setattr(policy, "compose", planted)
        config = api.RunConfig(engine=engine, opt_level=opt_level)
        with pytest.raises(TypeError, match="planted"):
            api.run("((lambda ([x : ?]) (if (zero? x) 1 2)) 0)", config)


class TestErasureElision:
    def test_o1_removes_every_mediation_instruction(self):
        mediation = {COERCE, COMPOSE}
        for source in SAFE_SOURCES + (BLAMING_SOURCE,):
            term, _ = compile_source(source)
            for opt_level in (1, 2):
                code = compile_term(term, semantics="erasure", opt_level=opt_level)
                for obj in all_code_objects(code):
                    ops = {op for op, _ in obj.instructions}
                    assert not (ops & mediation), f"-O{opt_level}: {source}"

    def test_erased_pool_survives_at_o0(self):
        # Unoptimized code still carries the mediation instructions; the
        # pool entries are all the ERASED singleton and apply as identity.
        term, _ = compile_source(BLAMING_SOURCE)
        code = compile_term(term, semantics="erasure", opt_level=0)
        assert all(entry is ERASED for entry in code.pool.coercions)
        result = api.run(term, engine="vm", semantics="erasure", opt_level=0)
        assert result.is_value and result.value == 21


class TestSpaceBounds:
    def test_transient_pending_stays_within_the_one_slot_discipline(self):
        for program in (tail_countdown_boundary(200), even_odd_boundary(100)):
            result = api.run(program, engine="vm", semantics="transient")
            assert result.is_value
            assert result.space_stats["max_pending_mediators"] <= 1

    def test_erasure_has_no_pending_mediators_after_elision(self):
        result = api.run(even_odd_boundary(100), engine="vm", semantics="erasure")
        assert result.is_value
        assert result.space_stats["max_pending_mediators"] == 0


class TestExtendedOracle:
    def test_oracle_passes_the_four_backend_matrix_on_workloads(self):
        for program in (
            even_odd_boundary(8),
            typed_loop_untyped_step(4),
            twice_boundary(3),
            untyped_library_bad_result(),
            untyped_client_bad_argument(),
            safe_boundary_program(),
            pair_boundary_swap(),
        ):
            report = check_oracle_matrix(program)
            assert report.ok, report.reason

    @given(lambda_b_programs())
    @settings(max_examples=20, deadline=None)
    def test_oracle_on_generated_programs(self, program):
        term, _ = program
        report = check_oracle_matrix(term)
        assert report.ok, report.reason


class TestImageRoundTrips:
    def _roundtrip(self, source: str, semantics: str, opt_level: int = 0):
        term, ty = compile_source(source)
        code = compile_term(term, semantics=semantics, opt_level=opt_level)
        data = serialize_image(
            code, source_hash=source_fingerprint(source), static_type=ty
        )
        return code, deserialize_image(data)

    def test_transient_images_reintern_their_checks(self):
        code, image = self._roundtrip(BLAMING_SOURCE, "transient")
        assert image.info.semantics == "transient"
        for original, loaded in zip(code.pool.coercions, image.code.pool.coercions):
            assert loaded is original  # structural interning restores identity
        from repro.compiler.vm import run_code

        outcome = run_code(image.code)
        assert outcome.is_blame

    def test_transient_failure_entries_round_trip(self):
        source = "((lambda ([f : (-> int int)]) (f 2)) (: #t ?))"
        code, image = self._roundtrip(source, "transient")
        assert any(
            isinstance(e, TransientCheck) and (e.checks or e.fail is not None)
            for e in image.code.pool.coercions
        )

    def test_erasure_images_round_trip_to_the_singleton(self):
        code, image = self._roundtrip(BLAMING_SOURCE, "erasure")
        assert image.info.semantics == "erasure"
        assert all(entry is ERASED for entry in image.code.pool.coercions)
        from repro.compiler.vm import run_code

        outcome = run_code(image.code)
        assert outcome.is_value and outcome.python_value() == 21


class TestCacheKeys:
    def test_each_semantics_gets_its_own_cache_key(self):
        h = source_fingerprint("(: (: 21 ?) int)")
        keys = {cache_key(h, 2, name) for name in SEMANTICS_NAMES}
        assert len(keys) == 4

    def test_unknown_semantics_is_rejected_at_the_key(self):
        with pytest.raises(UsageError):
            cache_key(source_fingerprint("1"), 2, "wrapsome")


class TestSurfaceSemanticsKnob:
    def test_run_source_accepts_the_semantics_spelling(self):
        for sem in SEMANTICS_NAMES:
            result = api.run("(: (: 21 ?) int)", engine="vm", semantics=sem)
            assert result.is_value and result.value == 21
            assert result.semantics == sem

    def test_run_term_threads_transient_and_erasure_through(self):
        term, ty = compile_source(BLAMING_SOURCE)
        blamed = api.run(term, type=ty, engine="vm", semantics="transient")
        assert blamed.is_blame
        erased = api.run(term, type=ty, engine="rvm", semantics="erasure")
        assert erased.is_value and erased.value == 21

    def test_subst_engine_supports_only_the_coercion_semantics(self):
        term, ty = compile_source("(: (: 21 ?) int)")
        with pytest.raises(UsageError):
            api.run(term, type=ty, engine="subst", semantics="erasure")


class TestErasureAgreesWithNaturalProperty:
    """Satellite 3: on blame-free programs Erasure is observationally the
    Natural semantics minus enforcement — same values, never a blame exit —
    on both the stack VM and the register VM."""

    @given(lambda_b_programs())
    @settings(max_examples=30, deadline=None)
    def test_erasure_agrees_with_natural_on_blame_free_programs(self, program):
        term, _ = program
        natural = api.run(term, engine="vm")
        for engine in ("vm", "rvm"):
            try:
                erased = api.run(term, engine=engine, semantics="erasure")
            except EvaluationError:
                # The elided guard would have intercepted this as blame — a
                # dynamic type error is only legitimate when Natural did not
                # produce a value (and it is still not a blame exit).
                assert not natural.is_value
                continue
            assert not erased.is_blame  # erasure can never exit 1
            if natural.is_value and erased.is_value:
                assert erased.value == natural.value
