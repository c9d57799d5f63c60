"""The interning (hash-consing) layer and the memoised hot paths built on it.

Three families of properties:

* interned construction is *idempotent* and canonical — interning twice is
  the same object, and pointer equality on canonical representatives
  coincides with structural equality;
* the memoised predicates (``compatible``, ``types_equal``, ``ground_of``)
  and the memoised composition ``compose_memo`` agree with their unmemoized
  reference implementations on generated inputs;
* the CEK machine engine (which runs entirely on interned mediators) agrees
  with the substitution-based reference oracle on the workload programs and
  on randomly generated λB programs.
"""

from __future__ import annotations

from copy import deepcopy

import pytest
from hypothesis import given

from repro.core.intern import intern_stats, intern_type, is_interned_type
from repro.core.types import (
    BOOL,
    DYN,
    GROUND_FUN,
    GROUND_PROD,
    INT,
    UNKNOWN,
    DynType,
    FunType,
    ProdType,
    compatible,
    compatible_unmemoized,
    ground_of,
    ground_of_unmemoized,
    types_equal,
    types_equal_unmemoized,
)
from repro.gen.programs import (
    deep_cast_chain,
    even_odd_boundary,
    fib_boundary,
    pair_boundary_swap,
    safe_boundary_program,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.lambda_c.coercions import intern_coercion, is_interned_coercion
from repro.lambda_s.coercions import (
    compose,
    compose_memo,
    compose_memo_stats,
    intern_space,
    is_interned_space,
)
from repro.properties.bisimulation import check_engine_oracle, check_engine_oracle_all

from .strategies import (
    composable_space_coercions,
    lambda_b_programs,
    lambda_c_coercions,
    space_coercions,
    types,
)


# ---------------------------------------------------------------------------
# Interned construction: idempotent, canonical, equality-preserving
# ---------------------------------------------------------------------------


class TestTypeInterning:
    @given(types())
    def test_idempotent(self, ty):
        canon = intern_type(ty)
        assert intern_type(canon) is canon
        assert is_interned_type(canon)

    @given(types())
    def test_interning_preserves_structural_equality(self, ty):
        assert intern_type(ty) == ty

    @given(types(), types())
    def test_pointer_equality_iff_structural_equality(self, a, b):
        assert (intern_type(a) is intern_type(b)) == (a == b)

    @given(types())
    def test_deep_copies_intern_to_the_same_node(self, ty):
        assert intern_type(ty) is intern_type(deepcopy(ty))

    def test_singletons_are_canonical(self):
        assert intern_type(DynType()) is DYN
        assert intern_type(FunType(DYN, DYN)) is GROUND_FUN
        assert intern_type(ProdType(DYN, DYN)) is GROUND_PROD

    def test_children_of_interned_types_are_interned(self):
        canon = intern_type(FunType(ProdType(INT, BOOL), DYN))
        assert is_interned_type(canon.dom)
        assert is_interned_type(canon.dom.left)
        assert canon.cod is DYN

    def test_stats_exposed_for_all_tables(self):
        stats = intern_stats()
        assert {"types", "coercions_c", "coercions_s"} <= set(stats)
        for table in stats.values():
            assert {"entries", "hits", "misses"} <= set(table)


class TestCoercionInterning:
    @given(lambda_c_coercions())
    def test_lambda_c_idempotent_and_equal(self, triple):
        coercion, _, _ = triple
        canon = intern_coercion(coercion)
        assert intern_coercion(canon) is canon
        assert is_interned_coercion(canon)
        assert canon == coercion

    @given(lambda_c_coercions())
    def test_lambda_c_deep_copies_share_a_node(self, triple):
        coercion, _, _ = triple
        assert intern_coercion(coercion) is intern_coercion(deepcopy(coercion))

    @given(space_coercions())
    def test_lambda_s_idempotent_and_equal(self, triple):
        coercion, _, _ = triple
        canon = intern_space(coercion)
        assert intern_space(canon) is canon
        assert is_interned_space(canon)
        assert canon == coercion

    @given(space_coercions())
    def test_lambda_s_deep_copies_share_a_node(self, triple):
        coercion, _, _ = triple
        assert intern_space(coercion) is intern_space(deepcopy(coercion))


class TestSignatures:
    """One field signature per node class drives interning and the image
    node tables, so every class of a family must have one, of the right
    length."""

    @staticmethod
    def _families():
        from repro.core.intern import TYPE_TABLE
        from repro.core.subtyping import BottomType
        from repro.core.types import Type
        from repro.lambda_c.coercions import COERCION_TABLE, Coercion
        from repro.lambda_s.coercions import SPACE_TABLE, SpaceCoercion
        from repro.threesomes.labeled_types import LabeledType
        from repro.threesomes.runtime import LABELED_TABLE

        # The pointed type ⊥ of §5.2 lives only in the subtyping relations
        # and is never interned.
        return [(Type, TYPE_TABLE, {BottomType}), (Coercion, COERCION_TABLE, set()),
                (SpaceCoercion, SPACE_TABLE, set()), (LabeledType, LABELED_TABLE, set())]

    def test_every_concrete_node_class_has_a_signature_of_its_field_count(self):
        from dataclasses import fields, is_dataclass

        for base, table, outside in self._families():
            pending, concrete = [base], set()
            while pending:
                for sub in pending.pop().__subclasses__():
                    pending.append(sub)
                    if is_dataclass(sub):
                        concrete.add(sub)
            assert concrete - outside == set(table.sigs), table.name
            for cls, sig in table.sigs.items():
                assert len(sig) == len(fields(cls)), f"{cls.__name__}: {sig!r}"
                assert set(sig) <= set("ntTlLs"), f"{cls.__name__}: {sig!r}"

    def test_node_lookup_returns_the_interned_node(self):
        from repro.core.intern import TYPE_TABLE

        canon = intern_type(FunType(ProdType(INT, BOOL), DYN))
        assert TYPE_TABLE.node(FunType, [canon.dom, DYN]) is canon
        assert TYPE_TABLE.node(ProdType, [DYN, DYN]) is GROUND_PROD


class TestAliasTable:
    def test_a_full_alias_table_is_cleared_and_interning_stays_canonical(self, monkeypatch):
        from repro.core.intern import TYPE_TABLE, Interner

        monkeypatch.setattr(Interner, "MAX_ALIASES", 8)
        canon = intern_type(FunType(INT, BOOL))
        copies = [FunType(INT, BOOL) for _ in range(50)]
        for copy in copies:
            assert intern_type(copy) is canon
            assert len(TYPE_TABLE._aliases) <= 8
        # A copy whose alias was cleared re-interns through its key.
        assert all(intern_type(copy) is canon for copy in copies)


# ---------------------------------------------------------------------------
# Memoised operations agree with the reference implementations
# ---------------------------------------------------------------------------


class TestMemoisedPredicates:
    @given(types(), types())
    def test_compatible_agrees(self, a, b):
        assert compatible(a, b) == compatible_unmemoized(a, b)

    @given(types(), types())
    def test_types_equal_agrees(self, a, b):
        assert types_equal(a, b) == types_equal_unmemoized(a, b)

    @given(types())
    def test_types_equal_wildcard_and_reflexivity(self, ty):
        assert types_equal(ty, ty)
        assert types_equal(ty, UNKNOWN) and types_equal(UNKNOWN, ty)

    @given(types())
    def test_ground_of_agrees(self, ty):
        if isinstance(ty, DynType):
            with pytest.raises(ValueError):
                ground_of(ty)
            with pytest.raises(ValueError):
                ground_of_unmemoized(ty)
        else:
            assert ground_of(ty) == ground_of_unmemoized(ty)


class TestMemoisedComposition:
    @given(composable_space_coercions())
    def test_compose_memo_agrees_with_compose(self, pair):
        s, t, *_ = pair
        assert compose_memo(s, t) == compose(s, t)

    @given(composable_space_coercions())
    def test_compose_memo_returns_the_canonical_node(self, pair):
        s, t, *_ = pair
        result = compose_memo(s, t)
        assert is_interned_space(result)
        assert compose_memo(s, t) is result  # second call is a cache hit

    def test_repeated_merges_hit_the_cache(self):
        from repro.core.labels import Label
        from repro.translate.b_to_s import cast_to_space

        s = cast_to_space(INT, Label("memo-in"), DYN)
        t = cast_to_space(DYN, Label("memo-out"), INT)
        first = compose_memo(s, t)
        before = compose_memo_stats()["hits"]
        for _ in range(5):
            assert compose_memo(s, t) is first
        assert compose_memo_stats()["hits"] >= before + 5


# ---------------------------------------------------------------------------
# The machine engine against the substitution oracle
# ---------------------------------------------------------------------------

ORACLE_WORKLOADS = {
    "even_odd_10": even_odd_boundary(10),
    "typed_loop_8": typed_loop_untyped_step(8),
    "fib_6": fib_boundary(6),
    "twice_3": twice_boundary(3),
    "deep_chain_5": deep_cast_chain(5),
    "pair_swap": pair_boundary_swap(),
    "positive_blame": untyped_library_bad_result(),
    "negative_blame": untyped_client_bad_argument(),
    "safe_boundary": safe_boundary_program(),
}


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("calculus", ["B", "C", "S"])
    @pytest.mark.parametrize("name", sorted(ORACLE_WORKLOADS))
    def test_workloads(self, name, calculus):
        report = check_engine_oracle(
            ORACLE_WORKLOADS[name], calculus, strict_timeouts=True
        )
        assert report.ok, f"{name}/{calculus}: {report.reason}"

    @given(lambda_b_programs())
    def test_generated_programs(self, program):
        term, _ = program
        report = check_engine_oracle_all(term)
        assert report.ok, report.reason


class TestEngineSelection:
    def test_run_term_engines_agree(self):
        from repro.api import run

        source = "((lambda ([x : int]) (* x x)) (: 7 ?))"
        for calculus in ("B", "C", "S"):
            machine = run(source, calculus=calculus, engine="machine")
            oracle = run(source, calculus=calculus, engine="subst")
            assert machine.engine == "machine" and oracle.engine == "subst"
            assert machine.is_value and oracle.is_value
            assert machine.value == oracle.value == 49

    def test_unknown_engine_rejected(self):
        from repro.api import run

        with pytest.raises(ValueError):
            run("1", engine="warp-drive")

    def test_cli_engine_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.grad"
        path.write_text("(* 6 7)\n")
        assert main(["run", str(path), "--engine", "subst"]) == 0
        assert main(["run", str(path), "--engine", "machine"]) == 0
        assert main(["run", str(path), "--small-step"]) == 0
        out = capsys.readouterr().out
        assert out.count("42") == 3
