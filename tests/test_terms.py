"""Tests for the shared term AST: substitution, free variables, metrics, erasure."""

from __future__ import annotations

from repro.core.labels import label
from repro.core.terms import (
    App,
    Blame,
    Cast,
    Coerce,
    Const,
    Fix,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Var,
    alpha_equal,
    apply_many,
    children,
    const_bool,
    const_int,
    count_casts,
    count_coercions,
    erase,
    free_vars,
    is_closed,
    lam_many,
    map_children,
    max_adjacent_coercions,
    subst,
    subterms,
    term_size,
)
from repro.core.types import BOOL, DYN, INT, FunType
from repro.lambda_c.coercions import Identity


P = label("p")


class TestConstruction:
    def test_constant_helpers(self):
        assert const_int(3) == Const(3, INT)
        assert const_bool(True) == Const(True, BOOL)

    def test_apply_many_curries(self):
        term = apply_many(Var("f"), [const_int(1), const_int(2)])
        assert term == App(App(Var("f"), const_int(1)), const_int(2))

    def test_lam_many_curries(self):
        term = lam_many([("x", INT), ("y", BOOL)], Var("x"))
        assert term == Lam("x", INT, Lam("y", BOOL, Var("x")))


class TestTraversal:
    def test_children_of_application(self):
        term = App(Var("f"), Var("x"))
        assert children(term) == (Var("f"), Var("x"))

    def test_children_of_leaves(self):
        assert children(const_int(1)) == ()
        assert children(Var("x")) == ()
        assert children(Blame(P)) == ()

    def test_children_of_if_and_let(self):
        branch = If(Var("c"), Var("a"), Var("b"))
        assert children(branch) == (Var("c"), Var("a"), Var("b"))
        binding = Let("x", const_int(1), Var("x"))
        assert children(binding) == (const_int(1), Var("x"))

    def test_map_children_rebuilds(self):
        term = App(Var("f"), Var("x"))
        renamed = map_children(term, lambda t: Var("y") if t == Var("x") else t)
        assert renamed == App(Var("f"), Var("y"))

    def test_subterms_preorder(self):
        term = App(Lam("x", INT, Var("x")), const_int(1))
        nodes = list(subterms(term))
        assert nodes[0] == term
        assert Var("x") in nodes and const_int(1) in nodes


class TestFreeVariablesAndSubstitution:
    def test_free_vars_of_open_term(self):
        term = App(Var("f"), Lam("x", INT, App(Var("x"), Var("y"))))
        assert free_vars(term) == {"f", "y"}

    def test_lambda_binds_its_parameter(self):
        assert free_vars(Lam("x", INT, Var("x"))) == frozenset()

    def test_let_binds_only_in_the_body(self):
        term = Let("x", Var("x"), Var("x"))
        assert free_vars(term) == {"x"}

    def test_is_closed(self):
        assert is_closed(Lam("x", INT, Var("x")))
        assert not is_closed(Var("x"))

    def test_simple_substitution(self):
        term = App(Var("x"), Var("y"))
        assert subst(term, "x", const_int(1)) == App(const_int(1), Var("y"))

    def test_substitution_respects_shadowing(self):
        term = Lam("x", INT, Var("x"))
        assert subst(term, "x", const_int(1)) == term

    def test_substitution_under_a_different_binder(self):
        term = Lam("y", INT, Var("x"))
        assert subst(term, "x", const_int(1)) == Lam("y", INT, const_int(1))

    def test_capture_avoiding_substitution(self):
        # (λy. x) [x := y]   must not capture the free y.
        term = Lam("y", INT, Var("x"))
        result = subst(term, "x", Var("y"))
        assert isinstance(result, Lam)
        assert result.param != "y"
        assert result.body == Var("y")

    def test_capture_avoiding_substitution_in_let(self):
        term = Let("y", const_int(0), Var("x"))
        result = subst(term, "x", Var("y"))
        assert isinstance(result, Let)
        assert result.name != "y"
        assert result.body == Var("y")

    def test_substitution_inside_casts(self):
        term = Cast(Var("x"), INT, DYN, P)
        assert subst(term, "x", const_int(3)) == Cast(const_int(3), INT, DYN, P)


class TestMetricsAndErasure:
    def test_term_size(self):
        term = App(Lam("x", INT, Var("x")), const_int(1))
        assert term_size(term) == 4

    def test_count_casts_and_coercions(self):
        term = Cast(Coerce(const_int(1), Identity(INT)), INT, DYN, P)
        assert count_casts(term) == 1
        assert count_coercions(term) == 1

    def test_max_adjacent_coercions(self):
        nested = Coerce(Coerce(const_int(1), Identity(INT)), Identity(INT))
        assert max_adjacent_coercions(nested) == 2
        assert max_adjacent_coercions(const_int(1)) == 0

    def test_erase_removes_casts_and_coercions(self):
        term = Cast(Coerce(const_int(1), Identity(INT)), INT, DYN, P)
        assert erase(term) == const_int(1)

    def test_erase_is_structural(self):
        term = Lam("x", DYN, Cast(Var("x"), DYN, INT, P))
        assert erase(term) == Lam("x", DYN, Var("x"))

    def test_erase_preserves_extensions(self):
        term = If(const_bool(True), Pair(const_int(1), const_int(2)), Pair(const_int(3), const_int(4)))
        assert erase(term) == term


class TestAlphaEquivalence:
    def test_alpha_equal_renamed_binder(self):
        left = Lam("x", INT, Var("x"))
        right = Lam("y", INT, Var("y"))
        assert alpha_equal(left, right)

    def test_alpha_equal_requires_same_annotation(self):
        assert not alpha_equal(Lam("x", INT, Var("x")), Lam("x", DYN, Var("x")))

    def test_alpha_equal_distinguishes_free_variables(self):
        assert not alpha_equal(Var("x"), Var("y"))

    def test_alpha_equal_nested_binders(self):
        left = Lam("x", INT, Lam("y", INT, App(Var("x"), Var("y"))))
        right = Lam("a", INT, Lam("b", INT, App(Var("a"), Var("b"))))
        assert alpha_equal(left, right)

    def test_alpha_equal_let(self):
        left = Let("x", const_int(1), Var("x"))
        right = Let("y", const_int(1), Var("y"))
        assert alpha_equal(left, right)

    def test_alpha_equal_checks_cast_annotations(self):
        left = Cast(const_int(1), INT, DYN, P)
        right = Cast(const_int(1), INT, DYN, label("q"))
        assert not alpha_equal(left, right)

    def test_alpha_equal_checks_fix_types(self):
        fun = Lam("f", FunType(INT, INT), Lam("x", INT, Var("x")))
        assert not alpha_equal(Fix(fun, FunType(INT, INT)), Fix(fun, FunType(BOOL, BOOL)))

    def test_alpha_equal_pairs_and_projections(self):
        assert alpha_equal(Fst(Pair(Var("a"), Var("b"))), Fst(Pair(Var("a"), Var("b"))))
        assert not alpha_equal(Fst(Var("a")), Snd(Var("a")))

    def test_alpha_equal_ops(self):
        assert alpha_equal(Op("+", (Var("x"), const_int(1))), Op("+", (Var("x"), const_int(1))))
        assert not alpha_equal(Op("+", (Var("x"),)), Op("-", (Var("x"),)))


class TestPrettyPrinting:
    def test_cast_rendering(self):
        rendered = str(Cast(const_int(1), INT, DYN, P))
        assert "=>" in rendered and "int" in rendered and "?" in rendered

    def test_lambda_rendering(self):
        rendered = str(Lam("x", INT, Var("x")))
        assert "\\x:int" in rendered

    def test_blame_rendering(self):
        assert str(Blame(P)) == "blame p"
