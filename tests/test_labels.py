"""Tests for blame labels and their involutive complement."""

from __future__ import annotations

from hypothesis import given

from repro.core.labels import BULLET, LabelSupply, complement, label

from .strategies import labels


class TestComplement:
    def test_complement_flips_polarity(self):
        p = label("p")
        assert p.positive
        assert not p.complement().positive

    @given(labels)
    def test_complement_is_involutive(self, p):
        assert p.complement().complement() == p

    @given(labels)
    def test_complement_never_equals_the_label(self, p):
        assert p.complement() != p

    @given(labels)
    def test_complement_preserves_the_name(self, p):
        assert p.complement().same_base(p)

    def test_free_function_complement(self):
        assert complement(label("p")) == label("p").complement()

    def test_base_returns_positive_version(self):
        negative = label("p").complement()
        assert negative.base() == label("p")
        assert label("p").base() == label("p")


class TestPresentation:
    def test_positive_label_renders_as_name(self):
        assert str(label("boundary")) == "boundary"

    def test_negative_label_renders_with_tilde(self):
        assert str(label("boundary").complement()) == "~boundary"

    def test_labels_are_hashable_and_ordered(self):
        pool = {label("a"), label("b"), label("a").complement()}
        assert len(pool) == 3
        assert sorted(pool)

    def test_bullet_label_exists(self):
        assert BULLET.name == "•"
        assert BULLET.positive


class TestLabelSupply:
    def test_fresh_labels_are_distinct(self):
        supply = LabelSupply()
        drawn = [supply.fresh() for _ in range(10)]
        assert len(set(drawn)) == 10

    def test_fresh_labels_embed_the_hint(self):
        supply = LabelSupply(prefix="loc")
        fresh = supply.fresh("app")
        assert fresh.name.startswith("loc")
        assert "app" in fresh.name

    def test_fresh_many(self):
        supply = LabelSupply()
        drawn = list(supply.fresh_many(5))
        assert len(drawn) == 5
        assert len(set(drawn)) == 5

    def test_separate_supplies_are_independent(self):
        first = LabelSupply(prefix="a")
        second = LabelSupply(prefix="b")
        assert first.fresh() != second.fresh()
