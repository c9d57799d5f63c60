"""Tests for the threesome (labeled-type) baseline of §6.1.

The central claim checked here is the paper's own validation strategy:
"perhaps the easiest way to validate the [threesome composition] equations is
to translate to coercions" — so we check that composing labeled types with
``∘`` agrees with composing canonical coercions with ``#`` through the
representation maps.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import label
from repro.core.types import BOOL, DYN, GROUND_FUN, INT, FunType
from repro.gen.coercions_gen import (
    random_composable_space_pair,
    random_space_coercion,
)
from repro.gen.types_gen import random_type
from repro.lambda_s.coercions import (
    FailS,
    IdBase,
    Injection,
    Projection,
    compose,
    intern_space,
    is_canonical_identity,
)
from repro.machine.policy import ThreesomePolicy
from repro.threesomes import (
    DYN_LABELED,
    LArrow,
    LBase,
    LDyn,
    LFail,
    Threesome,
    coercion_of_threesome,
    compose_labeled,
    compose_labeled_memo,
    compose_threesome,
    coercion_of_labeled,
    ground_of_labeled,
    intern_labeled,
    intern_threesome,
    is_interned_threesome,
    labeled_of_cast,
    labeled_of_coercion,
    source_type_of,
    target_type_of,
    threesome_of_coercion,
    top_label,
    with_top_label,
)
from repro.translate.b_to_s import cast_to_space

P = label("p")
Q = label("q")


class TestRepresentation:
    def test_labeled_type_of_simple_coercions(self):
        assert labeled_of_coercion(IdBase(INT)) == LBase(INT, None)
        assert labeled_of_coercion(Injection(IdBase(INT), INT)) == LBase(INT, None)
        assert labeled_of_coercion(Projection(INT, P, IdBase(INT))) == LBase(INT, P)
        assert labeled_of_coercion(FailS(INT, P, BOOL)) == LFail(P, INT, None)
        assert labeled_of_coercion(Projection(INT, Q, FailS(INT, P, BOOL))) == LFail(P, INT, Q)

    def test_labeled_type_of_casts(self):
        assert labeled_of_cast(INT, P, DYN) == LBase(INT, None)
        assert labeled_of_cast(DYN, P, INT) == LBase(INT, P)
        arrow = labeled_of_cast(DYN, P, FunType(INT, BOOL))
        assert isinstance(arrow, LArrow) and arrow.label == P

    def test_top_label_manipulation(self):
        base = LBase(INT, None)
        assert top_label(base) is None
        assert top_label(with_top_label(base, P)) == P
        assert ground_of_labeled(LArrow(DYN_LABELED, DYN_LABELED)) == GROUND_FUN

    def test_round_trip_through_coercions_for_casts(self):
        for source, target in [(INT, DYN), (DYN, INT), (FunType(INT, INT), DYN)]:
            labeled = labeled_of_cast(source, P, target)
            back = coercion_of_labeled(labeled, source, target)
            direct = cast_to_space(source, P, target)
            # The injection half of a threesome never blames, so compare the
            # representations (which forget the injection's bullet labels).
            assert labeled_of_coercion(back) == labeled_of_coercion(direct)


class TestCompositionEquations:
    def test_base_composition_keeps_the_earlier_label(self):
        assert compose_labeled(LBase(INT, P), LBase(INT, Q)) == LBase(INT, P)
        assert compose_labeled(LBase(INT, None), LBase(INT, Q)) == LBase(INT, None)

    def test_dyn_is_a_unit(self):
        assert compose_labeled(DYN_LABELED, LBase(INT, P)) == LBase(INT, P)
        assert compose_labeled(LBase(INT, P), DYN_LABELED) == LBase(INT, P)

    def test_ground_mismatch_fails_with_the_later_label(self):
        result = compose_labeled(LBase(INT, P), LBase(BOOL, Q))
        assert result == LFail(Q, INT, P)

    def test_fail_absorbs_on_the_left(self):
        fail = LFail(P, INT, None)
        assert compose_labeled(fail, LBase(BOOL, Q)) == fail

    def test_fail_on_the_right_matching_ground(self):
        result = compose_labeled(LBase(INT, P), LFail(Q, INT, label("r")))
        assert result == LFail(Q, INT, P)

    def test_fail_on_the_right_mismatched_ground(self):
        result = compose_labeled(LBase(INT, P), LFail(Q, BOOL, label("r")))
        assert result == LFail(label("r"), INT, P)

    def test_arrow_composition_is_contravariant(self):
        first = LArrow(LBase(INT, P), LBase(INT, None), Q)
        second = LArrow(LBase(INT, None), LBase(INT, label("r")), None)
        composed = compose_labeled(first, second)
        assert isinstance(composed, LArrow)
        assert composed.label == Q
        assert composed.dom == LBase(INT, None)


class TestAgreementWithSharp:
    """∘ and # compute the same composition, through the representation maps."""

    def test_first_order_round_trip(self):
        s = cast_to_space(INT, P, DYN)
        t = cast_to_space(DYN, Q, INT)
        assert compose_labeled(labeled_of_coercion(s), labeled_of_coercion(t)) == labeled_of_coercion(
            compose(s, t)
        )

    def test_failing_round_trip(self):
        s = cast_to_space(INT, P, DYN)
        t = cast_to_space(DYN, Q, BOOL)
        assert compose_labeled(labeled_of_coercion(s), labeled_of_coercion(t)) == labeled_of_coercion(
            compose(s, t)
        )

    def test_higher_order_round_trip(self):
        fun = FunType(INT, BOOL)
        s = cast_to_space(fun, P, DYN)
        t = cast_to_space(DYN, Q, fun)
        assert compose_labeled(labeled_of_coercion(s), labeled_of_coercion(t)) == labeled_of_coercion(
            compose(s, t)
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agreement_on_random_composable_coercions(self, seed):
        rng = random.Random(seed)
        s, t, *_ = random_composable_space_pair(rng, length=2, depth=3)
        via_threesomes = compose_labeled(labeled_of_coercion(s), labeled_of_coercion(t))
        via_sharp = labeled_of_coercion(compose(s, t))
        assert via_threesomes == via_sharp


class TestIsomorphismRoundTrip:
    """``coercion_to_labeled ∘ labeled_to_coercion`` is the identity up to
    interning (the §6.1 one-to-one correspondence, property-tested)."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_threesome_round_trip_is_identity_up_to_interning(self, seed):
        rng = random.Random(seed)
        s, _, _ = random_space_coercion(rng, length=3, depth=3)
        threesome = threesome_of_coercion(s)
        back = coercion_of_threesome(threesome)
        # The correspondence is between labeled types and canonical coercions
        # with the endpoint types given externally (the coercion forgets the
        # never-blaming injection labels and ⊥'s informal type annotations),
        # so the round trip is the identity on the mediating labeled type —
        # as the *same interned node*, not merely an equal one.
        assert intern_labeled(labeled_of_coercion(back)) is threesome.mid
        assert threesome_of_coercion(back).mid is threesome.mid

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_labeled_round_trip_through_the_derived_types(self, seed):
        rng = random.Random(seed)
        s, _, _ = random_space_coercion(rng, length=3, depth=3)
        labeled = labeled_of_coercion(s)
        back = coercion_of_labeled(labeled, source_type_of(s), target_type_of(s))
        assert labeled_of_coercion(back) == labeled

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_interning_is_idempotent_and_canonical(self, seed):
        rng = random.Random(seed)
        s, _, _ = random_space_coercion(rng, length=2, depth=3)
        labeled = labeled_of_coercion(s)
        canon = intern_labeled(labeled)
        assert intern_labeled(canon) is canon
        assert intern_labeled(labeled_of_coercion(s)) is canon
        threesome = threesome_of_coercion(s)
        assert is_interned_threesome(threesome)
        assert intern_threesome(threesome) is threesome
        assert threesome_of_coercion(s) is threesome


class TestFailureAbsorption:
    """``⊥`` absorption laws of ``∘`` on hypothesis-generated coercions."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["l1", "l2"]),
        st.sampled_from([INT, BOOL, GROUND_FUN]),
        st.one_of(st.none(), st.just(label("pp"))),
    )
    def test_fail_absorbs_everything_on_its_right(self, seed, fail_name, ground, top):
        rng = random.Random(seed)
        s, _, _ = random_space_coercion(rng, length=2, depth=3)
        failure = LFail(label(fail_name), ground, top)
        assert compose_labeled(failure, labeled_of_coercion(s)) == failure

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["l1", "l2"]))
    def test_fail_on_the_right_blames_by_ground_agreement(self, seed, fail_name):
        rng = random.Random(seed)
        s, _, _ = random_space_coercion(rng, length=2, depth=3)
        labeled = labeled_of_coercion(s)
        if isinstance(labeled, (LDyn, LFail)):
            return  # the laws below concern structural left-hand sides
        fail_label = label(fail_name)
        ground = ground_of_labeled(labeled)
        # Matching ground: the failure keeps its own label, inheriting the
        # earlier projection label.
        matching = LFail(fail_label, ground, label("q"))
        assert compose_labeled(labeled, matching) == LFail(
            fail_label, ground, top_label(labeled)
        )
        # Mismatched ground with a projection prefix: the projection fires
        # first, so *its* label is blamed.
        other = INT if ground != INT else BOOL
        mismatched = LFail(fail_label, other, label("q"))
        assert compose_labeled(labeled, mismatched) == LFail(
            label("q"), ground, top_label(labeled)
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_memoised_composition_agrees_with_the_plain_one(self, seed):
        rng = random.Random(seed)
        s, t, *_ = random_composable_space_pair(rng, length=2, depth=3)
        p, q = labeled_of_coercion(s), labeled_of_coercion(t)
        plain = compose_labeled(p, q)
        memoised = compose_labeled_memo(p, q)
        assert memoised == plain
        assert intern_labeled(memoised) is memoised

    def test_memoised_composition_hits_its_cache(self):
        # Same diagnostic surface as compose_memo_stats for λS's #.
        from repro.threesomes import compose_labeled_memo_stats

        p = labeled_of_coercion(cast_to_space(INT, P, DYN))
        q = labeled_of_coercion(cast_to_space(DYN, Q, INT))
        compose_labeled_memo(p, q)  # populate
        before = compose_labeled_memo_stats()["hits"]
        for _ in range(5):
            compose_labeled_memo(p, q)
        after = compose_labeled_memo_stats()
        assert after["hits"] >= before + 5
        assert after["entries"] >= 1

    def test_identity_threesomes_are_recognised(self):
        from repro.lambda_s.coercions import ID_DYN, IdBase, Injection
        from repro.threesomes import is_identity_threesome

        assert is_identity_threesome(threesome_of_coercion(ID_DYN))
        assert is_identity_threesome(threesome_of_coercion(IdBase(INT)))
        # An injection mediates int ⇒ ?, so it is *not* an identity even
        # though its labeled type is a bare base type.
        assert not is_identity_threesome(
            threesome_of_coercion(Injection(IdBase(INT), INT))
        )
        assert not is_identity_threesome(
            threesome_of_coercion(cast_to_space(DYN, P, INT))
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_compose_threesome_agrees_with_sharp(self, seed):
        rng = random.Random(seed)
        s, t, *_ = random_composable_space_pair(rng, length=2, depth=3)
        composed = compose_threesome(threesome_of_coercion(s), threesome_of_coercion(t))
        assert composed.mid == intern_labeled(labeled_of_coercion(compose(s, t)))


class TestIdentityMemo:
    """The optimizer's identity test on a threesome is answered once per
    interned threesome; the answer must be what reading the threesome back
    as a canonical coercion gives."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_memoized_is_identity_agrees_with_the_coercion(self, seed):
        rng = random.Random(seed)
        s, _, _ = random_space_coercion(rng, length=3, depth=3)
        ty = random_type(rng, 3)
        identity = intern_space(cast_to_space(ty, P, ty))  # id? → id?, idι × idι, …
        policy = ThreesomePolicy()
        for t in (threesome_of_coercion(s), threesome_of_coercion(identity)):
            expected = is_canonical_identity(coercion_of_threesome(t))
            assert policy.is_identity(t) is expected  # computed
            assert policy.is_identity(t) is expected  # from the memo
            assert policy.is_identity(Threesome(t.source, t.mid, t.target)) is expected
        assert policy.is_identity(threesome_of_coercion(identity))
