"""Tests for the supercoercion baseline of §6.3 (Garcia 2013)."""

from __future__ import annotations

from repro.core.labels import label
from repro.core.types import BOOL, DYN, GROUND_FUN, INT
from repro.lambda_c.coercions import (
    Fail,
    FunCoercion,
    Identity,
    Inject,
    Project,
    Sequence,
    check_coercion,
)
from repro.lambda_s.coercions import (
    FailS,
    FunCo,
    IdBase,
    IdDyn,
    Injection,
    Projection,
)
from repro.supercoercions import (
    SArrow,
    SFail,
    SFailProj,
    SIdentity,
    SInject,
    SProject,
    SProjectInject,
    canonical_meaning,
    compose_via_meanings,
    meaning,
)
from repro.translate.c_to_s import coercion_to_space

P = label("p")
Q = label("q")
L1, L2 = label("l1"), label("l2")


class TestMeaningFunction:
    """Each clause of the paper's N(·) table."""

    def test_identity(self):
        assert meaning(SIdentity(INT)) == Identity(INT)
        assert meaning(SIdentity(DYN)) == Identity(DYN)

    def test_fail(self):
        assert meaning(SFail(L1, INT, BOOL)) == Fail(INT, L1, BOOL)

    def test_fail_with_projection(self):
        assert meaning(SFailProj(L1, INT, L2, BOOL)) == Sequence(
            Project(INT, L2), Fail(INT, L1, BOOL)
        )

    def test_injection_and_projection(self):
        assert meaning(SInject(INT)) == Inject(INT)
        assert meaning(SProject(INT, P)) == Project(INT, P)

    def test_projection_then_injection(self):
        assert meaning(SProjectInject(INT, P)) == Sequence(Project(INT, P), Inject(INT))

    def test_plain_arrow(self):
        sc = SArrow(SIdentity(DYN), SIdentity(DYN))
        assert meaning(sc) == FunCoercion(Identity(DYN), Identity(DYN))

    def test_arrow_with_injection_after(self):
        sc = SArrow(SIdentity(DYN), SIdentity(DYN), inject_after=True)
        assert meaning(sc) == Sequence(
            FunCoercion(Identity(DYN), Identity(DYN)), Inject(GROUND_FUN)
        )

    def test_arrow_with_projection_before(self):
        sc = SArrow(SIdentity(DYN), SIdentity(DYN), project_label=P)
        assert meaning(sc) == Sequence(
            Project(GROUND_FUN, P), FunCoercion(Identity(DYN), Identity(DYN))
        )

    def test_arrow_with_both(self):
        sc = SArrow(SIdentity(DYN), SIdentity(DYN), inject_after=True, project_label=P)
        expected = Sequence(
            Sequence(Project(GROUND_FUN, P), FunCoercion(Identity(DYN), Identity(DYN))),
            Inject(GROUND_FUN),
        )
        assert meaning(sc) == expected


class TestCanonicalForms:
    """The canonical λS form of every supercoercion shape."""

    def test_identity_and_primitives(self):
        assert canonical_meaning(SIdentity(INT)) == IdBase(INT)
        assert canonical_meaning(SIdentity(DYN)) == IdDyn()
        assert canonical_meaning(SInject(INT)) == Injection(IdBase(INT), INT)
        assert canonical_meaning(SProject(INT, P)) == Projection(INT, P, IdBase(INT))

    def test_projection_then_injection_stays_canonical(self):
        canonical = canonical_meaning(SProjectInject(INT, P))
        assert canonical == Projection(INT, P, Injection(IdBase(INT), INT))

    def test_fail_forms(self):
        assert canonical_meaning(SFail(L1, INT, BOOL)) == FailS(INT, L1, BOOL)
        assert canonical_meaning(SFailProj(L1, INT, L2, BOOL)) == Projection(
            INT, L2, FailS(INT, L1, BOOL)
        )

    def test_arrow_forms(self):
        plain = canonical_meaning(SArrow(SIdentity(DYN), SIdentity(DYN)))
        assert plain == FunCo(IdDyn(), IdDyn())
        wrapped = canonical_meaning(
            SArrow(SIdentity(DYN), SIdentity(DYN), inject_after=True, project_label=P)
        )
        assert wrapped == Projection(
            GROUND_FUN, P, Injection(FunCo(IdDyn(), IdDyn()), GROUND_FUN)
        )

    def test_meanings_are_well_typed(self):
        cases = [
            (SIdentity(INT), INT),
            (SInject(INT), INT),
            (SProject(INT, P), DYN),
            (SProjectInject(INT, P), DYN),
            (SFailProj(L1, INT, L2, BOOL), DYN),
            (SArrow(SIdentity(DYN), SIdentity(DYN), inject_after=True, project_label=P), DYN),
        ]
        for sc, source in cases:
            check_coercion(meaning(sc), source)  # must not raise


class TestCompositionViaSharp:
    """The ten-line # subsumes Garcia's sixty-case composition table."""

    def test_injection_meets_projection(self):
        assert compose_via_meanings(SInject(INT), SProject(INT, P)) == IdBase(INT)
        assert compose_via_meanings(SInject(INT), SProject(BOOL, P)) == FailS(INT, P, BOOL)

    def test_round_trip_then_round_trip(self):
        once = compose_via_meanings(SProjectInject(INT, P), SProjectInject(INT, Q))
        assert once == Projection(INT, P, Injection(IdBase(INT), INT))

    def test_arrow_meets_projection_arrow(self):
        exported = SArrow(SIdentity(DYN), SIdentity(DYN), inject_after=True)
        imported = SArrow(SIdentity(DYN), SIdentity(DYN), project_label=Q)
        composed = compose_via_meanings(exported, imported)
        assert composed == FunCo(IdDyn(), IdDyn())

    def test_agrees_with_composing_the_meanings_in_lambda_c(self):
        pairs = [
            (SInject(INT), SProject(INT, P)),
            (SProjectInject(INT, P), SProjectInject(INT, Q)),
            (
                SArrow(SIdentity(DYN), SIdentity(DYN), inject_after=True),
                SArrow(SIdentity(DYN), SIdentity(DYN), project_label=Q),
            ),
        ]
        for first, second in pairs:
            via_sharp = compose_via_meanings(first, second)
            via_sequence = coercion_to_space(Sequence(meaning(first), meaning(second)))
            assert via_sharp == via_sequence
