"""Differential tests for lowering.

``lower_term`` lowers an elaborated λB term in one walk, translating each
cast with ``|·|BS`` where it finds it, into code over canonical coercions
that no semantics has touched; ``with_semantics`` then maps it into each
semantics.  What comes out must be byte for byte what the lowering did
when it lowered every semantics separately (``tests/reference_lower.py``,
a verbatim copy of it): every code object's instructions, local count and
local names, the constant pool (coercions compared by identity), the
register words converted from it, and the serialized image bytes of both
IRs.  It must also be what lowering the term's λS image gives, with the
image made by the paper's translation ``b_to_s``.  The compiled engines'
own entry points are checked (``compile_term``,
``compile_register_program``, and ``compile_image`` fed the lowered
program, as the worker memo feeds it), under every semantics at every
``-O`` level, and the lowered program must come out of all of them
unchanged.  Programs are drawn from the shipped examples,
``generate_corpus`` (as partly untyped lattice configurations: a fully
annotated program has no casts) and hypothesis, as lattice configurations
and random λB terms.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler import (
    OPT_LEVELS,
    all_code_objects,
    all_rcodes,
    compile_register_program,
    compile_registers,
    compile_term,
    lower,
    opt,
    vm,
)
from repro.compiler.bytecode import COERCE
from repro.compiler.cache import compile_image
from repro.compiler.lower import cast_coercion, lower_program, lower_term, with_semantics
from repro.compiler.serialize import serialize_image
from repro.core.labels import Label
from repro.core.terms import Cast, Const, Lam, Pair, Var, count_casts
from repro.core.types import DYN, INT, FunType
from repro.experiment.lattice import ProgramLattice, render_configuration
from repro.gen.surface_programs import generate_corpus
from repro.lambda_s.coercions import intern_space
from repro.semantics import SEMANTICS_NAMES
from repro.surface.interp import compile_source
from repro.translate import b_to_s
from repro.translate.b_to_s import cast_to_space

from .reference_lower import lower_program as reference_lower_program
from .strategies import compatible_type_pairs, labels, lambda_b_programs, lattice_configurations

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples" / "programs").glob("*.grad"))


def _half_untyped(source: str) -> str:
    """``source`` with every other annotatable binding left unannotated."""
    lattice = ProgramLattice.from_source(source)
    return render_configuration(lattice, set(lattice.typeable_names[::2]))[0]


CORPUS = [(name, _half_untyped(source))
          for name, source in generate_corpus(64, seed=16, bindings=8)]


def _shape(code) -> list[tuple]:
    return [(obj.name, obj.instructions, obj.n_free, obj.n_locals, obj.param, obj.local_names)
            for obj in all_code_objects(code)]


def _assert_same_code(code, expected, where) -> None:
    assert _shape(code) == _shape(expected), where
    pool, reference = code.pool, expected.pool
    assert (pool.semantics, pool.consts, pool.labels, pool.prims) == (
        reference.semantics, reference.consts, reference.labels, reference.prims), where
    assert len(pool.coercions) == len(reference.coercions), where
    assert all(a is b for a, b in zip(pool.coercions, reference.coercions)), where


def _words(rcode) -> list[tuple]:
    return [(tuple(r.words), r.const_regs, r.n_regs) for r in all_rcodes(rcode)]


def _image_bytes(image) -> bytes:
    info = image.info
    return serialize_image(image.code, info.source_hash, info.static_type, info.ir)


def _assert_lowers_like_b_to_s(term_b) -> None:
    term_s = b_to_s(term_b)
    lowered = lower_term(term_b)
    before = _shape(lowered), list(lowered.pool.coercions)
    _assert_same_code(lowered, lower_program(term_s), "canonical")
    for semantics in SEMANTICS_NAMES:
        def reference():
            return reference_lower_program(term_b, "<main>", semantics, lambda_b=True)

        _assert_same_code(with_semantics(lowered, semantics), reference(), semantics)
        _assert_same_code(lower_program(term_s, "<main>", semantics), reference(), semantics)
        for level in OPT_LEVELS:
            where = (semantics, level)
            stack = compile_term(term_b, semantics, level)
            expected = vm.optimize(reference(), level)
            _assert_same_code(stack, expected, where)
            expected_bytes = serialize_image(expected)
            assert serialize_image(stack) == expected_bytes, where
            image = compile_image(lowered, "", None, semantics, level, "stack")
            assert _image_bytes(image) == expected_bytes, where

            rcode = compile_register_program(term_b, semantics, level)
            expected_rcode = compile_registers(opt.optimize(reference(), level))
            assert _words(rcode) == _words(expected_rcode), where
            expected_bytes = serialize_image(expected_rcode, ir="register")
            assert serialize_image(rcode, ir="register") == expected_bytes, where
            image = compile_image(lowered, "", None, semantics, level, "register")
            assert _image_bytes(image) == expected_bytes, where
    assert (_shape(lowered), list(lowered.pool.coercions)) == before


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_shipped_examples_lower_like_b_to_s(path):
    _assert_lowers_like_b_to_s(compile_source(path.read_text())[0])


@pytest.mark.parametrize("name, source", CORPUS, ids=[name for name, _ in CORPUS])
def test_generated_corpus_lowers_like_b_to_s(name, source):
    _assert_lowers_like_b_to_s(compile_source(source)[0])


def test_generated_corpus_has_casts():
    # Otherwise the corpus test above would not exercise cast lowering.
    assert all(count_casts(compile_source(source)[0]) for _, source in CORPUS)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lattice_configurations())
def test_lattice_configurations_lower_like_b_to_s(source):
    _assert_lowers_like_b_to_s(compile_source(source)[0])


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lambda_b_programs())
def test_random_terms_lower_like_b_to_s(program):
    _assert_lowers_like_b_to_s(program[0])


class TestCastMemo:
    """Each distinct cast ``(A, p, B)`` is translated once per process."""

    P = Label("p")

    def test_equal_casts_share_one_pool_entry(self):
        # Two sites casting ?→? to int→int, each with its own type objects.
        def site():
            return Cast(Lam("x", DYN, Var("x")), FunType(DYN, DYN), FunType(INT, INT), self.P)

        code = lower_term(Pair(site(), site()))
        canon = cast_coercion(FunType(DYN, DYN), self.P, FunType(INT, INT))
        assert canon is intern_space(cast_to_space(FunType(DYN, DYN), self.P, FunType(INT, INT)))
        assert code.pool.coercions == [canon]
        assert [operand for op, operand in code.instructions if op == COERCE] == [0, 0]

    def test_a_label_and_its_complement_stay_apart(self):
        bar = self.P.complement()
        positive, negative = cast_coercion(DYN, self.P, INT), cast_coercion(DYN, bar, INT)
        assert positive is not negative
        assert positive is intern_space(cast_to_space(DYN, self.P, INT))
        assert negative is intern_space(cast_to_space(DYN, bar, INT))

        def site(value, label):  # int ⇒ ? ⇒ int, projecting at `label`
            return Cast(Cast(Const(value, INT), INT, DYN, label), DYN, INT, label)

        code = lower_term(Pair(site(1, self.P), site(2, bar)))
        injection = cast_coercion(INT, self.P, DYN)
        assert code.pool.coercions == [injection, positive, negative]
        assert [operand for op, operand in code.instructions if op == COERCE] == [0, 1, 0, 2]

    @settings(max_examples=100, deadline=None)
    @given(compatible_type_pairs(), labels)
    def test_memo_answers_the_translation(self, pair, label):
        source, target = pair
        for p in (label, label.complement()):
            expected = intern_space(cast_to_space(source, p, target))
            assert cast_coercion(source, p, target) is expected
            assert cast_coercion(source, p, target) is expected

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(lower, "_CASTS", {})
        monkeypatch.setattr(lower, "_CASTS_CAP", 2)
        casts = [(DYN, Label(name), INT) for name in ("a", "b", "c")]
        for cast in casts + casts:
            assert cast_coercion(*cast) is intern_space(cast_to_space(*cast))
            assert len(lower._CASTS) <= 2

    def test_a_full_memo_is_cleared_and_answers_stay_canonical(self, monkeypatch):
        monkeypatch.setattr(lower, "_CASTS", {})
        monkeypatch.setattr(lower, "_CASTS_CAP", 8)
        casts = [(DYN, Label(f"p{index}"), FunType(INT, INT)) for index in range(50)]
        canonical = [intern_space(cast_to_space(*cast)) for cast in casts]
        for index, (cast, canon) in enumerate(zip(casts, canonical)):
            assert cast_coercion(*cast) is canon
            assert len(lower._CASTS) == index % 8 + 1  # cleared when full
        # Casts whose entries were cleared are translated again, to the
        # same interned coercions.
        assert [cast_coercion(*cast) for cast in casts] == canonical
        assert all(cast_coercion(*cast) is canon for cast, canon in zip(casts, canonical))
