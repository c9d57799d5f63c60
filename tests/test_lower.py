"""Differential tests for lowering λB directly.

``lower_term`` lowers an elaborated λB term in one walk, translating each
cast with ``|·|BS`` where it finds it.  What it produces must be exactly
what lowering the term's λS image gives, with the image made by the
paper's translation ``b_to_s``: every code object's instructions, local
count and local names, the constant pool (coercions compared by identity),
the register words converted from it, and the serialized image bytes of
both IRs.  The compiled engines' own entry points are checked
(``compile_term``, ``compile_register_program``), under every semantics at
every ``-O`` level.  Programs are drawn from the shipped examples,
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
    opt,
    vm,
)
from repro.compiler.lower import lower_program, lower_term
from repro.compiler.serialize import serialize_image
from repro.core.terms import count_casts
from repro.experiment.lattice import ProgramLattice, render_configuration
from repro.gen.surface_programs import generate_corpus
from repro.semantics import SEMANTICS_NAMES
from repro.surface.interp import compile_source
from repro.translate import b_to_s

from .strategies import lambda_b_programs, lattice_configurations

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


def _assert_lowers_like_b_to_s(term_b) -> None:
    term_s = b_to_s(term_b)
    for semantics in SEMANTICS_NAMES:
        def reference():
            return lower_program(term_s, "<main>", semantics)

        _assert_same_code(lower_term(term_b, semantics), reference(), semantics)
        for level in OPT_LEVELS:
            where = (semantics, level)
            stack = compile_term(term_b, semantics, level)
            expected = vm.optimize(reference(), level)
            _assert_same_code(stack, expected, where)
            assert serialize_image(stack) == serialize_image(expected), where

            code, rcode = compile_register_program(term_b, semantics, level)
            expected = opt.optimize(reference(), level)
            expected_rcode = compile_registers(expected)
            _assert_same_code(code, expected, where)
            assert _words(rcode) == _words(expected_rcode), where
            assert serialize_image(code, ir="register", rcode=rcode) == serialize_image(
                expected, ir="register", rcode=expected_rcode), where


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
