"""Differential tests for the one-pass stack → register converter.

The register pipeline converts the shared optimizer's output
(:func:`repro.compiler.rvm.compile_register_program`), and
``compile_registers`` also converts the stack VM's code.  Both engines
start from one instruction stream at every level, and every code object's
register words, pinned constants and register count must be exactly what
the old multi-pass converter produced (kept in
``tests/reference_regalloc.py``): register images and the register
fingerprint depend on it.  Programs are drawn from the shipped
examples, :mod:`repro.gen`'s surface programs (fully annotated and as
partly untyped lattice configurations) and random λB terms, under every
semantics at every ``-O`` level.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler import (
    OPT_LEVELS,
    all_rcodes,
    compile_register_program,
    compile_registers,
    compile_term,
)
from repro.semantics import SEMANTICS_NAMES
from repro.surface.interp import compile_source

from .reference_regalloc import reference_streams
from .strategies import lambda_b_programs, lattice_configurations

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples" / "programs").glob("*.grad"))


def _streams(rcode) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    return [(tuple(r.words), r.const_regs, r.n_regs) for r in all_rcodes(rcode)]


def _assert_converts_like_the_reference(term) -> None:
    """Both inputs, every semantics and level: one stack stream, and
    identical register output."""
    for semantics in SEMANTICS_NAMES:
        for level in OPT_LEVELS:
            stack_code = compile_term(term, semantics, level)
            expected = reference_streams(stack_code)
            assert _streams(compile_registers(stack_code)) == expected, (semantics, level)

            rcode = compile_register_program(term, semantics, level)
            assert _streams(rcode) == expected, (semantics, level)
            # One IR per program: no stack code is left beside the words.
            assert rcode.pool.codes == []
            assert all(obj.opt_level == level for obj in all_rcodes(rcode))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_shipped_examples_convert_like_the_reference(path):
    _assert_converts_like_the_reference(compile_source(path.read_text())[0])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lattice_configurations())
def test_generated_programs_convert_like_the_reference(source):
    _assert_converts_like_the_reference(compile_source(source)[0])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lambda_b_programs())
def test_random_terms_convert_like_the_reference(program):
    _assert_converts_like_the_reference(program[0])

