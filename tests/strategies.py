"""Hypothesis strategies for types, labels, coercions, and terms."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core.labels import Label
from repro.core.types import BOOL, DYN, INT, FunType, ProdType
from repro.experiment.inject import apply_fault, sample_faults
from repro.experiment.lattice import ProgramLattice, render_configuration
from repro.gen.coercions_gen import (
    random_coercion,
    random_composable_space_pair,
    random_space_coercion,
)
from repro.gen.surface_programs import generate_program
from repro.gen.terms_gen import TermGenerator
from repro.gen.types_gen import random_compatible_type, random_type

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

base_types = st.sampled_from([INT, BOOL, DYN])


def types(max_depth: int = 3, products: bool = True):
    """Structural strategy for types."""
    leaves = st.sampled_from([INT, BOOL, DYN])

    def extend(children):
        branches = [st.builds(FunType, children, children)]
        if products:
            branches.append(st.builds(ProdType, children, children))
        return st.one_of(*branches)

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


labels = st.builds(
    Label,
    st.sampled_from(["p", "q", "r", "s1", "s2"]),
    st.booleans(),
)

positive_labels = st.builds(Label, st.sampled_from(["p", "q", "r"]), st.just(True))


@st.composite
def compatible_type_pairs(draw, max_depth: int = 3):
    """A pair of compatible types (valid as a cast's source and target)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    source = random_type(rng, max_depth)
    target = random_compatible_type(rng, source, max_depth)
    return source, target


# ---------------------------------------------------------------------------
# Coercions
# ---------------------------------------------------------------------------


@st.composite
def lambda_c_coercions(draw, length: int = 3, depth: int = 3):
    """A random well-typed λC coercion with its source and target types."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return random_coercion(rng, length=length, depth=depth)


@st.composite
def space_coercions(draw, length: int = 3, depth: int = 3):
    """A random canonical coercion with its source and target types."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return random_space_coercion(rng, length=length, depth=depth)


@st.composite
def composable_space_coercions(draw, length: int = 2, depth: int = 3):
    """Two canonical coercions s : A ⇒ B and t : B ⇒ C."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return random_composable_space_pair(rng, length=length, depth=depth)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@st.composite
def lambda_b_programs(draw, max_depth: int = 4):
    """A random closed well-typed λB program together with its type."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    generator = TermGenerator(random.Random(seed), max_depth=max_depth)
    return generator.program()


@st.composite
def lattice_configurations(draw):
    """The source of a generated surface program with a random set of its
    bindings left unannotated: a configuration of its migration lattice."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    bindings = draw(st.integers(min_value=2, max_value=6))
    untyped = draw(st.sets(st.integers(min_value=0, max_value=5)))
    lattice = ProgramLattice.from_source(generate_program(seed, bindings))
    names = lattice.typeable_names
    return render_configuration(lattice, {names[i] for i in untyped if i < len(names)})[0]


@st.composite
def lattice_sweeps(draw):
    """The sources a sweep compiles: configurations of the lattices of one
    to three generated programs and of their faulted lattices, in the order
    drawn."""
    lattices = []
    for _ in range(draw(st.integers(1, 3))):
        seed = draw(st.integers(0, 10**6))
        lattice = ProgramLattice.from_source(generate_program(seed, draw(st.integers(2, 8))))
        lattices.append(lattice)
        lattices += [apply_fault(lattice, fault) for fault in sample_faults(lattice, 2, seed)]
    sources = []
    for _ in range(draw(st.integers(1, 12))):
        lattice = draw(st.sampled_from(lattices))
        names = lattice.typeable_names
        untyped = draw(st.sets(st.integers(0, len(names) - 1)))
        sources.append(render_configuration(lattice, {names[i] for i in untyped})[0])
    return sources


# ---------------------------------------------------------------------------
# Surface source text
# ---------------------------------------------------------------------------

_SOURCE_WORDS = [
    "lambda", "let", "letrec", "if", "pair", "cons", "fst", "snd", ":", "ann",
    "define", "unit", "->", "*", "int", "bool", "str", "?", "dyn", "x", "y", "f",
    "+", "-", "=", "not", "#t", "#f", "true", "false", "#", "\\",
]
# ASCII, Arabic-Indic and fullwidth decimal digits, plus superscripts, which
# are digits to ``str.isdigit`` but not decimal, so not integers.
_SOURCE_DIGITS = "0123456789٠١٢٣٩０１２²³"
# Blanks, line ends and comments, and the look-alikes that are symbol
# characters, not delimiters: form feed and no-break space.
_SOURCE_GAPS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\f", "\u00a0", " ; note (\n", ";\n"]
_STRING_PIECES = ["a", " ", "(", ";", "\t", "é", "\\n", "\\t", '\\"', "\\\\", "\\q", "\\\n"]


@st.composite
def integer_literals(draw):
    """An optional sign and a run of (possibly non-ASCII) digit characters."""
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    return sign + draw(st.text(alphabet=_SOURCE_DIGITS, min_size=1, max_size=4))


string_literals = st.lists(st.sampled_from(_STRING_PIECES), max_size=5).map(
    lambda pieces: '"' + "".join(pieces) + '"'
)

source_atoms = st.one_of(st.sampled_from(_SOURCE_WORDS), integer_literals(), string_literals)


@st.composite
def surface_sources(draw, max_depth: int = 4):
    """Source text biased towards the surface grammar.

    A few definitions and a main expression built from the keyword forms,
    applications, types and literals, in both bracket kinds, separated by
    every kind of gap.  Half the draws are then broken by one stray
    bracket, quote, backslash or newline, so parse errors are exercised too.
    """

    def gap() -> str:
        return draw(st.sampled_from(_SOURCE_GAPS))

    def form(*items: str) -> str:
        opener, closer = draw(st.sampled_from(["()", "[]"]))
        return opener + gap().join(items) + closer

    def type_(depth: int) -> str:
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(["int", "bool", "str", "?", "dyn", "unit", "x"]))
        return form(draw(st.sampled_from(["->", "->", "*"])), type_(depth - 1), type_(depth - 1))

    def params(depth: int) -> list[str]:
        return [draw(st.sampled_from(["x", "y"])) if draw(st.booleans()) else form("x", ":", type_(depth))
                for _ in range(draw(st.integers(0, 2)))]

    def expr(depth: int) -> str:
        choice = draw(st.integers(0, 9)) if depth else 0
        below = depth - 1
        if choice <= 2:
            return draw(source_atoms)
        if choice == 3:
            return form(*(expr(below) for _ in range(draw(st.integers(0, 3)))))
        if choice == 4:
            return form("lambda", form(*params(below)), expr(below))
        if choice == 5:
            return form("let", form(form("x", expr(below))), expr(below))
        if choice == 6:
            return form(draw(st.sampled_from([":", "ann"])), expr(below), type_(below))
        if choice == 7:
            return form("if", expr(below), expr(below), expr(below))
        if choice == 8:
            return form(draw(st.sampled_from(["+", "pair", "fst", "letrec"])),
                        *(expr(below) for _ in range(draw(st.integers(1, 2)))))
        return form("f", expr(below))

    def define() -> str:
        if draw(st.booleans()):
            return form("define", form("f", *params(1)), expr(max_depth - 1))
        return form("define", "f", ":", type_(2), expr(max_depth - 1))

    source = "".join(define() + gap() for _ in range(draw(st.integers(0, 2))))
    source += gap() + expr(max_depth) + gap()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.sampled_from(["(", ")", "[", "]", '"', "\\", "\n"])) + source[at:]
    return source
