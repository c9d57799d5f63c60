"""The lowering as it was when each semantics was lowered separately: the
pool filled in the program's own semantics, every coercion passed through
the registry's ``pre_intern`` as it entered (``ConstantPool.add_coercion``),
and every cast translated afresh.  Kept as the oracle for the byte-identity
property in ``test_lower.py``; it must not be used by the package.

The classes and functions below ``_add_coercion`` are copied verbatim,
except that they call ``_add_coercion(pool, canon)`` where they called the
pool method ``pool.add_coercion(canon)``, which the package no longer has,
and that ``lower_program`` imports the registry by its absolute name.
Only this docstring, the imports and ``_add_coercion`` (that method's body,
verbatim) are new.
"""

from __future__ import annotations

from repro.compiler.bytecode import (
    BLAME,
    CALL,
    COERCE,
    COMPOSE,
    FST,
    JUMP,
    JUMP_IF_FALSE,
    LOAD,
    MAKE_CLOSURE,
    MAKE_FIX,
    PAIR,
    PRIM,
    PUSH_CONST,
    RETURN,
    SND,
    STORE,
    TAILCALL,
    CodeObject,
    ConstantPool,
)
from repro.core.errors import CompileError, TypeCheckError
from repro.core.intern import intern_type
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
    Term,
    Var,
    free_vars,
)
from repro.lambda_s.coercions import IdBase, IdDyn, SpaceCoercion, intern_space
from repro.semantics import resolve
from repro.translate.b_to_c import NOT_LAMBDA_B
from repro.translate.b_to_s import cast_to_space


def _add_coercion(self: ConstantPool, coercion: SpaceCoercion) -> int:
    canon = resolve(self.semantics).pre_intern(intern_space(coercion))
    return self.add_canonical_mediator(canon)


class _CodeBuilder:
    """Mutable state for one code object under construction."""

    def __init__(self, name: str, pool: ConstantPool, free: tuple[str, ...], param: str | None,
                 lambda_b: bool):
        self.name = name
        self.pool = pool
        # Set when the program is a λB term: a coercion node is then an
        # error, as in |·|BC.
        self.lambda_b = lambda_b
        self.instructions: list[tuple[int, int]] = []
        # Scope entries are (name, slot); resolution searches from the end so
        # the latest binding of a shadowed name wins.
        self.scope: list[tuple[str, int]] = []
        self.n_free = len(free)
        self.param = param
        self.local_names: list[str] = list(free)
        for f in free:
            self.scope.append((f, self.local_names.index(f)))
        if param is not None:
            slot = len(self.local_names)
            self.local_names.append(param)
            self.scope.append((param, slot))

    def emit(self, opcode: int, operand: int = 0) -> int:
        self.instructions.append((opcode, operand))
        return len(self.instructions) - 1

    def patch(self, index: int, operand: int) -> None:
        opcode, _ = self.instructions[index]
        self.instructions[index] = (opcode, operand)

    def here(self) -> int:
        return len(self.instructions)

    def resolve(self, name: str) -> int:
        for bound, slot in reversed(self.scope):
            if bound == name:
                return slot
        raise CompileError(f"unbound variable in compiled code: {name!r}")

    def new_slot(self, name: str) -> int:
        slot = len(self.local_names)
        self.local_names.append(name)
        return slot

    def finish(self) -> CodeObject:
        self.emit(RETURN)
        return CodeObject(
            self.name,
            self.instructions,
            self.pool,
            self.n_free,
            len(self.local_names),
            self.param,
            tuple(self.local_names),
        )


def _is_identity(s: SpaceCoercion) -> bool:
    return isinstance(s, (IdDyn, IdBase))


def _compile(builder: _CodeBuilder, term: Term, tail: bool) -> None:
    pool = builder.pool

    if isinstance(term, Const):
        builder.emit(PUSH_CONST, pool.add_machine_const(term.value, intern_type(term.type)))
        return
    if isinstance(term, Var):
        builder.emit(LOAD, builder.resolve(term.name))
        return
    if isinstance(term, Lam):
        _compile_closure(builder, term)
        return
    if isinstance(term, Blame):
        builder.emit(BLAME, pool.add_label(term.label))
        return
    if isinstance(term, Coerce):
        if builder.lambda_b:
            raise TypeCheckError(NOT_LAMBDA_B)
        coercion = term.coercion
        if not isinstance(coercion, SpaceCoercion):
            raise CompileError(
                f"the VM compiles λB and λS terms only; found a λC coercion {coercion!r} "
                "(translate with c_to_s first)"
            )
        _compile_mediated(builder, term.subject, intern_space(coercion), tail)
        return
    if isinstance(term, Cast):
        canon = intern_space(cast_to_space(term.source, term.label, term.target))
        _compile_mediated(builder, term.subject, canon, tail)
        return
    if isinstance(term, App):
        _compile(builder, term.fun, tail=False)
        _compile(builder, term.arg, tail=False)
        builder.emit(TAILCALL if tail else CALL)
        return
    if isinstance(term, If):
        _compile(builder, term.cond, tail=False)
        jump_false = builder.emit(JUMP_IF_FALSE)
        _compile(builder, term.then_branch, tail)
        jump_end = builder.emit(JUMP)
        builder.patch(jump_false, builder.here())
        _compile(builder, term.else_branch, tail)
        builder.patch(jump_end, builder.here())
        return
    if isinstance(term, Let):
        _compile(builder, term.bound, tail=False)
        slot = builder.new_slot(term.name)
        builder.emit(STORE, slot)
        builder.scope.append((term.name, slot))
        _compile(builder, term.body, tail)
        builder.scope.pop()
        return
    if isinstance(term, Fix):
        _compile(builder, term.fun, tail=False)
        builder.emit(MAKE_FIX, pool.add_const(intern_type(term.fun_type)))
        return
    if isinstance(term, Op):
        for arg in term.args:
            _compile(builder, arg, tail=False)
        builder.emit(PRIM, pool.add_prim(term.op))
        return
    if isinstance(term, Pair):
        _compile(builder, term.left, tail=False)
        _compile(builder, term.right, tail=False)
        builder.emit(PAIR)
        return
    if isinstance(term, Fst):
        _compile(builder, term.arg, tail=False)
        builder.emit(FST)
        return
    if isinstance(term, Snd):
        _compile(builder, term.arg, tail=False)
        builder.emit(SND)
        return
    raise CompileError(f"cannot lower unknown term node: {term!r}")


def _compile_mediated(builder: _CodeBuilder, subject: Term, canon: SpaceCoercion,
                      tail: bool) -> None:
    """``subject`` under the interned canonical coercion ``canon``."""
    if _is_identity(canon):
        _compile(builder, subject, tail)
        return
    if tail:
        # Merge into the frame's pending slot *before* entering the
        # subject: its tail call then reuses the frame and the composed
        # coercion is applied once, on the way out.
        builder.emit(COMPOSE, _add_coercion(builder.pool, canon))
        _compile(builder, subject, tail=True)
    else:
        _compile(builder, subject, tail=False)
        builder.emit(COERCE, _add_coercion(builder.pool, canon))


def _compile_closure(builder: _CodeBuilder, lam: Lam) -> None:
    free = tuple(sorted(free_vars(lam)))
    child = _CodeBuilder(f"λ{lam.param}", builder.pool, free, lam.param, builder.lambda_b)
    _compile(child, lam.body, tail=True)
    code = child.finish()
    index = builder.pool.add_code(code)
    for name in free:
        builder.emit(LOAD, builder.resolve(name))
    builder.emit(MAKE_CLOSURE, index)


def lower_program(
    term: Term, name: str = "<main>", semantics: str = "coercion", *, lambda_b: bool = False
) -> CodeObject:
    """Compile a closed λS or λB term to the entry code object of a program.

    Each λB cast is lowered as its canonical coercion ``|A ⇒p B|BS``, so a
    λB term and its image under ``|·|BS`` compile to the same code.
    ``lambda_b=True`` holds the term to λB, as ``|·|BC`` does: a coercion
    node raises :class:`~repro.core.errors.TypeCheckError`.

    ``semantics`` names the enforcement semantics of the program's mediator
    pool (and hence of every ``COERCE``/``COMPOSE`` operand) — any entry of
    the :data:`~repro.semantics.SEMANTICS` registry: interned canonical
    coercions (``"coercion"``, the default), pre-translated interned
    threesomes (``"threesome"``), transient tag checks (``"transient"``),
    or the erased no-op token (``"erasure"``).  Identity coercions are
    dropped either way — they are identities in every backend.
    """
    from repro.semantics import SEMANTICS

    if semantics not in SEMANTICS:
        raise CompileError(f"unknown semantics {semantics!r}")
    pool = ConstantPool(semantics=semantics)
    builder = _CodeBuilder(name, pool, free=(), param=None, lambda_b=lambda_b)
    _compile(builder, term, tail=True)
    return builder.finish()
