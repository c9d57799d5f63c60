"""Lowering: elaborated λB (or λS) terms → flat bytecode (:mod:`repro.compiler.bytecode`).

The compiler walks the term once, tracking *tail position* so that the space
discipline of λS survives the change of representation:

* an application in tail position becomes ``TAILCALL`` (frame reuse);
* a coercion in tail position becomes ``COMPOSE s`` *before* the subject is
  compiled — the coercion is merged into the live frame's single pending
  slot with ``#``, and the subject's tail call (if any) then reuses the
  frame.  ``⟨s⟩(f x)`` in tail position therefore runs in constant space,
  exactly like the λS machine merging adjacent ``KMediate`` frames;
* everywhere else a coercion is an immediate ``COERCE s`` on the value just
  computed (value-level composition is handled by the mediation policy).

Variables are resolved to frame slots at compile time (lexical addressing):
no environment dictionaries exist at run time.  Closures capture the values
of their free variables at ``MAKE_CLOSURE`` time, which is sound because
bindings are immutable in this language.

A λB cast is lowered where the walk finds it, as its canonical coercion
``|A ⇒p B|BS`` (:func:`~repro.translate.b_to_s.cast_to_space`; Section 5.2
defines the composite translation cast by cast), so an elaborated λB term
compiles to the same code as its λS image ``|M|BS`` without either
translation rebuilding the term.  Each distinct cast is translated once per
process: the canonical coercion is memoized on the interned source type,
the label and the interned target type.  λC coercions are not compilable.
Identity coercions (``id?``, ``idι``) are dropped at compile time —
applying them is a no-op on every machine value.

Lowering does not depend on the enforcement semantics.  The pool it fills
holds interned canonical λS coercions (the representation of the
``coercion`` semantics), and :func:`with_semantics` maps a lowered program
into any entry of the :data:`~repro.semantics.SEMANTICS` registry by
passing each pool coercion through that entry's ``pre_intern``: a fresh
code tree whose pool is exactly the one lowering straight into that
semantics would have built.  The lowered program itself is never modified,
so one lowering serves all four semantics (the worker memo of
:mod:`repro.serve.pool` keeps it per source).  Every compiled path takes
the same steps, :func:`lower_for`'s: lower → :func:`with_semantics` →
optimize (→ regalloc), where a program just lowered for ``coercion`` is
already in its semantics and is not copied.
"""

from __future__ import annotations

from ..core.errors import CompileError, TypeCheckError
from ..core.intern import intern_type
from ..core.labels import Label
from ..core.terms import (
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
    children,
)
from ..core.types import Type
from ..lambda_s.coercions import IdBase, IdDyn, SpaceCoercion, intern_space
from ..semantics import resolve
from ..translate.b_to_c import NOT_LAMBDA_B
from ..translate.b_to_s import cast_to_space
from .bytecode import (
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

#: ``|A ⇒p B|BS`` of every cast lowered so far, interned, keyed on
#: ``(id(A), p, id(B))`` for the interned types (immortal, so their ids are
#: stable).  The label is compared by value, so ``p`` and ``p̄`` stay apart.
_CASTS: dict[tuple[int, Label, int], SpaceCoercion] = {}

#: Entries kept before the memo is cleared (a forgotten cast is only
#: translated again), so a long-lived worker stays bounded.
_CASTS_CAP = 1 << 16


class _CodeBuilder:
    """Mutable state for one code object under construction."""

    def __init__(self, name: str, pool: ConstantPool, free: tuple[str, ...], param: str | None,
                 lambda_b: bool, frees: dict[int, tuple[str, ...]]):
        self.name = name
        self.pool = pool
        # Every λ's sorted free variables, by id (see _record_frees).
        self.frees = frees
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


def cast_coercion(source: Type, label: Label, target: Type) -> SpaceCoercion:
    """The interned canonical coercion ``|A ⇒p B|BS`` of a cast, translated
    once per process for each distinct ``(A, p, B)``."""
    source = intern_type(source)
    target = intern_type(target)
    key = (id(source), label, id(target))
    canon = _CASTS.get(key)
    if canon is None:
        canon = intern_space(cast_to_space(source, label, target))
        if len(_CASTS) >= _CASTS_CAP:
            _CASTS.clear()
        _CASTS[key] = canon
    return canon


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
        canon = cast_coercion(term.source, term.label, term.target)
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
        builder.emit(COMPOSE, builder.pool.add_canonical_mediator(canon))
        _compile(builder, subject, tail=True)
    else:
        _compile(builder, subject, tail=False)
        builder.emit(COERCE, builder.pool.add_canonical_mediator(canon))


def _compile_closure(builder: _CodeBuilder, lam: Lam) -> None:
    free = builder.frees[id(lam)]
    child = _CodeBuilder(f"λ{lam.param}", builder.pool, free, lam.param, builder.lambda_b,
                         builder.frees)
    _compile(child, lam.body, tail=True)
    code = child.finish()
    index = builder.pool.add_code(code)
    for name in free:
        builder.emit(LOAD, builder.resolve(name))
    builder.emit(MAKE_CLOSURE, index)


def _record_frees(term: Term, frees: dict[int, tuple[str, ...]]) -> set[str]:
    """The free variables of ``term``, recording each λ's, sorted, in
    ``frees`` under the λ's id: one bottom-up walk per program, where a
    walk per λ would cross the bodies of the λs around it again."""
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Lam):
        names = _record_frees(term.body, frees)
        names.discard(term.param)
        frees[id(term)] = tuple(sorted(names))
        return names
    if isinstance(term, Let):
        names = _record_frees(term.body, frees)
        names.discard(term.name)
        return names | _record_frees(term.bound, frees)
    names = set()
    if isinstance(term, Term):  # anything else is rejected by _compile
        for child in children(term):
            names |= _record_frees(child, frees)
    return names


def lower_program(
    term: Term, name: str = "<main>", semantics: str = "coercion", *, lambda_b: bool = False
) -> CodeObject:
    """Compile a closed λS or λB term to the entry code object of a program.

    Each λB cast is lowered as its canonical coercion ``|A ⇒p B|BS``, so a
    λB term and its image under ``|·|BS`` compile to the same code.
    ``lambda_b=True`` holds the term to λB, as ``|·|BC`` does: a coercion
    node raises :class:`~repro.core.errors.TypeCheckError`.

    The pool lowering fills holds interned canonical coercions, the
    representation of the default ``semantics``, ``"coercion"``; any other
    entry of the :data:`~repro.semantics.SEMANTICS` registry maps the
    lowered program into its own with :func:`with_semantics`.  Identity
    coercions are dropped either way — they are identities in every backend.
    """
    pool = ConstantPool()
    frees: dict[int, tuple[str, ...]] = {}
    _record_frees(term, frees)
    builder = _CodeBuilder(name, pool, free=(), param=None, lambda_b=lambda_b, frees=frees)
    _compile(builder, term, tail=True)
    code = builder.finish()
    return code if semantics == "coercion" else with_semantics(code, semantics)


def with_semantics(code: CodeObject, semantics: str) -> CodeObject:
    """A lowered program's fresh copy whose pool holds ``semantics``'
    mediators: the step between lowering and the optimizer.

    ``code`` is a lowered program over canonical coercions (what
    :func:`lower_term` returns) and is left as it is.  Each pool coercion
    goes through the registry's ``pre_intern``.  Coercions that map to the
    same mediator share one entry, kept in order of first occurrence, so
    the pool is the one lowering into ``semantics`` directly would build;
    ``COERCE``/``COMPOSE`` operands are renumbered to match.
    """
    pool, remap = code.pool.with_mediators(semantics, resolve(semantics).pre_intern)

    def copy(obj: CodeObject) -> CodeObject:
        # Instructions are immutable pairs: only mediator operands change.
        instructions = [
            (insn[0], remap[insn[1]]) if insn[0] == COERCE or insn[0] == COMPOSE else insn
            for insn in obj.instructions
        ]
        return CodeObject(obj.name, instructions, pool, obj.n_free, obj.n_locals,
                          obj.param, obj.local_names)

    for child in code.pool.codes:
        pool.add_code(copy(child))
    return copy(code)


def lower_term(term_b: Term, metrics=None) -> CodeObject:
    """Lower an elaborated λB term, each cast through ``|·|BS`` where it is
    found: the unoptimized program, over canonical coercions, that every
    semantics is compiled from (see :func:`lower_for`).  ``metrics`` gets
    the ``lower`` phase timer."""
    from ..obs.metrics import phase

    with phase(metrics, "lower"):
        return lower_program(term_b, "<main>", lambda_b=True)


def lower_for(program: Term | CodeObject, semantics: str, metrics=None) -> CodeObject:
    """The unoptimized program of ``semantics``: ``program`` — an elaborated
    λB term, or a lowering :func:`lower_term` returned, which is left as it
    is — lowered if it is a term, and mapped into ``semantics`` with
    :func:`with_semantics`.  Both steps are timed as ``metrics``' one
    ``lower`` phase."""
    from ..obs.metrics import phase

    with phase(metrics, "lower"):
        if isinstance(program, CodeObject):
            return with_semantics(program, semantics)
        return lower_program(program, "<main>", semantics, lambda_b=True)
