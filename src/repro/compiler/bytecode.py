"""The flat bytecode IR executed by the coercion-aware VM.

The lowering pass (:mod:`repro.compiler.lower`) turns an elaborated λB term
into a :class:`CodeObject`: a flat instruction stream over a shared
:class:`ConstantPool`.  Everything a mediator needs at run time — constants,
canonical coercions, blame labels, operator meaning functions, nested code
objects — is resolved to a small-integer pool index at compile time, so the
VM's hot loop (:mod:`repro.compiler.vm`) dispatches on plain ints and never
inspects term or type structure.

Coercions are **pre-interned** (:func:`repro.lambda_s.coercions.intern_space`)
when they enter the pool: every ``COERCE``/``COMPOSE`` operand is a canonical
node, so the VM's pending-coercion merges hit the memoised ``#``
(:func:`repro.lambda_s.coercions.compose_memo`) on pointer identity.  A
lowered pool holds canonical coercions; the semantics a program runs under
is given to it afterwards (:func:`repro.compiler.lower.with_semantics`).

Instruction set (operands are pool or slot indices; ``·`` = none):

=================  =========  ====================================================
opcode             operand    effect
=================  =========  ====================================================
``PUSH_CONST``     const      push the pooled machine constant
``LOAD``           slot       push the frame local in ``slot``
``STORE``          slot       pop into the frame local ``slot``
``MAKE_CLOSURE``   code       pop ``n_free`` captured values, push a closure
``MAKE_FIX``       const      pop a functional ``V``, push the ``fix V`` wrapper
``CALL``           ·          pop arg and fun, push a new call frame
``TAILCALL``       ·          pop arg and fun, **reuse** the current frame
``RETURN``         ·          pop result, apply the frame's pending coercion, pop frame
``COERCE``         coercion   pop ``v``, push ``v⟨s⟩`` (immediate application)
``COMPOSE``        coercion   merge ``s`` into the frame's pending slot with ``#``
``BLAME``          label      halt with ``blame p``
``JUMP``           pc         unconditional branch
``JUMP_IF_FALSE``  pc         pop a boolean, branch when false
``PRIM``           prim       pop operands, apply the operator meaning function
``PAIR``           ·          pop right and left, push a pair
``FST``/``SND``    ·          pop a pair (or pair proxy), push the projection
=================  =========  ====================================================

``COMPOSE`` + ``TAILCALL`` is the space-efficiency story in two opcodes: a
result coercion in tail position is *composed* into the one pending slot of
the live frame instead of pushing a stack frame whose only job is to apply
it, so boundary-crossing tail loops run in constant space — the VM-level
image of the λS machine's merged ``KMediate`` frames.

This one stream is what every consumer reads: the stack VM runs it, the
register converter (:mod:`repro.compiler.regalloc`) translates it, and
``.gradb`` images store it.  The optimizer (:mod:`repro.compiler.opt`)
rewrites it within this same instruction set, and the stack VM's ``-O2``
adds only per-site inline-cache cells beside it (``CodeObject.caches``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from ..core.labels import Label
from ..core.ops import OpSpec, op_spec
from ..core.types import Type
from ..machine.values import MConst

# Opcodes are plain module-level ints: the VM loads them into loop locals and
# dispatches with integer comparisons ordered by dynamic frequency.
PUSH_CONST = 0
LOAD = 1
STORE = 2
MAKE_CLOSURE = 3
MAKE_FIX = 4
CALL = 5
TAILCALL = 6
RETURN = 7
COERCE = 8
COMPOSE = 9
BLAME = 10
JUMP = 11
JUMP_IF_FALSE = 12
PRIM = 13
PAIR = 14
FST = 15
SND = 16

OPCODE_NAMES = {
    PUSH_CONST: "PUSH_CONST",
    LOAD: "LOAD",
    STORE: "STORE",
    MAKE_CLOSURE: "MAKE_CLOSURE",
    MAKE_FIX: "MAKE_FIX",
    CALL: "CALL",
    TAILCALL: "TAILCALL",
    RETURN: "RETURN",
    COERCE: "COERCE",
    COMPOSE: "COMPOSE",
    BLAME: "BLAME",
    JUMP: "JUMP",
    JUMP_IF_FALSE: "JUMP_IF_FALSE",
    PRIM: "PRIM",
    PAIR: "PAIR",
    FST: "FST",
    SND: "SND",
}

OPCODES_BY_NAME = {name: code for code, name in OPCODE_NAMES.items()}

#: Opcodes whose operand is meaningless (always encoded as 0).
NO_OPERAND = frozenset({CALL, TAILCALL, RETURN, PAIR, FST, SND})


@lru_cache(maxsize=1)
def opcode_fingerprint() -> bytes:
    """An 8-byte digest of the instruction set (opcode names and numbers).

    Serialized images (:mod:`repro.compiler.serialize`) embed this
    fingerprint, so an image compiled against a different opcode assignment
    — say, after an opcode is added, removed or renumbered — is rejected at
    load time instead of being dispatched wrongly.  Changing anything in
    :data:`OPCODE_NAMES` changes the fingerprint by construction; no version
    constant needs manual bumping.
    """
    digest = hashlib.sha256()
    for code in sorted(OPCODE_NAMES):
        digest.update(f"{code}={OPCODE_NAMES[code]};".encode())
    return digest.digest()[:8]


@dataclass
class ConstantPool:
    """The shared pools of one compiled program.

    Every nested :class:`CodeObject` of a program references the same pool,
    so equal constants, coercions, labels, and operators are stored once and
    instructions refer to them by index.  Mediators enter the pool already
    interned; identity of pool entries is therefore stable across
    compilations of the same program (tested by ``tests/test_compiler.py``).

    ``semantics`` names the pool's enforcement semantics — and therefore the
    representation of every ``COERCE``/``COMPOSE`` operand the VM touches:
    canonical coercions for ``"coercion"``, interned runtime threesomes for
    ``"threesome"``, tag-check sequences for ``"transient"``, the single
    no-op token for ``"erasure"``.  Lowering fills a ``"coercion"`` pool
    whatever the program will run under; :meth:`with_mediators` then maps
    it through the :data:`~repro.semantics.SEMANTICS` registry's
    ``pre_intern`` hook into a fresh pool of the semantics wanted, once per
    compilation and before the optimizer, so the VM's hot loop never sees
    another representation.
    """

    consts: list[object] = field(default_factory=list)
    coercions: list[object] = field(default_factory=list)  # SpaceCoercion | Threesome
    labels: list[Label] = field(default_factory=list)
    prims: list[tuple] = field(default_factory=list)  # (meaning, arity, result_type, name)
    codes: list["CodeObject"] = field(default_factory=list)
    semantics: str = "coercion"
    #: The register program's code objects, parallel to the ``codes`` they
    #: were converted from; a register program's pool holds these and no
    #: stack ``codes`` (:func:`repro.compiler.regalloc.compile_registers`).
    rcodes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._const_index: dict[object, int] = {}
        self._coercion_index: dict[int, int] = {}
        self._label_index: dict[Label, int] = {}
        self._prim_index: dict[str, int] = {}

    def add_const(self, ty: Type) -> int:
        """Pool the interned type ``ty`` (``MAKE_FIX``'s operand) once.
        Interned types are equal exactly when they are the same object."""
        idx = self._const_index.get(id(ty))
        if idx is None:
            idx = len(self.consts)
            self.consts.append(ty)
            self._const_index[id(ty)] = idx
        return idx

    def add_machine_const(self, value: object, ty: Type) -> int:
        """Pool the constant ``value : ty`` (``ty`` interned) once.  The
        value's class is part of the key, so ``#t`` and ``1`` stay apart."""
        key = (value.__class__, value, id(ty))
        idx = self._const_index.get(key)
        if idx is None:
            idx = len(self.consts)
            self.consts.append(MConst(value, ty))
            self._const_index[key] = idx
        return idx

    def add_canonical_mediator(self, canon: object) -> int:
        """Pool an *already canonical* mediator in this pool's representation.

        Lowering adds interned canonical coercions; the optimizer adds the
        pre-composed mediators that come out of the memoised ``#``/``∘``,
        already interned in the right representation.
        """
        idx = self._coercion_index.get(id(canon))
        if idx is None:
            idx = len(self.coercions)
            self.coercions.append(canon)
            self._coercion_index[id(canon)] = idx
        return idx

    def add_label(self, lbl: Label) -> int:
        idx = self._label_index.get(lbl)
        if idx is None:
            idx = len(self.labels)
            self.labels.append(lbl)
            self._label_index[lbl] = idx
        return idx

    def add_prim(self, name: str) -> int:
        idx = self._prim_index.get(name)
        if idx is None:
            spec: OpSpec = op_spec(name)
            idx = len(self.prims)
            self.prims.append((spec.meaning, spec.arity, spec.result_type, spec.name))
            self._prim_index[name] = idx
        return idx

    def add_code(self, code: "CodeObject") -> int:
        self.codes.append(code)
        return len(self.codes) - 1

    def with_mediators(self, semantics: str, pre_intern) -> tuple["ConstantPool", list[int]]:
        """A fresh pool of ``semantics`` with this pool's constants, labels
        and operators, and its mediators mapped through ``pre_intern``;
        mediators that map to the same node share one entry, in order of
        first occurrence.  Returns the pool, with no code objects yet, and
        the old → new mediator index map."""
        pool = ConstantPool(list(self.consts), [], list(self.labels), list(self.prims), [],
                            semantics)
        pool._const_index = dict(self._const_index)
        pool._label_index = dict(self._label_index)
        pool._prim_index = dict(self._prim_index)
        return pool, [pool.add_canonical_mediator(pre_intern(c)) for c in self.coercions]


class CodeObject:
    """One compiled function body (or the program's top level).

    Frame locals are laid out as ``[free vars..., parameter, let slots...]``:
    the first ``n_free`` slots are filled from the closure's captured tuple,
    slot ``n_free`` receives the argument, and ``let`` bindings get the rest.
    """

    __slots__ = (
        "name",
        "instructions",
        "pool",
        "n_free",
        "n_locals",
        "param",
        "local_names",
        "caches",
        "opt_level",
    )

    def __init__(
        self,
        name: str,
        instructions: list[tuple[int, int]],
        pool: ConstantPool,
        n_free: int,
        n_locals: int,
        param: str | None,
        local_names: tuple[str, ...],
    ):
        self.name = name
        self.instructions = instructions
        self.pool = pool
        self.n_free = n_free
        self.n_locals = n_locals
        self.param = param
        self.local_names = local_names
        # Set by the optimizer: per-site inline-cache cells (a list parallel
        # to `instructions`, None until the stack VM's `-O2` allocates it;
        # the VM leaves the caches off — the PR-3 baseline — when this is
        # None) and the level the program was optimized at.
        self.caches: list | None = None
        self.opt_level = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<code {self.name}: {len(self.instructions)} instrs, "
            f"{self.n_free} free, {self.n_locals} locals>"
        )


def all_code_objects(code: CodeObject) -> list[CodeObject]:
    """The program's code objects: the entry point followed by the code pool."""
    result = [code]
    for child in code.pool.codes:
        if child is not code:
            result.append(child)
    return result
