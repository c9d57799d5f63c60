"""Register allocation: stack bytecode → the packed register IR of the rvm.

This pass sits after the optimizer (:mod:`repro.compiler.opt`) and converts
each stack :class:`~repro.compiler.bytecode.CodeObject` into an
:class:`RCode`: a **flat packed word stream** (``array('I')``) over the same
shared constant pool, executed by :mod:`repro.compiler.rvm`.  Four changes
relative to the stack IR, each removing per-instruction Python-object work:

* **registers instead of stack traffic.**  The converter symbolically
  executes the operand stack at compile time: every stack slot at every
  program point is resolved to a *register* — frame locals keep their
  slots, stack temporaries get the registers above them (``n_locals +
  depth``).  ``LOAD``/``PUSH_CONST``/``STORE`` round trips disappear
  entirely; a consumer reads its operands straight out of the register
  file.

* **constants pinned in the register file.**  Each code object's used pool
  constants are appended to its register file as read-only registers
  (``RCode.const_regs``), pre-filled in the frame template
  (``RCode.rest``).  A value operand is then always a plain register
  number — the hot loop reads ``regs[w]`` with no tag test, and constants
  flow into consumers without materialization instructions.

* **packed words instead of object tuples.**  An instruction is an opcode
  word followed by its operand words, all small unsigned ints in one flat
  ``array('I')`` per code object — no per-instruction tuple objects, no
  tuple unpacking in the hot loop.  (The interpreter localizes the words
  into a tuple once per code object — ``RCode.words`` stays the canonical
  packed form that images serialize; see :attr:`RCode.stream`.)

* **structural and peephole fusion.**  A primitive reads both inputs and
  writes its destination in one instruction, and a primitive feeding a
  conditional branch is one compare-and-branch (``BR_PRIM2``), where the
  stack VM spends separate dispatches on the pushes that feed it.  On top
  of that, at ``-O2`` the hottest *register-level* adjacent pairs are
  fused into two-in-one instructions (:data:`R_FUSIONS`) — e.g.
  ``COMPOSE;COERCE`` and ``PRIM2;TAILCALL``, the inner-loop shapes of
  boundary-crossing tail recursion — halving dispatches per iteration
  again.

The mediator discipline is untouched: ``COMPOSE``/``COERCE``/call-site
proxy unwrapping convert 1:1 (same pool indices, same order), so the single
pending-coercion slot per frame, the memoised ``#``/``∘`` merges, and the
``-O2`` inline mediator caches carry over unchanged — a boundary tail loop
still runs with ``max_pending_mediators == 1`` (asserted against the stack
VM by ``check_oracle_matrix``).

**One pass.**  Conversion walks each code object's stack instructions
once and emits final words: a pair in :data:`R_FUSIONS` is fused as its
second half is emitted (unless a branch lands on that half), and the two
operand kinds that are not known yet — branch targets and pinned constant
registers — are recorded by position and patched when the walk ends.  The
register pipeline (:func:`repro.compiler.rvm.compile_register_program`)
feeds it the output of the shared optimizer passes: the same instruction
stream the stack VM runs (``vm.compile_term`` differs only by its inline
cache cells).  The register program it returns references no stack code,
and a register ``.gradb`` image stores only its words.

**Instruction signatures.**  Every opcode's operand layout is a signature
string (:data:`R_SIGS`), one character per operand word — the single
source of truth for widths, disassembly, image validation, and which
operands the converter pins:

=====  =======================================================
char   operand word
=====  =======================================================
``d``  destination register
``s``  source register (a local, a temporary, or a pinned const)
``p``  operator index (``pool.prims``)
``c``  mediator index (``pool.coercions``)
``k``  constant index (``pool.consts`` — ``FIX``'s type annotation)
``C``  code index (``pool.rcodes``)
``L``  blame-label index (``pool.labels``)
``t``  branch target (a word pc in this stream)
``n``  source count, followed by that many ``s`` words (``*``)
=====  =======================================================

Base instruction set (fused opcodes concatenate two of these):

==============  ======  =============================================
opcode          sig     effect
==============  ======  =============================================
``MOVE``        d s     ``r[d] = r[s]``
``PRIM1``       d p s   unary operator
``PRIM2``       d p s s binary operator
``PRIMN``       d p n*  n-ary operator
``BR_PRIM1``    p s t   unary operator, branch if false
``BR_PRIM2``    p s s t binary operator, branch if false
``BR_FALSE``    s t     branch if false
``JUMP``        t       unconditional branch
``CALL``        d s s   push a frame; result lands in ``d``
``TAILCALL``    s s     reuse the frame (pending survives)
``RETURN``      s       apply pending, pop the frame
``COERCE``      d s c   immediate mediator application
``COMPOSE``     c       merge into the frame's pending slot
``CLOSURE``     d C n*  build a closure over n captured sources
``FIX``         d s k   wrap a functional as ``fix V``
``PAIR``        d s s   build a pair
``FST``/``SND`` d s     project a pair (or pair proxy)
``BLAME``       L       halt with ``blame p``
==============  ======  =============================================
"""

from __future__ import annotations

import hashlib
from array import array
from functools import lru_cache

from ..core.errors import CompileError
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

# Register opcodes: a numbering space of their own (a register stream is
# never mixed with a stack stream).  The numbering is part of the dispatch
# design: fused superinstructions (-O2 peephole pairs, see below) and their
# bases are arranged so the interpreter's hottest tests come first and the
# three shared-body families sit in contiguous bands it can catch with one
# range test each — calls in 20–25, returns in 26–28, coerces in 29–30.
R_COERCE_BR_PRIM1 = 0
R_COMPOSE_COERCE = 1
R_CLOSURE_BR_PRIM1 = 2
R_COMPOSE_PRIM2 = 3
R_BR_PRIM2 = 4
R_PRIM2 = 5
R_MOVE_PRIM2 = 6
R_BR_PRIM1 = 7
R_BR_FALSE = 8
R_MOVE = 9
R_JUMP = 10
R_CLOSURE = 11
R_PRIM1 = 12
R_FIX = 13
R_PAIR = 14
R_FST = 15
R_SND = 16
R_PRIMN = 17
R_BLAME = 18
R_COMPOSE = 19
R_TAILCALL = 20
R_PRIM2_TAILCALL = 21
R_COERCE_TAILCALL = 22
R_CALL = 23
R_COERCE_CALL = 24
R_PRIM2_CALL = 25
R_RETURN = 26
R_PRIM2_RETURN = 27
R_CLOSURE_RETURN = 28
R_COERCE = 29
R_COERCE_COERCE = 30

#: Fused opcode → its two halves, in execution order.  These are the
#: statically adjacent pairs that dominate the workloads' inner loops —
#: measured by dynamic pair frequencies over the benchmark workloads.
#: Operand words are the first half's followed by the second half's; each
#: half keeps its own inline-cache cell (first at the instruction's pc,
#: second at pc+1).
R_FUSED = {
    R_COERCE_BR_PRIM1: (R_COERCE, R_BR_PRIM1),
    R_COMPOSE_COERCE: (R_COMPOSE, R_COERCE),
    R_CLOSURE_BR_PRIM1: (R_CLOSURE, R_BR_PRIM1),
    R_COMPOSE_PRIM2: (R_COMPOSE, R_PRIM2),
    R_MOVE_PRIM2: (R_MOVE, R_PRIM2),
    R_PRIM2_TAILCALL: (R_PRIM2, R_TAILCALL),
    R_COERCE_TAILCALL: (R_COERCE, R_TAILCALL),
    R_COERCE_CALL: (R_COERCE, R_CALL),
    R_PRIM2_CALL: (R_PRIM2, R_CALL),
    R_PRIM2_RETURN: (R_PRIM2, R_RETURN),
    R_CLOSURE_RETURN: (R_CLOSURE, R_RETURN),
    R_COERCE_COERCE: (R_COERCE, R_COERCE),
}

#: Adjacent pair → fused opcode, the peephole table of the converter.
R_FUSIONS = {halves: fused for fused, halves in R_FUSED.items()}

_BASE_NAMES = {
    R_MOVE: "MOVE",
    R_PRIM1: "PRIM1",
    R_PRIM2: "PRIM2",
    R_PRIMN: "PRIMN",
    R_BR_PRIM1: "BR_PRIM1",
    R_BR_PRIM2: "BR_PRIM2",
    R_BR_FALSE: "BR_FALSE",
    R_JUMP: "JUMP",
    R_CALL: "CALL",
    R_TAILCALL: "TAILCALL",
    R_RETURN: "RETURN",
    R_COERCE: "COERCE",
    R_COMPOSE: "COMPOSE",
    R_CLOSURE: "CLOSURE",
    R_FIX: "FIX",
    R_PAIR: "PAIR",
    R_FST: "FST",
    R_SND: "SND",
    R_BLAME: "BLAME",
}

R_OPCODE_NAMES = dict(_BASE_NAMES)
for _fused, (_op1, _op2) in R_FUSED.items():
    R_OPCODE_NAMES[_fused] = f"{_BASE_NAMES[_op1]}_{_BASE_NAMES[_op2]}"

R_OPCODES_BY_NAME = {name: code for code, name in R_OPCODE_NAMES.items()}

_BASE_SIGS = {
    R_MOVE: "ds",
    R_PRIM1: "dps",
    R_PRIM2: "dpss",
    R_PRIMN: "dpn",
    R_BR_PRIM1: "pst",
    R_BR_PRIM2: "psst",
    R_BR_FALSE: "st",
    R_JUMP: "t",
    R_CALL: "dss",
    R_TAILCALL: "ss",
    R_RETURN: "s",
    R_COERCE: "dsc",
    R_COMPOSE: "c",
    R_CLOSURE: "dCn",
    R_FIX: "dsk",
    R_PAIR: "dss",
    R_FST: "ds",
    R_SND: "ds",
    R_BLAME: "L",
}

#: Opcode → operand signature (see the module docstring).  A trailing or
#: embedded ``n`` is followed by that many extra ``s`` words at run time.
R_SIGS = dict(_BASE_SIGS)
for _fused, (_op1, _op2) in R_FUSED.items():
    R_SIGS[_fused] = _BASE_SIGS[_op1] + _BASE_SIGS[_op2]

#: Fixed part of each instruction's width in words (opcode word included);
#: every ``n`` in the signature adds its count of source words on top.
R_WIDTHS = {op: 1 + len(sig) for op, sig in R_SIGS.items()}

#: Opcodes whose width depends on an ``n`` operand.
R_VARIABLE = frozenset(op for op, sig in R_SIGS.items() if "n" in sig)


def instruction_width(op: int, words, pc: int) -> int:
    """The full width in words of the instruction at ``pc`` (``op`` =
    ``words[pc]``), counting any variable source lists."""
    width = R_WIDTHS[op]
    if op in R_VARIABLE:
        sig = R_SIGS[op]
        offset = 1
        for ch in sig:
            if ch == "n":
                width += words[pc + offset]
            offset += 1
            if ch == "n":
                offset += words[pc + offset - 1]
    return width


@lru_cache(maxsize=1)
def register_fingerprint() -> bytes:
    """An 8-byte digest of the register instruction set (mirrors
    :func:`~repro.compiler.bytecode.opcode_fingerprint`): serialized register
    streams embed it, so an image from a different register ISA is rejected
    at load time instead of dispatched wrongly."""
    digest = hashlib.sha256()
    for code in sorted(R_OPCODE_NAMES):
        digest.update(f"{code}={R_OPCODE_NAMES[code]}/{R_SIGS[code]};".encode())
    return digest.digest()[:8]


class RCode:
    """One register-code function body over the shared constant pool.

    ``words`` is the canonical packed instruction stream (``array('I')``);
    ``stream`` is the same words localized into a tuple, which is what the
    rvm's dispatch loop indexes (a tuple fetch skips the array item's int
    boxing).  The register file extends the stack code's locals —
    ``[free vars..., parameter, let slots..., stack temporaries...,
    pinned constants...]`` — and ``rest`` is the per-call template of the
    registers after the argument, with the constants (``const_regs``, pool
    indices in register order) already in place: a call frame is the one
    list display ``[*captured, argument, *rest]``.
    """

    __slots__ = (
        "name",
        "words",
        "stream",
        "pool",
        "n_free",
        "n_regs",
        "const_regs",
        "rest",
        "param",
        "local_names",
        "caches",
        "opt_level",
    )

    def __init__(
        self,
        name: str,
        words: array,
        pool,
        n_free: int,
        n_regs: int,
        const_regs: tuple[int, ...],
        param: str | None,
        local_names: tuple[str, ...],
        opt_level: int = 0,
    ):
        self.name = name
        self.words = words
        self.stream = tuple(words)
        self.pool = pool
        self.n_free = n_free
        self.n_regs = n_regs
        self.const_regs = const_regs
        self.rest = (None,) * (n_regs - len(const_regs) - n_free - 1) + tuple(
            pool.consts[i] for i in const_regs
        )
        self.param = param
        self.local_names = local_names
        self.opt_level = opt_level
        # Per-site inline mediator caches, indexed by the pc of the opcode
        # word — pc+1 for the second half of a fused pair (None below -O2,
        # mirroring the stack VM's CodeObject.caches).
        self.caches: list | None = [None] * (len(words) + 1) if opt_level >= 2 else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<rcode {self.name}: {len(self.words)} words, "
            f"{self.n_free} free, {self.n_regs} regs>"
        )


def all_rcodes(rcode: RCode) -> list["RCode"]:
    """The program's register code objects: entry first, then the pool's."""
    result = [rcode]
    for child in rcode.pool.rcodes:
        if child is not rcode:
            result.append(child)
    return result


# ---------------------------------------------------------------------------
# Stack → register conversion
# ---------------------------------------------------------------------------

#: During conversion, a symbolic source ``w`` at or above this base names
#: pool constant ``w - RK`` (below it, register ``w``).  The tag never
#: reaches the final stream: every tagged word is rewritten to the
#: constant's pinned register once the register file's size is known.
RK = 1 << 18

#: Base opcode → operand slots (0-based, after the opcode word) holding a
#: source register; for the ``n`` opcodes, the slot the source list starts
#: at instead (every operand from there on is a source).
_SOURCE_SLOTS = {
    op: tuple(slot for slot, ch in enumerate(sig) if ch == "s")
    for op, sig in _BASE_SIGS.items()
    if "n" not in sig
}
_SOURCES_FROM = {op: sig.index("n") + 1 for op, sig in _BASE_SIGS.items() if "n" in sig}


class _RBuilder:
    """Mutable state for one register code object under conversion."""

    def __init__(self, obj: CodeObject, insns: list[tuple[int, int]]):
        self.obj = obj
        self.insns = insns
        self.base = obj.n_locals
        self.words: list[int] = []
        self.max_depth = 0
        # stack pc of every jump target (joins need a canonical stack shape).
        self.targets = {operand for op, operand in insns if op in (JUMP, JUMP_IF_FALSE)}
        # stack pc -> word pc, filled as instructions are emitted.
        self.word_of: dict[int, int] = {}
        # (index into words holding a stack-pc target) to patch at the end.
        self.fixups: list[int] = []
        # stack pc -> the canonical symbolic stack entering that join.
        self.saved: dict[int, list[int]] = {}
        # Index into words of every RK-tagged source, in stream order.
        self.const_sites: list[int] = []
        # -O2 pair fusion: the opcode and pc of the previous instruction
        # while it may still become a fused pair's first half (-1 when it
        # may not), and the word pc a branch last landed on.
        self.fuse = obj.opt_level >= 2
        self.last_op = -1
        self.last_pc = -1
        self.landing = -1

    def emit(self, op: int, *operands: int) -> None:
        """Append one base instruction.  At ``-O2`` it fuses into the
        previous one when the pair is in :data:`R_FUSIONS` and no branch
        lands on it; a fused pair's second half never opens another pair."""
        words = self.words
        pc = len(words)
        fused = R_FUSIONS.get((self.last_op, op)) if pc != self.landing else None
        if fused is not None:
            words[self.last_pc] = fused
            self.last_op = -1
        else:
            words.append(op)
            if self.fuse:
                self.last_op = op
                self.last_pc = pc
        start = len(words)
        words.extend(operands)
        slots = _SOURCE_SLOTS.get(op)
        if slots is None:
            slots = range(_SOURCES_FROM[op], len(operands))
        for slot in slots:
            if operands[slot] >= RK:
                self.const_sites.append(start + slot)

    def emit_jump_operand(self, stack_target: int) -> None:
        self.fixups.append(len(self.words))
        self.words.append(stack_target)

    def note_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth

    def canonicalize(self, stack: list[int]) -> None:
        """Force every stack entry into its canonical register (``base + d``)
        so join points meet a path-independent register shape."""
        for d, src in enumerate(stack):
            want = self.base + d
            if src != want:
                self.emit(R_MOVE, want, src)
                stack[d] = want
        self.note_depth(len(stack))


def _convert_code(obj: CodeObject, pool: ConstantPool) -> RCode:
    """Convert one stack code object in a single pass over its instructions,
    into register code over the register program's ``pool``.

    Words come out final except for two kinds of placeholder, patched by
    position at the end: branch operands (a stack pc until every target's
    word pc is known) and constant sources (``RK``-tagged until the size of
    the register file, and so the first pinned register, is known).
    """
    insns = obj.instructions
    b = _RBuilder(obj, insns)
    n = len(insns)
    prims = pool.prims
    codes = obj.pool.codes
    targets = b.targets
    saved = b.saved
    word_of = b.word_of
    words = b.words
    emit = b.emit
    stack: list[int] | None = []
    i = 0
    while i < n:
        if i in targets:
            recorded = saved.get(i)
            if stack is not None:
                b.canonicalize(stack)
                if recorded is None:
                    saved[i] = list(stack)
                elif recorded != stack:  # pragma: no cover - compiler invariant
                    raise CompileError(
                        f"inconsistent stack shapes at join {i} in {obj.name}"
                    )
            elif recorded is not None:
                stack = list(recorded)
            # No recorded shape with no live stack means every jump here
            # sits in a dead region itself (jumps are forward-only), so the
            # target is just as unreachable — ``stack`` stays None.
            if recorded is not None:
                # A branch lands here: no pair fuses across this pc.
                b.landing = len(words)
        if stack is None:
            i += 1  # unreachable (after RETURN/BLAME/JUMP/TAILCALL)
            continue
        word_of[i] = len(words)
        op, operand = insns[i]

        if op == LOAD:
            stack.append(operand)
        elif op == PUSH_CONST:
            stack.append(RK + operand)
        elif op == STORE:
            src = stack.pop()
            _flush_slot(b, stack, operand)
            if src != operand:
                emit(R_MOVE, operand, src)
        elif op == PRIM:
            arity = prims[operand][1]
            srcs = stack[len(stack) - arity:]
            del stack[len(stack) - arity:]
            nxt = insns[i + 1] if i + 1 < n and (i + 1) not in targets else None
            if nxt is not None and nxt[0] == JUMP_IF_FALSE and arity <= 2:
                # Fuse compare-and-branch: the inner-loop shape.
                b.canonicalize(stack)
                saved.setdefault(nxt[1], list(stack))
                if arity == 1:
                    emit(R_BR_PRIM1, operand, srcs[0])
                else:
                    emit(R_BR_PRIM2, operand, srcs[0], srcs[1])
                b.emit_jump_operand(nxt[1])
                i += 2
                continue
            dst, skip = _dest(b, stack, i)
            if arity == 1:
                emit(R_PRIM1, dst, operand, srcs[0])
            elif arity == 2:
                emit(R_PRIM2, dst, operand, srcs[0], srcs[1])
            else:
                emit(R_PRIMN, dst, operand, arity, *srcs)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == JUMP_IF_FALSE:
            cond = stack.pop()
            b.canonicalize(stack)
            saved.setdefault(operand, list(stack))
            emit(R_BR_FALSE, cond)
            b.emit_jump_operand(operand)
        elif op == JUMP:
            b.canonicalize(stack)
            saved.setdefault(operand, list(stack))
            emit(R_JUMP)
            b.emit_jump_operand(operand)
            stack = None
        elif op == CALL:
            arg = stack.pop()
            fun = stack.pop()
            dst, skip = _dest(b, stack, i)
            emit(R_CALL, dst, fun, arg)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == TAILCALL:
            arg = stack.pop()
            fun = stack.pop()
            emit(R_TAILCALL, fun, arg)
            stack = None
        elif op == RETURN:
            emit(R_RETURN, stack.pop())
            stack = None
        elif op == COERCE:
            src = stack.pop()
            dst, skip = _dest(b, stack, i)
            emit(R_COERCE, dst, src, operand)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == COMPOSE:
            emit(R_COMPOSE, operand)
        elif op == MAKE_CLOSURE:
            n_free = codes[operand].n_free
            srcs = stack[len(stack) - n_free:] if n_free else []
            if n_free:
                del stack[len(stack) - n_free:]
            dst, skip = _dest(b, stack, i)
            emit(R_CLOSURE, dst, operand, n_free, *srcs)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == MAKE_FIX:
            src = stack.pop()
            dst, skip = _dest(b, stack, i)
            emit(R_FIX, dst, src, operand)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == PAIR:
            right = stack.pop()
            left = stack.pop()
            dst, skip = _dest(b, stack, i)
            emit(R_PAIR, dst, left, right)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == FST or op == SND:
            src = stack.pop()
            dst, skip = _dest(b, stack, i)
            emit(R_FST if op == FST else R_SND, dst, src)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == BLAME:
            emit(R_BLAME, operand)
            stack = None
        else:  # pragma: no cover - defensive
            raise CompileError(f"cannot register-allocate stack opcode {op}")
        i += 1

    word_of.setdefault(n, len(words))
    for index in b.fixups:
        words[index] = word_of[words[index]]
    # Pin every distinct constant the code reads to one register above the
    # locals and temporaries (at least 1, the file's minimum size), in
    # order of first use; RCode pre-fills the frame template with them.
    base = max(b.base + b.max_depth, 1)
    reg_of: dict[int, int] = {}
    for index in b.const_sites:
        w = words[index]
        reg = reg_of.get(w)
        if reg is None:
            reg = reg_of[w] = base + len(reg_of)
        words[index] = reg
    return RCode(
        obj.name,
        array("I", words),
        pool,
        obj.n_free,
        base + len(reg_of),
        tuple(w - RK for w in reg_of),
        obj.param,
        obj.local_names,
        opt_level=obj.opt_level,
    )


def _flush_slot(b: _RBuilder, stack: list[int], slot: int) -> None:
    """Rescue any symbolic-stack entry still naming ``slot`` before the slot
    is overwritten (moves the copy into its canonical temporary).  The
    lowerer stores each ``let`` slot exactly once, before any load of it, so
    this never fires today — it is insurance against future stack code."""
    for d, src in enumerate(stack):
        if src == slot:
            want = b.base + d
            b.emit(R_MOVE, want, src)
            stack[d] = want
            b.note_depth(d + 1)


def _dest(b: _RBuilder, stack: list[int], i: int) -> tuple[int, int]:
    """The destination register for the producer at stack pc ``i``.

    When the very next stack instruction is a ``STORE`` (binding a ``let``),
    the producer writes the let slot directly and the store is skipped —
    returns ``(slot, 1)``; otherwise the canonical temporary for the current
    depth — ``(base + depth, 0)``.
    """
    nxt = b.insns[i + 1] if i + 1 < len(b.insns) else None
    if nxt is not None and nxt[0] == STORE and (i + 1) not in b.targets:
        _flush_slot(b, stack, nxt[1])
        return nxt[1], 1
    dst = b.base + len(stack)
    b.note_depth(len(stack) + 1)
    return dst, 0


def compile_registers(code: CodeObject) -> RCode:
    """Convert an optimized stack program into the register IR.

    The register program gets a pool of its own, which shares the stack
    pool's constants, mediators, labels and operators and holds no stack
    code objects: the converted children are its ``rcodes`` (parallel to
    the stack pool's ``codes``, so ``CLOSURE`` operands keep their
    indices), and the converted entry code is returned.  The stack program
    is only read.  Conversion is deterministic and accepts any ``-O``
    level; register-level fusion and inline caches come back at ``-O2``.
    """
    pool = code.pool
    rpool = ConstantPool(pool.consts, pool.coercions, pool.labels, pool.prims,
                         semantics=pool.semantics)
    rpool.rcodes = [_convert_code(child, rpool) for child in pool.codes]
    return _convert_code(code, rpool)
