"""The stack → register converter as it was before conversion became one
pass: convert, then walk the finished word stream again to pin constants
(``_pin_constants``) and to fuse register pairs (``fuse_stream``).  Kept
as the oracle for the differential property in ``test_regalloc.py``; it
must not be used by the package.

The functions below are copied verbatim, except that ``_convert_code``
takes the stack stream as it is: the stack IR has no superinstructions to
expand.  Only this docstring, the imports and :func:`reference_streams`
are new.
"""

from __future__ import annotations

from array import array

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
    all_code_objects,
)
from repro.compiler.regalloc import (
    R_BLAME,
    R_BR_FALSE,
    R_BR_PRIM1,
    R_BR_PRIM2,
    R_CALL,
    R_CLOSURE,
    R_COERCE,
    R_COMPOSE,
    R_FIX,
    R_FST,
    R_FUSIONS,
    R_JUMP,
    R_MOVE,
    R_PAIR,
    R_PRIM1,
    R_PRIM2,
    R_PRIMN,
    R_RETURN,
    R_SIGS,
    R_SND,
    R_TAILCALL,
    RCode,
    instruction_width,
)
from repro.core.errors import CompileError


def _operand_offsets(op: int, words, pc: int, kind: str) -> list[int]:
    """Word offsets (relative to ``pc``) of every ``kind`` operand of the
    instruction at ``pc``, expanding ``n`` source lists when ``kind == 's'``."""
    offsets = []
    offset = 1
    for ch in R_SIGS[op]:
        if ch == "n":
            count = words[pc + offset]
            if kind == "s":
                offsets.extend(range(offset + 1, offset + 1 + count))
            offset += 1 + count
        else:
            if ch == kind:
                offsets.append(offset)
            offset += 1
    return offsets


# ---------------------------------------------------------------------------
# Stack → register conversion
# ---------------------------------------------------------------------------

#: During conversion, a symbolic source ``w`` at or above this base names
#: pool constant ``w - RK`` (below it, register ``w``).  The tag never
#: reaches the final stream: :func:`_pin_constants` rewrites every tagged
#: word to the constant's pinned register.
RK = 1 << 18


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

    def emit(self, *ws: int) -> None:
        self.words.extend(ws)

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


def _convert_code(obj: CodeObject, pool) -> RCode:
    b = _RBuilder(obj, list(obj.instructions))
    insns = b.insns
    n = len(insns)
    prims = pool.prims
    stack: list[int] | None = []
    i = 0
    while i < n:
        if i in b.targets:
            if stack is not None:
                b.canonicalize(stack)
                recorded = b.saved.get(i)
                if recorded is None:
                    b.saved[i] = list(stack)
                elif recorded != stack:  # pragma: no cover - compiler invariant
                    raise CompileError(
                        f"inconsistent stack shapes at join {i} in {obj.name}"
                    )
            else:
                recorded = b.saved.get(i)
                if recorded is not None:
                    stack = list(recorded)
                # No recorded shape means every jump here sits in a dead
                # region itself (jumps are forward-only), so the target is
                # just as unreachable — leave ``stack`` as None and skip on.
        if stack is None:
            i += 1  # unreachable (after RETURN/BLAME/JUMP/TAILCALL)
            continue
        b.word_of.setdefault(i, len(b.words))
        op, operand = insns[i]

        if op == LOAD:
            stack.append(operand)
        elif op == PUSH_CONST:
            stack.append(RK + operand)
        elif op == STORE:
            src = stack.pop()
            _flush_slot(b, stack, operand)
            if src != operand:
                b.emit(R_MOVE, operand, src)
        elif op == PRIM:
            arity = prims[operand][1]
            srcs = stack[len(stack) - arity:]
            del stack[len(stack) - arity:]
            nxt = insns[i + 1] if i + 1 < n and (i + 1) not in b.targets else None
            if nxt is not None and nxt[0] == JUMP_IF_FALSE and arity <= 2:
                # Fuse compare-and-branch: the inner-loop shape.
                b.canonicalize(stack)
                b.saved.setdefault(nxt[1], list(stack))
                if arity == 1:
                    b.emit(R_BR_PRIM1, operand, srcs[0])
                else:
                    b.emit(R_BR_PRIM2, operand, srcs[0], srcs[1])
                b.emit_jump_operand(nxt[1])
                i += 2
                continue
            dst, skip = _dest(b, stack, i)
            if arity == 1:
                b.emit(R_PRIM1, dst, operand, srcs[0])
            elif arity == 2:
                b.emit(R_PRIM2, dst, operand, srcs[0], srcs[1])
            else:
                b.emit(R_PRIMN, dst, operand, arity, *srcs)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == JUMP_IF_FALSE:
            cond = stack.pop()
            b.canonicalize(stack)
            b.saved.setdefault(operand, list(stack))
            b.emit(R_BR_FALSE, cond)
            b.emit_jump_operand(operand)
        elif op == JUMP:
            b.canonicalize(stack)
            b.saved.setdefault(operand, list(stack))
            b.emit(R_JUMP)
            b.emit_jump_operand(operand)
            stack = None
        elif op == CALL:
            arg = stack.pop()
            fun = stack.pop()
            dst, skip = _dest(b, stack, i)
            b.emit(R_CALL, dst, fun, arg)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == TAILCALL:
            arg = stack.pop()
            fun = stack.pop()
            b.emit(R_TAILCALL, fun, arg)
            stack = None
        elif op == RETURN:
            b.emit(R_RETURN, stack.pop())
            stack = None
        elif op == COERCE:
            src = stack.pop()
            dst, skip = _dest(b, stack, i)
            b.emit(R_COERCE, dst, src, operand)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == COMPOSE:
            b.emit(R_COMPOSE, operand)
        elif op == MAKE_CLOSURE:
            n_free = pool.codes[operand].n_free
            srcs = stack[len(stack) - n_free:] if n_free else []
            if n_free:
                del stack[len(stack) - n_free:]
            dst, skip = _dest(b, stack, i)
            b.emit(R_CLOSURE, dst, operand, n_free, *srcs)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == MAKE_FIX:
            src = stack.pop()
            dst, skip = _dest(b, stack, i)
            b.emit(R_FIX, dst, src, operand)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == PAIR:
            right = stack.pop()
            left = stack.pop()
            dst, skip = _dest(b, stack, i)
            b.emit(R_PAIR, dst, left, right)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == FST or op == SND:
            src = stack.pop()
            dst, skip = _dest(b, stack, i)
            b.emit(R_FST if op == FST else R_SND, dst, src)
            if not skip:
                stack.append(dst)
            i += 1 + skip
            continue
        elif op == BLAME:
            b.emit(R_BLAME, operand)
            stack = None
        else:  # pragma: no cover - defensive
            raise CompileError(f"cannot register-allocate stack opcode {op}")
        i += 1

    b.word_of.setdefault(n, len(b.words))
    for index in b.fixups:
        b.words[index] = b.word_of[b.words[index]]
    words = b.words
    base_regs = b.base + b.max_depth
    words, const_regs = _pin_constants(words, base_regs)
    if obj.opt_level >= 2:
        words = fuse_stream(words)
    return RCode(
        obj.name,
        array("I", words),
        pool,
        obj.n_free,
        max(base_regs, 1) + len(const_regs),
        const_regs,
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


def _pin_constants(words: list[int], base: int) -> tuple[list[int], tuple[int, ...]]:
    """Rewrite ``RK``-tagged source words to pinned constant registers.

    Every distinct pool constant the code reads gets one register above the
    locals and temporaries (``base`` is the first free number — at least 1,
    matching the file's minimum size); the returned pool-index tuple, in
    register order, is what :class:`RCode` pre-fills the frame template
    with.
    """
    base = max(base, 1)
    words = list(words)
    reg_of: dict[int, int] = {}
    pc = 0
    n = len(words)
    while pc < n:
        op = words[pc]
        for offset in _operand_offsets(op, words, pc, "s"):
            w = words[pc + offset]
            if w >= RK:
                reg = reg_of.get(w)
                if reg is None:
                    reg = base + len(reg_of)
                    reg_of[w] = reg
                words[pc + offset] = reg
        pc += instruction_width(op, words, pc)
    return words, tuple(w - RK for w in reg_of)


def fuse_stream(words: list[int]) -> list[int]:
    """Fuse statically adjacent hot pairs (:data:`R_FUSIONS`) into two-in-one
    instructions.  A pair is only fused when no branch lands on its second
    half; branch targets are remapped to the fused layout.  Deterministic,
    so the two mediator backends (and a reserialized image) fuse
    identically."""
    # First pass: instruction starts and the set of branch-target pcs.
    starts = []
    targets = set()
    pc = 0
    n = len(words)
    while pc < n:
        op = words[pc]
        starts.append(pc)
        for offset in _operand_offsets(op, words, pc, "t"):
            targets.add(words[pc + offset])
        pc += instruction_width(op, words, pc)
    # Second pass: greedy left-to-right pairing.
    out: list[int] = []
    new_of: dict[int, int] = {}
    index = 0
    count = len(starts)
    while index < count:
        pc = starts[index]
        op = words[pc]
        width = instruction_width(op, words, pc)
        new_of[pc] = len(out)
        if index + 1 < count:
            nxt_pc = starts[index + 1]
            fused = R_FUSIONS.get((op, words[nxt_pc]))
            if fused is not None and nxt_pc not in targets:
                nxt_width = instruction_width(words[nxt_pc], words, nxt_pc)
                out.append(fused)
                out.extend(words[pc + 1 : pc + width])
                out.extend(words[nxt_pc + 1 : nxt_pc + nxt_width])
                index += 2
                continue
        out.extend(words[pc : pc + width])
        index += 1
    new_of[n] = len(out)
    # Third pass: remap branch targets.
    pc = 0
    n = len(out)
    while pc < n:
        op = out[pc]
        for offset in _operand_offsets(op, out, pc, "t"):
            out[pc + offset] = new_of[out[pc + offset]]
        pc += instruction_width(op, out, pc)
    return out


def reference_streams(code: CodeObject) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """``(words, const_regs, n_regs)`` of every code object of ``code``, entry
    first, as the old converter produced them."""
    return [
        (tuple(r.words), r.const_regs, r.n_regs)
        for r in (_convert_code(obj, code.pool) for obj in all_code_objects(code))
    ]
