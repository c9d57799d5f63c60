"""Disassembler and constant-pool pretty-printer for compiled programs.

``disassemble`` renders a whole program — the entry code object, every
nested code object, and the shared constant pool — as text::

    code 0 <main>  (free=0, param=-, locals=2)
       0  PUSH_CONST    0        ; 200 : int
       1  MAKE_CLOSURE  1        ; code 1 λn
       ...

    pool coercions:
       0: (id[bool] ; bool!)

The instruction stream is machine-readable: :func:`parse_disassembly`
recovers the exact ``(opcode, operand)`` lists from the text, and the round
trip ``parse_disassembly(disassemble(code)) == instruction_streams(code)``
is asserted by the test suite.  Pool entries are printed with their pretty
forms for debugging; they are referenced by index, not re-parsed.
"""

from __future__ import annotations

import re

from ..core.errors import CompileError
from .bytecode import (
    BLAME,
    COERCE,
    COMPOSE,
    JUMP,
    JUMP_IF_FALSE,
    LOAD,
    MAKE_CLOSURE,
    MAKE_FIX,
    NO_OPERAND,
    OPCODE_NAMES,
    OPCODES_BY_NAME,
    PRIM,
    PUSH_CONST,
    STORE,
    CodeObject,
    all_code_objects,
)
from .regalloc import (
    R_OPCODE_NAMES,
    R_OPCODES_BY_NAME,
    R_SIGS,
    all_rcodes,
    instruction_width,
)

_INSTR_RE = re.compile(r"^\s*(\d+)\s+([A-Z][A-Z_0-9]*)(?:\s+(-?\d+))?\s*(?:;.*)?$")
_CODE_RE = re.compile(r"^code\s+(\d+)\s+(\S+)")
_RINSTR_RE = re.compile(r"^\s*(\d+)\s+([A-Z][A-Z_0-9]*)((?:\s+\d+)*)\s*(?:;.*)?$")
_RCODE_RE = re.compile(r"^rcode\s+(\d+)\s+(\S+)")


def _comment(code: CodeObject, opcode: int, operand: int) -> str:
    pool = code.pool
    if opcode == PUSH_CONST or opcode == MAKE_FIX:
        return str(pool.consts[operand])
    if opcode == LOAD or opcode == STORE:
        names = code.local_names
        return names[operand] if operand < len(names) else "?"
    if opcode == COERCE or opcode == COMPOSE:
        return str(pool.coercions[operand])
    if opcode == BLAME:
        return str(pool.labels[operand])
    if opcode == PRIM:
        _, arity, _, name = pool.prims[operand]
        return f"{name}/{arity}"
    if opcode == MAKE_CLOSURE:
        child = pool.codes[operand]
        return f"code {operand + 1} {child.name}"
    if opcode == JUMP or opcode == JUMP_IF_FALSE:
        return f"-> {operand}"
    return ""


def disassemble(code: CodeObject) -> str:
    """Render a compiled program (entry code + nested codes + pools) as text."""
    lines: list[str] = []
    for index, obj in enumerate(all_code_objects(code)):
        param = obj.param if obj.param is not None else "-"
        lines.append(
            f"code {index} {obj.name}  (free={obj.n_free}, param={param}, locals={obj.n_locals})"
        )
        for pc, (opcode, operand) in enumerate(obj.instructions):
            name = OPCODE_NAMES[opcode]
            comment = _comment(obj, opcode, operand)
            suffix = f"        ; {comment}" if comment else ""
            if opcode in NO_OPERAND:
                lines.append(f"  {pc:4d}  {name}{suffix}")
            else:
                lines.append(f"  {pc:4d}  {name:<18} {operand}{suffix}")
        lines.append("")
    return "\n".join(lines + _pool_lines(code.pool))


def _pool_lines(pool) -> list[str]:
    """The pools' pretty forms, shared by both IRs' disassembly."""
    lines: list[str] = []
    if pool.consts:
        lines.append("pool consts:")
        for i, value in enumerate(pool.consts):
            lines.append(f"  {i}: {value}")
        lines.append("")
    if pool.coercions:
        lines.append("pool coercions:")
        for i, coercion in enumerate(pool.coercions):
            lines.append(f"  {i}: {coercion}")
        lines.append("")
    if pool.labels:
        lines.append("pool labels:")
        for i, label in enumerate(pool.labels):
            lines.append(f"  {i}: {label}")
        lines.append("")
    if pool.prims:
        lines.append("pool prims:")
        for i, (_, arity, result_type, name) in enumerate(pool.prims):
            lines.append(f"  {i}: {name}/{arity} -> {result_type}")
        lines.append("")
    return lines


def disassemble_image(image) -> str:
    """Disassemble a loaded ``.gradb`` image with its provenance header.

    The provenance lines are comments (``;`` prefixed), so the output still
    satisfies the :func:`parse_disassembly` (or, for a register image,
    :func:`parse_register_disassembly`) round trip — an image disassembly
    minus its header is byte-identical to the disassembly of the same
    program compiled in memory (asserted by the test suite).
    """
    info = image.info
    lines = [
        f"; gradb image v{info.format_version}",
        f"; semantics={info.semantics} opt-level={info.opt_level} ir={info.ir}",
        f"; source-hash={info.source_hash or '-'}",
        f"; type={info.static_type if info.static_type is not None else '-'}",
        "",
    ]
    text = disassemble(image.code) if info.ir == "stack" else disassemble_registers(image.code)
    return "\n".join(lines) + text


def instruction_streams(code: CodeObject) -> list[list[tuple[int, int]]]:
    """The program's raw ``(opcode, operand)`` lists, entry code first."""
    return [list(obj.instructions) for obj in all_code_objects(code)]


def _register_comment(obj, op: int, pc: int) -> str:
    """Describe one register instruction's operands per its signature."""
    pool = obj.pool
    words = obj.words
    parts: list[str] = []
    i = pc + 1
    for ch in R_SIGS[op]:
        w = words[i]
        if ch == "d" or ch == "s":
            parts.append(f"r{w}")
        elif ch == "p":
            _, arity, _, name = pool.prims[w]
            parts.append(f"{name}/{arity}")
        elif ch == "c":
            parts.append(str(pool.coercions[w]))
        elif ch == "k":
            parts.append(str(pool.consts[w]))
        elif ch == "L":
            parts.append(str(pool.labels[w]))
        elif ch == "C":
            # +1: the entry rcode is listed first, shifting the pool's rcodes
            parts.append(f"rcode {w + 1} {pool.rcodes[w].name}")
        elif ch == "t":
            parts.append(f"-> {w}")
        elif ch == "n":
            count = w
            regs = words[i + 1 : i + 1 + count]
            parts.append("[" + " ".join(f"r{x}" for x in regs) + "]")
            i += count
        i += 1
    return " ".join(parts)


def disassemble_registers(rcode) -> str:
    """Render a register-compiled program (entry rcode + nested rcodes +
    pools) as text.  Each line is ``pc NAME w1 w2 …`` where ``pc`` is the
    *word* index of the instruction in the packed stream; the comment spells
    the operands out per the opcode's signature.
    :func:`parse_register_disassembly` recovers the exact word streams (the
    register round trip)."""
    lines: list[str] = []
    for index, obj in enumerate(all_rcodes(rcode)):
        param = obj.param if obj.param is not None else "-"
        pinned = ",".join(map(str, obj.const_regs)) if obj.const_regs else "-"
        lines.append(
            f"rcode {index} {obj.name}  (free={obj.n_free}, param={param}, "
            f"regs={obj.n_regs}, pinned-consts={pinned})"
        )
        words = obj.words
        pc = 0
        end = len(words)
        while pc < end:
            op = words[pc]
            width = instruction_width(op, words, pc)
            name = R_OPCODE_NAMES[op]
            operands = " ".join(str(w) for w in words[pc + 1 : pc + width])
            comment = _register_comment(obj, op, pc)
            suffix = f"        ; {comment}" if comment else ""
            if operands:
                lines.append(f"  {pc:4d}  {name:<22} {operands}{suffix}")
            else:
                lines.append(f"  {pc:4d}  {name}{suffix}")
            pc += width
        lines.append("")
    return "\n".join(lines + _pool_lines(rcode.pool))


def register_streams(rcode) -> list[list[int]]:
    """The program's raw packed word streams, entry rcode first."""
    return [list(obj.words) for obj in all_rcodes(rcode)]


def parse_register_disassembly(text: str) -> list[list[int]]:
    """Recover the packed word streams from register disassembly text."""
    streams: list[list[int]] = []
    current: list[int] | None = None
    for line in text.splitlines():
        if _RCODE_RE.match(line):
            current = []
            streams.append(current)
            continue
        if current is None or not line.strip() or line.startswith("pool"):
            current = None if (line.startswith("pool") or not line.strip()) else current
            continue
        match = _RINSTR_RE.match(line)
        if not match:
            raise CompileError(f"unparseable register disassembly line: {line!r}")
        pc, name, operands = match.groups()
        opcode = R_OPCODES_BY_NAME.get(name)
        if opcode is None:
            raise CompileError(f"unknown register opcode in disassembly: {name!r}")
        if int(pc) != len(current):
            raise CompileError(f"out-of-order pc in register disassembly: {line!r}")
        current.append(opcode)
        current.extend(int(w) for w in operands.split())
    return streams


def parse_disassembly(text: str) -> list[list[tuple[int, int]]]:
    """Recover the instruction streams from disassembly text (the round trip)."""
    streams: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] | None = None
    for line in text.splitlines():
        if _CODE_RE.match(line):
            current = []
            streams.append(current)
            continue
        if current is None or not line.strip() or line.startswith("pool"):
            current = None if (line.startswith("pool") or not line.strip()) else current
            continue
        match = _INSTR_RE.match(line)
        if not match:
            raise CompileError(f"unparseable disassembly line: {line!r}")
        pc, name, operand = match.groups()
        opcode = OPCODES_BY_NAME.get(name)
        if opcode is None:
            raise CompileError(f"unknown opcode in disassembly: {name!r}")
        if int(pc) != len(current):
            raise CompileError(f"out-of-order pc in disassembly: {line!r}")
        current.append((opcode, int(operand) if operand is not None else 0))
    return streams
