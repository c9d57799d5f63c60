"""Serialized bytecode images — the ``.gradb`` format.

A compiled program round-trips through a versioned binary image in the one
IR it was compiled to: a stack program
(:class:`~repro.compiler.bytecode.CodeObject`, run by the vm engine) or a
register program (:class:`~repro.compiler.regalloc.RCode`, run by the rvm
engine), each with its shared :class:`~repro.compiler.bytecode.ConstantPool`::

    ┌──────────────────────────────────────────────────────────────────┐
    │ magic  b"GRADB\\0"                                                │
    │ format version (varint)      — FORMAT_VERSION, checked on load   │
    │ IR: "stack" or "register"                                        │
    │ fingerprint (8 bytes)        — that IR's instruction set         │
    │ provenance: semantics, opt level, source hash, static type       │
    │ type table     — deduplicated, children before parents           │
    │ label table    — (name, polarity) pairs                          │
    │ coercion and labeled-type node tables (as types), name table     │
    │ const pool     — machine constants and bare types                │
    │ mediator pool  — the semantics' mediators (coercions, …)         │
    │ label pool, prim pool — operator names (meanings re-resolved)    │
    │ code objects   — children first, entry last; each is a header    │
    │                  (name, frees, parameter, locals, -O level) and  │
    │                  stack: local count, (opcode, operand) pairs     │
    │                  register: register file, pinned consts, words   │
    │ crc32 of everything above (4 bytes)                              │
    └──────────────────────────────────────────────────────────────────┘

Integers are unsigned LEB128 varints (zigzag where negative values occur);
strings are length-prefixed UTF-8.  The format stores *structure*, never
Python objects: no pickle, no code, nothing executable — a ``.gradb`` file
can only describe instructions the engines already have (the fingerprint
rejects images from a different instruction set).

**Every load validates.**  The checksum catches accidental corruption;
validation catches a checksum-valid image that would still fail mid-run:
an operand outside its pool or register file, broken stack discipline, a
branch that is not forward to an instruction start, a register or local
read before any path writes it, a code object at another ``-O`` level
than the header's, a fused register instruction below ``-O2``.  Each is an
:class:`ImageError` at load, never a Python exception in an engine.  There
is no unchecked load: the compile cache's own entries, images named on the
command line, and every other image take the same path.

**Load-time re-interning** is the point of the exercise.  The type,
coercion and labeled-type tables are written and read by one codec driven
by the interners' field signatures (:class:`~repro.core.intern.Interner`):
a record's tag is its class's place in the interner, and each node decodes
straight into its interner's table, as do threesomes
(:func:`~repro.threesomes.runtime.threesome_node`) and transient checks.
So pool entries of a deserialized image are the *same canonical nodes* a
fresh compilation would produce.  Everything downstream that is keyed on
mediator identity — the memoised ``#``/``∘`` composition caches, the VM's
pool-parallel action tables, and the per-site inline mediator caches —
therefore works identically on a loaded image, which
``tests/test_serialize.py`` asserts by comparing outcomes, blame labels,
step counts, and space profiles against in-memory compilation (and
byte-identical disassembly on top).

Primitive operators are stored by *name* and re-resolved through
:func:`~repro.core.ops.op_spec` on load — meaning functions never touch the
wire, so an image is as portable as the instruction set itself.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path

from ..core.errors import ReproError
from ..core.intern import TYPE_TABLE, Interner
from ..core.labels import Label
from ..core.types import Type
from ..lambda_s.coercions import SPACE_TABLE, SpaceCoercion
from ..machine.values import MConst
from ..semantics import SEMANTICS_NAMES
from ..semantics.erasure import ERASED, ErasedMediator
from ..semantics.transient import TransientCheck, intern_transient
from ..threesomes.runtime import LABELED_TABLE, Threesome, threesome_node
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
    OPCODE_NAMES,
    PAIR,
    PRIM,
    PUSH_CONST,
    RETURN,
    SND,
    STORE,
    TAILCALL,
    CodeObject,
    ConstantPool,
    all_code_objects,
    opcode_fingerprint,
)
from .regalloc import (
    R_BLAME,
    R_BR_PRIM1,
    R_BR_PRIM2,
    R_FUSED,
    R_JUMP,
    R_OPCODE_NAMES,
    R_PRIM1,
    R_PRIM2,
    R_PRIMN,
    R_RETURN,
    R_SIGS,
    R_TAILCALL,
    R_WIDTHS,
    RCode,
    instruction_width,
    register_fingerprint,
)

#: The on-disk format version.  Bump on any incompatible layout change; the
#: loader rejects mismatches before reading anything version-dependent.
#: v3 images hold one IR: a register image stores register code only, where
#: a v2 register image also carried the stack code it was converted from.
FORMAT_VERSION = 3

#: The IRs an image can hold, one per image: each one's code class, and
#: the fingerprint of its instruction set, which the header carries.
IMAGE_IRS = {
    "stack": (CodeObject, opcode_fingerprint),
    "register": (RCode, register_fingerprint),
}

#: Every image starts with these six bytes.
GRADB_MAGIC = b"GRADB\x00"

#: Conventional file extension for serialized images.
GRADB_SUFFIX = ".gradb"


class ImageError(ReproError):
    """A ``.gradb`` image could not be read: bad magic, version or opcode-set
    mismatch, truncation, checksum failure, or malformed section contents."""


@dataclass(frozen=True)
class ImageInfo:
    """Provenance carried by an image (everything but the program itself)."""

    format_version: int
    source_hash: str
    opt_level: int
    semantics: str
    static_type: Type | None
    #: Which IR the image holds: ``"stack"`` or ``"register"``.
    ir: str = "stack"


@dataclass
class LoadedImage:
    """A compiled program, loaded or fresh: its entry code plus provenance.

    ``code`` is in the image's IR (``info.ir``): a stack
    :class:`~repro.compiler.bytecode.CodeObject` whose children are
    ``code.pool.codes``, or a register :class:`~repro.compiler.regalloc.RCode`
    whose children are ``code.pool.rcodes``.
    """

    code: CodeObject | RCode
    info: ImageInfo


def source_fingerprint(text: str) -> str:
    """The content hash used as an image's ``source_hash`` provenance (and as
    one axis of the compile-cache key): hex SHA-256 of the UTF-8 text."""
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Primitive encoders
# ---------------------------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    # Arbitrary-precision zigzag (constants are unbounded Python ints).
    return value * 2 if value >= 0 else -value * 2 - 1


def _write_signed(out: bytearray, value: int) -> None:
    _write_varint(out, _zigzag(value))


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode()
    _write_varint(out, len(data))
    out.extend(data)


class _Reader:
    """A bounds-checked cursor over the image payload.

    The byte-level readers are deliberately inlined (no ``take`` inside
    ``varint``/``string``): deserialization is the compile cache's warm
    path, and Python function-call overhead on tens of thousands of
    one-byte reads is where a naive decoder spends most of its time.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._len = len(data)
        self._pos = 0

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > self._len:
            raise ImageError("truncated image")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def byte(self) -> int:
        pos = self._pos
        if pos >= self._len:
            raise ImageError("truncated image")
        self._pos = pos + 1
        return self._data[pos]

    def varint(self) -> int:
        # No continuation cap: integer *constants* are unbounded Python
        # ints, and termination is already guaranteed because every
        # continuation byte consumes input (the value is O(file size)).
        data = self._data
        pos = self._pos
        limit = self._len
        result = 0
        shift = 0
        while True:
            if pos >= limit:
                raise ImageError("truncated image")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._pos = pos
                return result
            shift += 7

    def signed(self) -> int:
        return _unzigzag(self.varint())

    def varints(self, count: int) -> list[int]:
        """Decode ``count`` varints — the code-object hot loop.

        Nearly every opcode, operand and register word fits one varint
        byte, so the single-byte case is inlined and the generic
        continuation loop only runs for large pool indices and branch
        targets.
        """
        data = self._data
        pos = self._pos
        limit = self._len
        out: list[int] = []
        append = out.append
        for _ in range(count):
            if pos >= limit:
                raise ImageError("truncated image")
            byte = data[pos]
            pos += 1
            value = byte & 0x7F
            shift = 7
            while byte & 0x80:
                if pos >= limit:
                    raise ImageError("truncated image")
                byte = data[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                shift += 7
                if shift > 10 * 7:
                    raise ImageError("malformed varint in image")
            append(value)
        self._pos = pos
        return out

    def pairs(self, count: int) -> list[tuple[int, int]]:
        """Decode ``count`` varint pairs: a stack instruction stream."""
        values = iter(self.varints(2 * count))
        return list(zip(values, values))

    def string(self) -> str:
        length = self.varint()
        end = self._pos + length
        if end > self._len:
            raise ImageError("truncated image")
        try:
            text = self._data[self._pos:end].decode()
        except UnicodeDecodeError as exc:
            raise ImageError(f"malformed string in image: {exc}") from exc
        self._pos = end
        return text

    def at_end(self) -> bool:
        return self._pos == self._len


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CONST_MCONST, _CONST_TYPE = range(2)
_VAL_INT, _VAL_BOOL, _VAL_STR, _VAL_NONE = range(4)


class _NodeTable:
    """One node family's deduplicated table, built while the payload is
    encoded.  A record is the node's tag — its class's index in the
    interner's ``classes`` — and one entry per signature character (see
    :class:`~repro.core.intern.Interner`): ``n``/``t``/``l`` a varint index
    into this, the type or the label table, ``T``/``L`` a signed index (-1
    for ``None``), ``s`` a string.

    Nodes are keyed by interned identity, so shared subtrees are stored (and
    later decoded) once per image; children are registered before parents,
    so each record only refers to lower indices and the loader decodes with
    one forward pass.
    """

    def __init__(self, interner: Interner, tables: "_Tables") -> None:
        self.intern = interner.intern
        self.tags = interner.tags
        self.layout = interner.layout
        self.tables = tables
        self.records = bytearray()
        self.count = 0
        self._index: dict[int, int] = {}

    def ref(self, node) -> int:
        node = self.intern(node)
        index = self._index.get(id(node))
        if index is not None:
            return index
        cls = type(node)
        layout = self.layout[cls]
        # Children first: a record refers to lower indices only.
        values = []
        for ch, name in layout:
            value = getattr(node, name)
            values.append(self.ref(value) if ch == "n" else value)
        out = self.records
        out.append(self.tags[cls])
        write_field = self.tables.write_field
        for (ch, _), value in zip(layout, values):
            if ch == "n":
                _write_varint(out, value)
            else:
                write_field(out, ch, value)
        index = self.count
        self.count += 1
        self._index[id(node)] = index
        return index


class _Tables:
    """The image's tables — types, labels, coercion and labeled-type nodes,
    names — built while the payload is encoded."""

    def __init__(self) -> None:
        self.types = _NodeTable(TYPE_TABLE, self)
        self.label_records = bytearray()
        self.label_count = 0
        self._label_index: dict[Label, int] = {}
        self.coercions = _NodeTable(SPACE_TABLE, self)
        self.labeled = _NodeTable(LABELED_TABLE, self)
        self.name_records = bytearray()
        self.name_count = 0
        self._name_index: dict[str, int] = {}

    def name_ref(self, name: str) -> int:
        """Index of a string in the shared name table (code/param/local names
        repeat heavily across a program's code objects)."""
        index = self._name_index.get(name)
        if index is None:
            index = self.name_count
            self.name_count += 1
            self._name_index[name] = index
            _write_str(self.name_records, name)
        return index

    def label_ref(self, lbl: Label) -> int:
        index = self._label_index.get(lbl)
        if index is not None:
            return index
        index = self.label_count
        self.label_count += 1
        self._label_index[lbl] = index
        _write_str(self.label_records, lbl.name)
        self.label_records.append(1 if lbl.positive else 0)
        return index

    def write_field(self, out: bytearray, ch: str, value) -> None:
        """Write one non-node field of signature character ``ch``."""
        if ch == "t":
            _write_varint(out, self.types.ref(value))
        elif ch == "l":
            _write_varint(out, self.label_ref(value))
        elif ch == "s":
            _write_str(out, value)
        elif value is None:  # "T" or "L"
            _write_signed(out, -1)
        else:
            _write_signed(out, self.types.ref(value) if ch == "T" else self.label_ref(value))


def _write_mediator(out: bytearray, tables: _Tables, semantics: str, entry: object) -> None:
    if semantics == "coercion":
        if not isinstance(entry, SpaceCoercion):
            raise ImageError(f"coercion pool holds a non-coercion entry: {entry!r}")
        _write_varint(out, tables.coercions.ref(entry))
    elif semantics == "threesome":
        if not isinstance(entry, Threesome):
            raise ImageError(f"threesome pool holds a non-threesome entry: {entry!r}")
        _write_varint(out, tables.types.ref(entry.source))
        _write_varint(out, tables.labeled.ref(entry.mid))
        _write_varint(out, tables.types.ref(entry.target))
    elif semantics == "transient":
        if not isinstance(entry, TransientCheck):
            raise ImageError(f"transient pool holds a non-check entry: {entry!r}")
        _write_varint(out, len(entry.checks))
        for ground, label in entry.checks:
            _write_varint(out, tables.types.ref(ground))
            _write_varint(out, tables.label_ref(label))
        tables.write_field(out, "L", entry.fail)
    elif semantics == "erasure":
        if not isinstance(entry, ErasedMediator):
            raise ImageError(f"erasure pool holds a non-erased entry: {entry!r}")
        # The token carries no data; the entry count alone reconstructs it.
    else:
        raise ImageError(f"cannot serialize mediator pool for semantics {semantics!r}")


def _write_const(out: bytearray, tables: _Tables, entry: object) -> None:
    if isinstance(entry, MConst):
        out.append(_CONST_MCONST)
        value = entry.value
        # bool before int: bool is an int subtype.
        if isinstance(value, bool):
            out.append(_VAL_BOOL)
            out.append(1 if value else 0)
        elif isinstance(value, int):
            out.append(_VAL_INT)
            _write_signed(out, value)
        elif isinstance(value, str):
            out.append(_VAL_STR)
            _write_str(out, value)
        elif value is None:
            out.append(_VAL_NONE)
        else:
            raise ImageError(f"cannot serialize constant value: {value!r}")
        _write_varint(out, tables.types.ref(entry.type))
    elif isinstance(entry, Type):
        out.append(_CONST_TYPE)
        _write_varint(out, tables.types.ref(entry))
    else:
        raise ImageError(f"cannot serialize constant-pool entry: {entry!r}")


def _write_header(out: bytearray, tables: _Tables, obj: CodeObject | RCode) -> None:
    """The fields a code object has in either IR."""
    _write_varint(out, tables.name_ref(obj.name))
    _write_varint(out, obj.n_free)
    if obj.param is None:
        out.append(0)
    else:
        out.append(1)
        _write_varint(out, tables.name_ref(obj.param))
    _write_varint(out, len(obj.local_names))
    for name in obj.local_names:
        _write_varint(out, tables.name_ref(name))
    _write_varint(out, obj.opt_level)


def _write_code(out: bytearray, tables: _Tables, obj: CodeObject) -> None:
    _write_header(out, tables, obj)
    _write_varint(out, obj.n_locals)
    _write_varint(out, len(obj.instructions))
    for opcode, operand in obj.instructions:
        _write_varint(out, opcode)
        _write_varint(out, operand)


def _write_rcode(out: bytearray, tables: _Tables, robj: RCode) -> None:
    _write_header(out, tables, robj)
    _write_varint(out, robj.n_regs)
    _write_varint(out, len(robj.const_regs))
    for index in robj.const_regs:
        _write_varint(out, index)
    _write_varint(out, len(robj.words))
    for word in robj.words:
        _write_varint(out, word)


def serialize_image(
    code: CodeObject | RCode,
    source_hash: str = "",
    static_type: Type | None = None,
    ir: str = "stack",
) -> bytes:
    """Encode a compiled program as ``.gradb`` image bytes.

    ``source_hash`` and ``static_type`` are provenance: the content hash of
    the source the program was compiled from (see :func:`source_fingerprint`)
    and the program's static type, so a loaded image can report
    ``value : type`` without re-elaborating anything.

    ``ir`` names the program's IR: ``code`` is a stack
    :class:`~repro.compiler.bytecode.CodeObject` for ``"stack"`` and the
    :class:`~repro.compiler.regalloc.RCode` that
    :func:`~repro.compiler.rvm.compile_register_program` returns for
    ``"register"``.  The writer neither converts nor validates: what it
    writes is checked when it is loaded.
    """
    if ir not in IMAGE_IRS:
        raise ImageError(f"unknown image IR: {ir!r} (expected one of {tuple(IMAGE_IRS)})")
    code_class, fingerprint = IMAGE_IRS[ir]
    if not isinstance(code, code_class):
        raise ImageError(f"a {ir} image holds {code_class.__name__} code, not {code!r}")
    pool = code.pool
    tables = _Tables()
    payload = bytearray()

    static_ref = tables.types.ref(static_type) if static_type is not None else -1

    _write_varint(payload, len(pool.consts))
    for entry in pool.consts:
        _write_const(payload, tables, entry)
    _write_varint(payload, len(pool.coercions))
    for entry in pool.coercions:
        _write_mediator(payload, tables, pool.semantics, entry)
    _write_varint(payload, len(pool.labels))
    for lbl in pool.labels:
        _write_varint(payload, tables.label_ref(lbl))
    _write_varint(payload, len(pool.prims))
    for _, _, _, name in pool.prims:
        _write_str(payload, name)
    children, write = (pool.codes, _write_code) if ir == "stack" else (pool.rcodes, _write_rcode)
    _write_varint(payload, len(children))
    for child in children:
        write(payload, tables, child)
    write(payload, tables, code)

    out = bytearray()
    out.extend(GRADB_MAGIC)
    _write_varint(out, FORMAT_VERSION)
    _write_str(out, ir)
    out.extend(fingerprint())
    _write_str(out, pool.semantics)
    _write_varint(out, code.opt_level)
    _write_str(out, source_hash)
    _write_signed(out, static_ref)
    _write_varint(out, tables.types.count)
    out.extend(tables.types.records)
    _write_varint(out, tables.label_count)
    out.extend(tables.label_records)
    for table in (tables.coercions, tables.labeled):
        _write_varint(out, table.count)
        out.extend(table.records)
    _write_varint(out, tables.name_count)
    out.extend(tables.name_records)
    out.extend(payload)
    out.extend(zlib.crc32(bytes(out)).to_bytes(4, "big"))
    return bytes(out)


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------


def _read_labels(reader: _Reader) -> list[Label]:
    count = reader.varint()
    table: list[Label] = []
    for _ in range(count):
        name = reader.string()
        positive = reader.byte()
        if positive not in (0, 1):
            raise ImageError(f"malformed label polarity in image: {positive}")
        table.append(Label(name, bool(positive)))
    return table


def _table_ref(reader: _Reader, table: list, what: str):
    index = reader.varint()
    if index >= len(table):
        raise ImageError(f"out-of-range {what} reference in image: {index}")
    return table[index]


def _read_field(reader: _Reader, ch: str, types: list[Type], labels: list[Label]):
    """Read one non-node field of signature character ``ch`` (see
    :class:`_NodeTable`)."""
    if ch == "t":
        return _table_ref(reader, types, "type")
    if ch == "l":
        return _table_ref(reader, labels, "label")
    if ch == "s":
        return reader.string()
    table, what = (types, "type") if ch == "T" else (labels, "label")
    index = reader.signed()
    if index >= len(table):
        raise ImageError(f"out-of-range {what} reference in image: {index}")
    return table[index] if index >= 0 else None


def _read_nodes(reader: _Reader, interner: Interner, what: str,
                types: list[Type], labels: list[Label]) -> list:
    """Decode one family's node table (children precede parents) straight
    into its interner: every node is the canonical node of its class and
    already-canonical fields (:meth:`~repro.core.intern.Interner.node`)."""
    classes = interner.classes
    layout = interner.layout
    table: list = []
    for _ in range(reader.varint()):
        tag = reader.byte()
        if tag >= len(classes):
            raise ImageError(f"unknown {what} tag in image: {tag}")
        cls = classes[tag]
        values = []
        for ch, _ in layout[cls]:
            if ch == "n":
                values.append(_table_ref(reader, table, what))
            else:
                values.append(_read_field(reader, ch, types, labels))
        try:
            node = interner.node(cls, values)
        except (TypeError, ValueError, ReproError) as exc:
            raise ImageError(f"malformed {what} in image: {exc}") from exc
        table.append(node)
    return table


def _read_const(reader: _Reader, types: list[Type]) -> object:
    tag = reader.byte()
    if tag == _CONST_MCONST:
        value_tag = reader.byte()
        if value_tag == _VAL_INT:
            value: object = _unzigzag(reader.varint())
        elif value_tag == _VAL_BOOL:
            raw = reader.byte()
            if raw not in (0, 1):
                raise ImageError(f"malformed boolean constant in image: {raw}")
            value = bool(raw)
        elif value_tag == _VAL_STR:
            value = reader.string()
        elif value_tag == _VAL_NONE:
            value = None
        else:
            raise ImageError(f"unknown constant-value tag in image: {value_tag}")
        return MConst(value, _table_ref(reader, types, "type"))
    if tag == _CONST_TYPE:
        return _table_ref(reader, types, "type")
    raise ImageError(f"unknown constant tag in image: {tag}")


def _read_names(reader: _Reader) -> list[str]:
    return [reader.string() for _ in range(reader.varint())]


def _read_header(reader: _Reader, names: list[str]) -> tuple:
    """``(name, n_free, param, local_names, opt_level)`` of a code object."""
    name = _table_ref(reader, names, "name")
    n_free = reader.varint()
    flag = reader.byte()
    if flag == 1:
        param: str | None = _table_ref(reader, names, "name")
    elif flag == 0:
        param = None
    else:
        raise ImageError(f"malformed parameter flag in image: {flag}")
    local_names = tuple(_table_ref(reader, names, "name") for _ in range(reader.varint()))
    return name, n_free, param, local_names, reader.varint()


def _read_code(reader: _Reader, pool: ConstantPool, names: list[str]) -> CodeObject:
    name, n_free, param, local_names, opt_level = _read_header(reader, names)
    n_locals = reader.varint()
    instructions = reader.pairs(reader.varint())
    obj = CodeObject(name, instructions, pool, n_free, n_locals, param, local_names)
    obj.opt_level = opt_level
    if opt_level >= 2:
        # Re-allocate the per-site inline-cache cells exactly as the
        # optimizer does; the cells refill against re-interned mediators.
        obj.caches = [None] * len(instructions)
    return obj


def _read_rcode(reader: _Reader, pool: ConstantPool, names: list[str]) -> RCode:
    name, n_free, param, local_names, opt_level = _read_header(reader, names)
    n_regs = reader.varint()
    const_regs = tuple(reader.varints(reader.varint()))
    for index in const_regs:
        if index >= len(pool.consts):
            raise ImageError(f"out-of-range pinned constant in image: {index}")
    try:
        words = array("I", reader.varints(reader.varint()))
    except (OverflowError, ValueError) as exc:
        raise ImageError(f"malformed register section in image: {exc}") from exc
    # Below its pinned constants a frame holds the captured values, the
    # argument, and registers the code writes: each one a word of it.  The
    # bound keeps a forged size from allocating a huge frame.
    if n_regs - len(const_regs) > n_free + 1 + len(words):
        raise ImageError(f"register file of {name!r} in image is larger than its code")
    return RCode(name, words, pool, n_free, n_regs, const_regs, param, local_names, opt_level)


def deserialize_image(data: bytes) -> LoadedImage:
    """Decode and validate ``.gradb`` bytes: a runnable program plus its
    provenance.

    Raises :class:`ImageError` on anything that is not a well-formed image
    of this library's format version and instruction set: wrong magic, a
    format-version mismatch, an opcode-set fingerprint mismatch, truncation,
    checksum failure, malformed section contents, or code that fails
    validation (see the module docstring).
    """
    if len(data) < len(GRADB_MAGIC) + 1:
        raise ImageError("truncated image (shorter than the magic)")
    if data[: len(GRADB_MAGIC)] != GRADB_MAGIC:
        raise ImageError("not a .gradb image (bad magic)")

    reader = _Reader(data)
    reader.take(len(GRADB_MAGIC))
    version = reader.varint()
    if version != FORMAT_VERSION:
        raise ImageError(
            f"format version mismatch: image has v{version}, "
            f"this library reads v{FORMAT_VERSION}"
        )
    if len(data) < 4:
        raise ImageError("truncated image")
    stored_crc = int.from_bytes(data[-4:], "big")
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ImageError("corrupt image (checksum mismatch)")

    ir = reader.string()
    if ir not in IMAGE_IRS:
        raise ImageError(f"unknown image IR: {ir!r}")
    _, fingerprint = IMAGE_IRS[ir]
    if reader.take(8) != fingerprint():
        raise ImageError(
            f"opcode-set mismatch: the image's {ir} code was compiled against a "
            "different instruction set than this library executes"
        )
    semantics = reader.string()
    if semantics not in SEMANTICS_NAMES:
        raise ImageError(
            f"enforcement-semantics mismatch: image carries semantics id "
            f"{semantics!r}, this library reads {SEMANTICS_NAMES}"
        )
    opt_level = reader.varint()
    source_hash = reader.string()
    static_ref = reader.signed()

    types = _read_nodes(reader, TYPE_TABLE, "type", [], [])
    labels = _read_labels(reader)
    if static_ref >= len(types):
        raise ImageError(f"out-of-range static-type reference in image: {static_ref}")
    static_type = types[static_ref] if static_ref >= 0 else None
    coercion_nodes = _read_nodes(reader, SPACE_TABLE, "coercion", types, labels)
    labeled_nodes = _read_nodes(reader, LABELED_TABLE, "labeled type", types, labels)
    names = _read_names(reader)

    # Rebuild the pool.  Constants are appended directly (the VM only ever
    # indexes them); mediators go through add_canonical_mediator so the
    # identity-keyed dedup index is populated exactly as at compile time.
    pool = ConstantPool(semantics=semantics)
    consts = pool.consts
    for _ in range(reader.varint()):
        consts.append(_read_const(reader, types))
    for index in range(reader.varint()):
        if semantics == "coercion":
            entry: object = _table_ref(reader, coercion_nodes, "coercion")
        elif semantics == "threesome":
            source = _table_ref(reader, types, "type")
            mid = _table_ref(reader, labeled_nodes, "labeled type")
            target = _table_ref(reader, types, "type")
            entry = threesome_node(source, mid, target)
        elif semantics == "transient":
            checks = []
            for _ in range(reader.varint()):
                ground = _table_ref(reader, types, "type")
                label = _table_ref(reader, labels, "label")
                checks.append((ground, label))
            fail = _read_field(reader, "L", types, labels)
            entry = intern_transient(TransientCheck(tuple(checks), fail))
        else:  # erasure: the entry is the no-op token, no payload bytes
            entry = ERASED
        if pool.add_canonical_mediator(entry) != index:
            raise ImageError("duplicate mediator-pool entry in image")
    for index in range(reader.varint()):
        if pool.add_label(_table_ref(reader, labels, "label")) != index:
            raise ImageError("duplicate label-pool entry in image")
    for index in range(reader.varint()):
        name = reader.string()
        try:
            prim_index = pool.add_prim(name)
        except ReproError as exc:
            raise ImageError(f"image references an unknown primitive: {name!r}") from exc
        if prim_index != index:
            raise ImageError("duplicate prim-pool entry in image")
    read = _read_code if ir == "stack" else _read_rcode
    children = [read(reader, pool, names) for _ in range(reader.varint())]
    entry_code = read(reader, pool, names)
    reader.take(4)  # the checksum, already verified
    if not reader.at_end():
        raise ImageError("trailing bytes after image payload")

    if ir == "stack":
        pool.codes = children
        _validate_image(entry_code, opt_level)
    else:
        pool.rcodes = children
        for robj in (entry_code, *children):
            _validate_registers(robj, opt_level, robj is entry_code)
    return LoadedImage(
        entry_code, ImageInfo(version, source_hash, opt_level, semantics, static_type, ir)
    )


def _check_level(obj: CodeObject | RCode, opt_level: int) -> None:
    """Every code object carries the header's ``-O`` level: the engines read
    a frame's inline-cache cells by the level of the code it entered."""
    if obj.opt_level != opt_level:
        raise ImageError(
            f"code object {obj.name!r} is at -O{obj.opt_level} in an -O{opt_level} image"
        )


def _meet(joins: dict, target: int, pc: int, assigned: set, name: str) -> None:
    """Record the slots written on a branch from ``pc`` to ``target``.  The
    compiler branches forward only, so one pass in stream order sees every
    way into an instruction before the instruction itself."""
    if target <= pc:
        raise ImageError(f"backward branch in image: {name!r} pc {pc} -> {target}")
    seen = joins.get(target)
    if seen is None:
        joins[target] = set(assigned)
    else:
        seen &= assigned


#: The base opcode and signature of each half of a register instruction, in
#: execution order (one half for a base opcode, two for a fused one).
_R_HALVES = {op: [(op, R_SIGS[op])] for op in R_OPCODE_NAMES if op not in R_FUSED}
for _fused, _pair in R_FUSED.items():
    _R_HALVES[_fused] = [(half, R_SIGS[half]) for half in _pair]

#: Register opcodes after which control never reaches the next word.
_R_ENDS = (R_RETURN, R_TAILCALL, R_JUMP, R_BLAME)

#: The operator arity each primitive opcode applies (``PRIMN``: its count).
_R_ARITY = {R_PRIM1: 1, R_BR_PRIM1: 1, R_PRIM2: 2, R_BR_PRIM2: 2}


def _validate_registers(robj: RCode, opt_level: int, entry: bool) -> None:
    """Reject register code that could fail mid-run for a reason other than
    the program's own (the register twin of :func:`_validate_image`).

    A frame starts with its pinned constants and, unless it is the entry,
    its captured values and argument; the walk in stream order tracks the
    registers written on every path into each instruction, so no path may
    read a register before writing it."""
    _check_level(robj, opt_level)
    pool = robj.pool
    words = robj.words
    n = len(words)
    n_regs = robj.n_regs
    name = robj.name
    # A call writes the captured values and the argument into r0..r(n_free),
    # below the pinned constants.
    unpinned = n_regs - len(robj.const_regs)
    if unpinned < robj.n_free + 1:
        raise ImageError(
            f"register file of {name!r} too small: {n_regs} registers for "
            f"{robj.n_free} captured values, the argument and "
            f"{len(robj.const_regs)} pinned constants"
        )
    for index in robj.const_regs:
        if not isinstance(pool.consts[index], MConst):
            raise ImageError(f"pinned constant {index} in image is not a value")
    limits = {
        "c": len(pool.coercions),
        "p": len(pool.prims),
        "k": len(pool.consts),
        "L": len(pool.labels),
        "C": len(pool.rcodes),
        "t": n,
    }
    everything = set(range(n_regs))
    # Written registers on the way into the next instruction; None where no
    # path falls through to it.
    state: set | None = set(range(unpinned, n_regs))
    if not entry:
        state.update(range(robj.n_free + 1))
    joins: dict[int, set] = {}
    pc = 0
    while pc < n:
        join = joins.pop(pc, None)
        if join is not None:
            state = join if state is None else state & join
        # Code no path reaches never runs: every read there passes.
        assigned = everything if state is None else state
        op = words[pc]
        halves = _R_HALVES.get(op)
        if halves is None:
            raise ImageError(f"unknown register opcode in image: {op}")
        if len(halves) == 2 and robj.opt_level < 2:
            raise ImageError(
                f"fused register instruction {R_OPCODE_NAMES[op]} in -O{robj.opt_level} "
                f"code of {name!r}"
            )
        # The fixed part first: it holds the count word of any source list.
        if pc + R_WIDTHS[op] > n or pc + instruction_width(op, words, pc) > n:
            raise ImageError(
                f"truncated register instruction in image: {R_OPCODE_NAMES[op]} at {pc}"
            )
        i = pc + 1
        for half, sig in halves:
            # A half reads its sources before it writes its destination.
            written = []
            prim = count = None
            for ch in sig:
                w = words[i]
                if ch in "dsn":
                    regs = (w,)
                    if ch == "n":
                        count, regs = w, words[i + 1 : i + 1 + w]
                        i += w
                    for reg in regs:
                        if reg >= n_regs:
                            raise ImageError(
                                f"out-of-range register in image: {R_OPCODE_NAMES[op]} r{reg}"
                            )
                        if ch == "d":
                            written.append(reg)
                        elif reg not in assigned:
                            raise ImageError(
                                f"register r{reg} of {name!r} in image may be read "
                                f"before it is written (pc {pc})"
                            )
                elif w >= limits[ch]:
                    raise ImageError(f"out-of-range operand in image: {R_OPCODE_NAMES[op]} {w}")
                elif ch == "t":
                    _meet(joins, w, pc, assigned, name)
                elif ch == "p":
                    prim = w
                elif ch == "C" and words[i + 1] != pool.rcodes[w].n_free:
                    # A closure captures exactly its code's free variables
                    # (the count word follows the code index).
                    raise ImageError(
                        f"closure of {pool.rcodes[w].name!r} in image captures "
                        f"{words[i + 1]} values for {pool.rcodes[w].n_free} free variables"
                    )
                i += 1
            if prim is not None:
                arity = count if half == R_PRIMN else _R_ARITY[half]
                if pool.prims[prim][1] != arity:
                    raise ImageError(
                        f"operator {pool.prims[prim][3]!r} in image applied to "
                        f"{arity} operands: {R_OPCODE_NAMES[op]} at {name!r} pc {pc}"
                    )
            assigned.update(written)
        if halves[-1][0] in _R_ENDS:
            state = None
        pc = i
    # Control must never run off the end of the stream or land mid-instruction.
    if state is not None:
        raise ImageError(f"register stream of {name!r} in image falls off its end")
    for target in joins:
        raise ImageError(f"branch target in image is not an instruction of {name!r}: {target}")


#: ``(pops, pushes)`` of every stack opcode whose effect is fixed;
#: ``MAKE_CLOSURE`` pops its child's ``n_free`` and ``PRIM`` its arity, and
#: each pushes one value.
_STACK_EFFECTS = {
    PUSH_CONST: (0, 1),
    LOAD: (0, 1),
    STORE: (1, 0),
    MAKE_FIX: (1, 1),
    CALL: (2, 1),
    TAILCALL: (2, 0),
    RETURN: (1, 0),
    COERCE: (1, 1),
    COMPOSE: (0, 0),
    BLAME: (0, 0),
    JUMP: (0, 0),
    JUMP_IF_FALSE: (1, 0),
    PAIR: (2, 1),
    FST: (1, 1),
    SND: (1, 1),
}

#: Opcodes after which control never reaches the next instruction.
_PATH_ENDS = (RETURN, TAILCALL, BLAME, JUMP)


def _validate_image(code: CodeObject, opt_level: int) -> None:
    """Reject stack code that indexes outside its pools, pushes a bare type
    as a value, or breaks stack discipline or definite assignment.

    The VM dispatches on unchecked small integers, so a malformed (but
    checksum-valid) image must be caught here rather than as an ``IndexError``
    mid-run.  Operand interpretation follows the disassembler's decoding.

    Each code object is walked in stream order, from operand-stack depth 0
    with its captured values and argument stored (none for the entry): the
    depth may never go negative, every way into an instruction must agree
    on the depth, a local may only be loaded once every path has stored it,
    and control must end in ``RETURN``, ``TAILCALL``, ``JUMP`` or ``BLAME``.
    """
    pool = code.pool
    limits = {
        PUSH_CONST: len(pool.consts),
        MAKE_FIX: len(pool.consts),
        COERCE: len(pool.coercions),
        COMPOSE: len(pool.coercions),
        BLAME: len(pool.labels),
        PRIM: len(pool.prims),
        MAKE_CLOSURE: len(pool.codes),
    }
    for obj in all_code_objects(code):
        _check_level(obj, opt_level)
        insns = obj.instructions
        n = len(insns)
        name = obj.name
        # A frame holds the captured values, the argument and the slots the
        # code stores: the bound keeps a forged count from a huge frame.
        if obj.n_locals > obj.n_free + 1 + n:
            raise ImageError(f"code object {name!r} in image has more locals than code")
        limits[LOAD] = limits[STORE] = obj.n_locals
        limits[JUMP] = limits[JUMP_IF_FALSE] = n
        # (depth, stored locals) on the way into the next instruction, or
        # None where no path falls through to it; ``joins`` and ``depths``
        # hold the same for the branch targets ahead.
        state: tuple[int, set] | None = (0, set() if obj is code else set(range(obj.n_free + 1)))
        joins: dict[int, set] = {}
        depths: dict[int, int] = {}
        for pc, (op, arg) in enumerate(insns):
            if op not in OPCODE_NAMES:
                raise ImageError(f"unknown opcode in image: {op}")
            limit = limits.get(op)
            if limit is not None and arg >= limit:
                raise ImageError(f"out-of-range operand in image: {OPCODE_NAMES[op]} {arg}")
            if op == PUSH_CONST and not isinstance(pool.consts[arg], MConst):
                raise ImageError(f"PUSH_CONST operand {arg} in image is not a value")
            if pc in joins:
                stored = joins.pop(pc)
                if state is None:
                    state = (depths[pc], stored)
                elif state[0] != depths[pc]:
                    raise ImageError(f"inconsistent operand-stack depth in image: {name!r} pc {pc}")
                else:
                    state = (state[0], state[1] & stored)
            if state is None:
                continue  # no path reaches it: it never runs
            depth, stored = state
            if op == MAKE_CLOSURE:
                pops, pushes = pool.codes[arg].n_free, 1
            elif op == PRIM:
                pops, pushes = pool.prims[arg][1], 1
            else:
                pops, pushes = _STACK_EFFECTS[op]
            if depth < pops:
                raise ImageError(
                    f"operand-stack underflow in image: {OPCODE_NAMES[op]} at {name!r} pc {pc}"
                )
            if op == LOAD and arg not in stored:
                raise ImageError(
                    f"local {arg} of {name!r} in image may be loaded before it is stored "
                    f"(pc {pc})"
                )
            if op == STORE:
                stored.add(arg)
            depth += pushes - pops
            if op == JUMP or op == JUMP_IF_FALSE:
                if depths.setdefault(arg, depth) != depth:
                    raise ImageError(
                        f"inconsistent operand-stack depth in image: {name!r} pc {arg}"
                    )
                _meet(joins, arg, pc, stored, name)
            state = None if op in _PATH_ENDS else (depth, stored)
        if state is not None:
            raise ImageError(f"code object {name!r} in image runs off its end")


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def save_image(
    code: CodeObject | RCode,
    path: str | os.PathLike,
    source_hash: str = "",
    static_type: Type | None = None,
    ir: str = "stack",
) -> Path:
    """Serialize a compiled program (see :func:`serialize_image`) to
    ``path``, atomically.

    The bytes are written to a temporary sibling and moved into place with
    :func:`os.replace`, so concurrent readers (and the compile cache, which
    is built on this function) never observe a half-written image.

    Fault hook ``torn_write`` (:mod:`repro.core.faults`): when it fires, the
    write is deliberately torn — a truncated prefix lands at ``path``
    *without* the atomic rename — simulating a crash mid-``os.replace`` on a
    filesystem that does not order the data and rename.  The cache's
    recovery path must treat the result as corrupt and recompile.
    """
    from ..core.faults import current_plan

    path = Path(path)
    data = serialize_image(code, source_hash, static_type, ir)
    path.parent.mkdir(parents=True, exist_ok=True)
    plan = current_plan()
    if plan is not None and plan.fires("torn_write"):
        # Half the image tears mid-payload; every length still fails the
        # trailing-CRC check (or the magic/header parse) on load.
        path.write_bytes(data[: len(data) // 2])
        return path
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with io.FileIO(fd, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_image(path: str | os.PathLike) -> LoadedImage:
    """Read, decode and validate a ``.gradb`` image from disk (see
    :func:`deserialize_image`)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ImageError(f"cannot read image {path}: {exc}") from exc
    return deserialize_image(data)
