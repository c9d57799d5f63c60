"""Serialized bytecode images — the ``.gradb`` format.

A compiled program (:class:`~repro.compiler.bytecode.CodeObject` plus its
shared :class:`~repro.compiler.bytecode.ConstantPool`) round-trips through a
versioned binary image::

    ┌──────────────────────────────────────────────────────────────────┐
    │ magic  b"GRADB\\0"                                                │
    │ format version (varint)      — FORMAT_VERSION, checked on load   │
    │ opcode fingerprint (8 bytes) — bytecode.opcode_fingerprint()     │
    │ provenance: semantics, opt level, source hash, static type       │
    │ type table     — deduplicated, children before parents           │
    │ label table    — (name, polarity) pairs                          │
    │ const pool     — machine constants and bare types                │
    │ mediator pool  — canonical coercions *or* threesomes             │
    │ prim pool      — operator names (meanings re-resolved on load)   │
    │ code objects   — children first, entry last: (opcode, operand)   │
    │                  pairs, the stream both engines read             │
    │ crc32 of everything above (4 bytes)                              │
    └──────────────────────────────────────────────────────────────────┘

Integers are unsigned LEB128 varints (zigzag where negative values occur);
strings are length-prefixed UTF-8.  The format stores *structure*, never
Python objects: no pickle, no code, nothing executable — a ``.gradb`` file
can only describe instructions the VM already has (the opcode fingerprint
rejects images from a different instruction set).

**Load-time re-interning** is the point of the exercise.  Every type, label,
coercion, labeled type, and threesome decoded from an image goes back
through the interners (:func:`~repro.core.intern.intern_type`,
:func:`~repro.lambda_s.coercions.intern_space`,
:func:`~repro.threesomes.runtime.intern_threesome`), so pool entries of a
deserialized image are the *same canonical nodes* a fresh compilation would
produce.  Everything downstream that is keyed on mediator identity — the
memoised ``#``/``∘`` composition caches, the VM's pool-parallel action
tables, and the per-site inline mediator caches — therefore works
identically on a loaded image, which ``tests/test_serialize.py`` asserts by
comparing outcomes, blame labels, step counts, and space profiles against
in-memory compilation (and byte-identical disassembly on top).

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
from ..core.intern import intern_type
from ..core.labels import Label
from ..core.types import BaseType, DynType, FunType, ProdType, Type, UnknownType
from ..lambda_s.coercions import (
    FailS,
    FunCo,
    IdBase,
    IdDyn,
    Injection,
    ProdCo,
    Projection,
    SpaceCoercion,
    intern_space,
)
from ..machine.values import MConst
from ..threesomes.labeled_types import (
    LArrow,
    LBase,
    LDyn,
    LFail,
    LProd,
    LabeledType,
)
from ..semantics import SEMANTICS_NAMES
from ..semantics.erasure import ERASED, ErasedMediator
from ..semantics.transient import TransientCheck, intern_transient
from ..threesomes.runtime import Threesome, intern_labeled, intern_threesome
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
    R_FUSED,
    R_JUMP,
    R_RETURN,
    R_SIGS,
    R_TAILCALL,
    RCode,
    compile_registers,
    register_fingerprint,
)

#: The on-disk format version.  Bump on any incompatible layout change; the
#: loader rejects mismatches before reading anything version-dependent.
#: v2 added the IR marker and optional register-code sections (PR 6); v1
#: images (stack-only, no IR marker) are rejected with a version mismatch.
FORMAT_VERSION = 2

#: The IR kinds an image can carry.  ``"register"`` images hold the stack
#: sections *plus* a packed register stream per code object, so one image
#: serves both engines.
IMAGE_IRS = ("stack", "register")

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
    #: Which IR the image carries: ``"stack"`` or ``"register"`` (the latter
    #: includes the stack sections too).
    ir: str = "stack"


@dataclass
class LoadedImage:
    """A deserialized program: the entry code object plus its provenance.

    ``rcode`` is the entry register code when the image carries the register
    IR (``info.ir == "register"``); the pool's ``rcodes`` list is wired up
    alongside it, so the entry is directly runnable on the register VM.
    """

    code: CodeObject
    info: ImageInfo
    rcode: RCode | None = None


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

    def pairs(self, count: int) -> list[tuple[int, int]]:
        """Decode ``count`` varint pairs — the instruction-stream hot loop.

        Nearly every opcode and most operands fit one varint byte, so the
        single-byte case is inlined and the generic continuation loop only
        runs for large pool indices and jump targets.
        """
        data = self._data
        pos = self._pos
        limit = self._len
        out: list[tuple[int, int]] = []
        append = out.append
        for _ in range(count):
            pair = []
            for _half in (0, 1):
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
                pair.append(value)
            append((pair[0], pair[1]))
        self._pos = pos
        return out

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

_TY_DYN, _TY_UNKNOWN, _TY_BASE, _TY_FUN, _TY_PROD = range(5)
_CO_IDDYN, _CO_IDBASE, _CO_PROJ, _CO_INJ, _CO_FAIL, _CO_FUN, _CO_PROD = range(7)
_LT_DYN, _LT_BASE, _LT_ARROW, _LT_PROD, _LT_FAIL = range(5)
_CONST_MCONST, _CONST_TYPE = range(2)
_VAL_INT, _VAL_BOOL, _VAL_STR, _VAL_NONE = range(4)


class _Tables:
    """Deduplicating type/label tables built while the payload is encoded.

    Children are registered before parents, so each table record only refers
    to lower indices and the loader can decode with one forward pass.
    """

    def __init__(self) -> None:
        self.type_records = bytearray()
        self.type_count = 0
        self._type_index: dict[int, int] = {}
        self.label_records = bytearray()
        self.label_count = 0
        self._label_index: dict[Label, int] = {}
        self.co_records = bytearray()
        self.co_count = 0
        self._co_index: dict[int, int] = {}
        self.lt_records = bytearray()
        self.lt_count = 0
        self._lt_index: dict[int, int] = {}
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

    def type_ref(self, ty: Type) -> int:
        ty = intern_type(ty)
        index = self._type_index.get(id(ty))
        if index is not None:
            return index
        if isinstance(ty, DynType):
            record = bytes([_TY_DYN])
        elif isinstance(ty, UnknownType):
            record = bytes([_TY_UNKNOWN])
        elif isinstance(ty, BaseType):
            out = bytearray([_TY_BASE])
            _write_str(out, ty.name)
            record = bytes(out)
        elif isinstance(ty, FunType):
            dom = self.type_ref(ty.dom)
            cod = self.type_ref(ty.cod)
            out = bytearray([_TY_FUN])
            _write_varint(out, dom)
            _write_varint(out, cod)
            record = bytes(out)
        elif isinstance(ty, ProdType):
            left = self.type_ref(ty.left)
            right = self.type_ref(ty.right)
            out = bytearray([_TY_PROD])
            _write_varint(out, left)
            _write_varint(out, right)
            record = bytes(out)
        else:
            raise ImageError(f"cannot serialize unknown type node: {ty!r}")
        index = self.type_count
        self.type_count += 1
        self._type_index[id(ty)] = index
        self.type_records.extend(record)
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


def _tables_coercion_ref(tables: _Tables, s: SpaceCoercion) -> int:
    """Index of a coercion in the image's deduplicated node table.

    Nodes are keyed by interned identity, so shared subtrees — e.g. the
    repeated components of a deep product coercion — are stored (and later
    decoded) exactly once per image.
    """
    s = intern_space(s)
    index = tables._co_index.get(id(s))
    if index is not None:
        return index
    out = bytearray()
    if isinstance(s, IdDyn):
        out.append(_CO_IDDYN)
    elif isinstance(s, IdBase):
        out.append(_CO_IDBASE)
        _write_varint(out, tables.type_ref(s.base))
    elif isinstance(s, Projection):
        body = _tables_coercion_ref(tables, s.body)
        out.append(_CO_PROJ)
        _write_varint(out, tables.type_ref(s.ground))
        _write_varint(out, tables.label_ref(s.label))
        _write_varint(out, body)
    elif isinstance(s, Injection):
        body = _tables_coercion_ref(tables, s.body)
        out.append(_CO_INJ)
        _write_varint(out, body)
        _write_varint(out, tables.type_ref(s.ground))
    elif isinstance(s, FailS):
        out.append(_CO_FAIL)
        _write_varint(out, tables.type_ref(s.source_ground))
        _write_varint(out, tables.label_ref(s.label))
        _write_varint(out, tables.type_ref(s.target_ground))
        _write_signed(out, tables.type_ref(s.source) if s.source is not None else -1)
        _write_signed(out, tables.type_ref(s.target) if s.target is not None else -1)
    elif isinstance(s, FunCo):
        dom = _tables_coercion_ref(tables, s.dom)
        cod = _tables_coercion_ref(tables, s.cod)
        out.append(_CO_FUN)
        _write_varint(out, dom)
        _write_varint(out, cod)
    elif isinstance(s, ProdCo):
        left = _tables_coercion_ref(tables, s.left)
        right = _tables_coercion_ref(tables, s.right)
        out.append(_CO_PROD)
        _write_varint(out, left)
        _write_varint(out, right)
    else:
        raise ImageError(f"cannot serialize unknown canonical coercion: {s!r}")
    index = tables.co_count
    tables.co_count += 1
    tables._co_index[id(s)] = index
    tables.co_records.extend(out)
    return index


def _write_opt_label(out: bytearray, tables: _Tables, lbl: Label | None) -> None:
    _write_signed(out, tables.label_ref(lbl) if lbl is not None else -1)


def _tables_labeled_ref(tables: _Tables, p: LabeledType) -> int:
    """Index of a labeled type in the image's deduplicated node table."""
    p = intern_labeled(p)
    index = tables._lt_index.get(id(p))
    if index is not None:
        return index
    out = bytearray()
    if isinstance(p, LDyn):
        out.append(_LT_DYN)
    elif isinstance(p, LBase):
        out.append(_LT_BASE)
        _write_varint(out, tables.type_ref(p.base))
        _write_opt_label(out, tables, p.label)
    elif isinstance(p, LArrow):
        dom = _tables_labeled_ref(tables, p.dom)
        cod = _tables_labeled_ref(tables, p.cod)
        out.append(_LT_ARROW)
        _write_varint(out, dom)
        _write_varint(out, cod)
        _write_opt_label(out, tables, p.label)
    elif isinstance(p, LProd):
        left = _tables_labeled_ref(tables, p.left)
        right = _tables_labeled_ref(tables, p.right)
        out.append(_LT_PROD)
        _write_varint(out, left)
        _write_varint(out, right)
        _write_opt_label(out, tables, p.label)
    elif isinstance(p, LFail):
        out.append(_LT_FAIL)
        _write_varint(out, tables.label_ref(p.fail_label))
        _write_varint(out, tables.type_ref(p.ground))
        _write_opt_label(out, tables, p.label)
    else:
        raise ImageError(f"cannot serialize unknown labeled type: {p!r}")
    index = tables.lt_count
    tables.lt_count += 1
    tables._lt_index[id(p)] = index
    tables.lt_records.extend(out)
    return index


def _write_mediator(out: bytearray, tables: _Tables, semantics: str, entry: object) -> None:
    if semantics == "coercion":
        if not isinstance(entry, SpaceCoercion):
            raise ImageError(f"coercion pool holds a non-coercion entry: {entry!r}")
        _write_varint(out, _tables_coercion_ref(tables, entry))
    elif semantics == "threesome":
        if not isinstance(entry, Threesome):
            raise ImageError(f"threesome pool holds a non-threesome entry: {entry!r}")
        _write_varint(out, tables.type_ref(entry.source))
        _write_varint(out, _tables_labeled_ref(tables, entry.mid))
        _write_varint(out, tables.type_ref(entry.target))
    elif semantics == "transient":
        if not isinstance(entry, TransientCheck):
            raise ImageError(f"transient pool holds a non-check entry: {entry!r}")
        _write_varint(out, len(entry.checks))
        for ground, label in entry.checks:
            _write_varint(out, tables.type_ref(ground))
            _write_varint(out, tables.label_ref(label))
        _write_opt_label(out, tables, entry.fail)
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
        _write_varint(out, tables.type_ref(entry.type))
    elif isinstance(entry, Type):
        out.append(_CONST_TYPE)
        _write_varint(out, tables.type_ref(entry))
    else:
        raise ImageError(f"cannot serialize constant-pool entry: {entry!r}")


def _write_code(out: bytearray, tables: _Tables, obj: CodeObject) -> None:
    _write_varint(out, tables.name_ref(obj.name))
    _write_varint(out, obj.n_free)
    _write_varint(out, obj.n_locals)
    if obj.param is None:
        out.append(0)
    else:
        out.append(1)
        _write_varint(out, tables.name_ref(obj.param))
    _write_varint(out, len(obj.local_names))
    for name in obj.local_names:
        _write_varint(out, tables.name_ref(name))
    _write_varint(out, obj.opt_level)
    _write_varint(out, len(obj.instructions))
    for opcode, operand in obj.instructions:
        _write_varint(out, opcode)
        _write_varint(out, operand)


def _write_rcode(out: bytearray, robj: RCode) -> None:
    """One register section: register-file size, pinned constants, words."""
    _write_varint(out, robj.n_regs)
    _write_varint(out, len(robj.const_regs))
    for index in robj.const_regs:
        _write_varint(out, index)
    _write_varint(out, len(robj.words))
    for word in robj.words:
        _write_varint(out, word)


def serialize_image(
    code: CodeObject,
    source_hash: str = "",
    static_type: Type | None = None,
    ir: str = "stack",
    *,
    rcode: RCode | None = None,
) -> bytes:
    """Encode a compiled program as ``.gradb`` image bytes.

    ``source_hash`` and ``static_type`` are provenance: the content hash of
    the source the program was compiled from (see :func:`source_fingerprint`)
    and the program's static type, so a loaded image can report
    ``value : type`` without re-elaborating anything.

    ``ir="register"`` additionally appends a packed register section per
    code object (plus the register-opcode fingerprint to the header), so the
    loaded image is directly runnable on the register VM without
    re-converting.  ``rcode`` is the program's register code when the caller
    has already converted ``code`` (its children are ``code.pool.rcodes``);
    otherwise the register converter runs here.
    """
    if ir not in IMAGE_IRS:
        raise ImageError(f"unknown image IR: {ir!r} (expected one of {IMAGE_IRS})")
    pool = code.pool
    tables = _Tables()
    payload = bytearray()

    static_ref = tables.type_ref(static_type) if static_type is not None else -1

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
    _write_varint(payload, len(pool.codes))
    for child in pool.codes:
        _write_code(payload, tables, child)
    _write_code(payload, tables, code)
    if ir == "register":
        entry_rcode = rcode if rcode is not None else compile_registers(code)
        for child_rcode in pool.rcodes:
            _write_rcode(payload, child_rcode)
        _write_rcode(payload, entry_rcode)

    out = bytearray()
    out.extend(GRADB_MAGIC)
    _write_varint(out, FORMAT_VERSION)
    out.extend(opcode_fingerprint())
    _write_str(out, pool.semantics)
    _write_str(out, ir)
    if ir == "register":
        out.extend(register_fingerprint())
    _write_varint(out, code.opt_level)
    _write_str(out, source_hash)
    _write_signed(out, static_ref)
    _write_varint(out, tables.type_count)
    out.extend(tables.type_records)
    _write_varint(out, tables.label_count)
    out.extend(tables.label_records)
    _write_varint(out, tables.co_count)
    out.extend(tables.co_records)
    _write_varint(out, tables.lt_count)
    out.extend(tables.lt_records)
    _write_varint(out, tables.name_count)
    out.extend(tables.name_records)
    out.extend(payload)
    out.extend(zlib.crc32(bytes(out)).to_bytes(4, "big"))
    return bytes(out)


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------


def _read_types(reader: _Reader) -> list[Type]:
    count = reader.varint()
    table: list[Type] = []

    def ref() -> Type:
        index = reader.varint()
        if index >= len(table):
            raise ImageError(f"forward type reference in image: {index}")
        return table[index]

    for _ in range(count):
        tag = reader.byte()
        if tag == _TY_DYN:
            ty = _memo_intern(("tydyn",), DynType, intern_type)
        elif tag == _TY_UNKNOWN:
            ty = _memo_intern(("tyunk",), UnknownType, intern_type)
        elif tag == _TY_BASE:
            name = reader.string()
            ty = _memo_intern(("tybase", name), lambda: BaseType(name), intern_type)
        elif tag == _TY_FUN:
            dom, cod = ref(), ref()
            ty = _memo_intern(
                ("tyfun", id(dom), id(cod)), lambda: FunType(dom, cod), intern_type
            )
        elif tag == _TY_PROD:
            left, right = ref(), ref()
            ty = _memo_intern(
                ("typrod", id(left), id(right)), lambda: ProdType(left, right), intern_type
            )
        else:
            raise ImageError(f"unknown type tag in image: {tag}")
        table.append(ty)
    return table


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


#: Loader-side memo: identity key of a decoded node → its canonical form.
#: ``intern_space``/``intern_labeled`` hash a *fresh* node structurally
#: before finding (or creating) its canonical twin, which is O(subtree) per
#: node; decoded children are already canonical, so a key of child ``id``\ s
#: is exact and O(1).  Canonical nodes are immortal, so the ids — and this
#: memo — stay valid for the life of the process.  This is what makes a
#: warm compile-cache load cheap in a long-lived (serving or batch) process.
_DECODE_MEMO: dict[tuple, object] = {}


def _memo_intern(key: tuple, build, intern) -> object:
    node = _DECODE_MEMO.get(key)
    if node is None:
        node = intern(build())
        _DECODE_MEMO[key] = node
    return node


def _read_coercion_table(
    reader: _Reader, types: list[Type], labels: list[Label]
) -> list[SpaceCoercion]:
    """Decode the deduplicated coercion-node table (children precede parents)."""
    count = reader.varint()
    table: list[SpaceCoercion] = []
    for _ in range(count):
        tag = reader.byte()
        try:
            if tag == _CO_IDDYN:
                node = _memo_intern(("id?",), IdDyn, intern_space)
            elif tag == _CO_IDBASE:
                base = _table_ref(reader, types, "type")
                node = _memo_intern(("idb", id(base)), lambda: IdBase(base), intern_space)
            elif tag == _CO_PROJ:
                ground = _table_ref(reader, types, "type")
                lbl = _table_ref(reader, labels, "label")
                body = _table_ref(reader, table, "coercion")
                node = _memo_intern(
                    ("proj", id(ground), lbl, id(body)),
                    lambda: Projection(ground, lbl, body), intern_space,
                )
            elif tag == _CO_INJ:
                body = _table_ref(reader, table, "coercion")
                ground = _table_ref(reader, types, "type")
                node = _memo_intern(
                    ("inj", id(body), id(ground)),
                    lambda: Injection(body, ground), intern_space,
                )
            elif tag == _CO_FAIL:
                source_ground = _table_ref(reader, types, "type")
                lbl = _table_ref(reader, labels, "label")
                target_ground = _table_ref(reader, types, "type")
                source_ref = reader.signed()
                target_ref = reader.signed()
                source = types[source_ref] if source_ref >= 0 else None
                target = types[target_ref] if target_ref >= 0 else None
                node = _memo_intern(
                    ("fail", id(source_ground), lbl, id(target_ground),
                     id(source) if source is not None else None,
                     id(target) if target is not None else None),
                    lambda: FailS(source_ground, lbl, target_ground, source, target),
                    intern_space,
                )
            elif tag == _CO_FUN:
                dom = _table_ref(reader, table, "coercion")
                cod = _table_ref(reader, table, "coercion")
                node = _memo_intern(
                    ("fun", id(dom), id(cod)), lambda: FunCo(dom, cod), intern_space
                )
            elif tag == _CO_PROD:
                left = _table_ref(reader, table, "coercion")
                right = _table_ref(reader, table, "coercion")
                node = _memo_intern(
                    ("prodco", id(left), id(right)),
                    lambda: ProdCo(left, right), intern_space,
                )
            else:
                raise ImageError(f"unknown coercion tag in image: {tag}")
        except (TypeError, ValueError, IndexError, ReproError) as exc:
            if isinstance(exc, ImageError):
                raise
            raise ImageError(f"malformed coercion in image: {exc}") from exc
        table.append(node)
    return table


def _read_opt_label(reader: _Reader, labels: list[Label]) -> Label | None:
    index = reader.signed()
    if index < 0:
        return None
    if index >= len(labels):
        raise ImageError(f"out-of-range label reference in image: {index}")
    return labels[index]


def _read_labeled_table(
    reader: _Reader, types: list[Type], labels: list[Label]
) -> list[LabeledType]:
    """Decode the deduplicated labeled-type node table."""
    count = reader.varint()
    table: list[LabeledType] = []
    for _ in range(count):
        tag = reader.byte()
        try:
            if tag == _LT_DYN:
                node = _memo_intern(("ldyn",), LDyn, intern_labeled)
            elif tag == _LT_BASE:
                base = _table_ref(reader, types, "type")
                lbl = _read_opt_label(reader, labels)
                node = _memo_intern(
                    ("lbase", id(base), lbl), lambda: LBase(base, lbl), intern_labeled
                )
            elif tag == _LT_ARROW:
                dom = _table_ref(reader, table, "labeled type")
                cod = _table_ref(reader, table, "labeled type")
                lbl = _read_opt_label(reader, labels)
                node = _memo_intern(
                    ("larrow", id(dom), id(cod), lbl),
                    lambda: LArrow(dom, cod, lbl), intern_labeled,
                )
            elif tag == _LT_PROD:
                left = _table_ref(reader, table, "labeled type")
                right = _table_ref(reader, table, "labeled type")
                lbl = _read_opt_label(reader, labels)
                node = _memo_intern(
                    ("lprod", id(left), id(right), lbl),
                    lambda: LProd(left, right, lbl), intern_labeled,
                )
            elif tag == _LT_FAIL:
                fail_label = _table_ref(reader, labels, "label")
                ground = _table_ref(reader, types, "type")
                lbl = _read_opt_label(reader, labels)
                node = _memo_intern(
                    ("lfail", fail_label, id(ground), lbl),
                    lambda: LFail(fail_label, ground, lbl), intern_labeled,
                )
            else:
                raise ImageError(f"unknown labeled-type tag in image: {tag}")
        except (TypeError, ValueError, ReproError) as exc:
            if isinstance(exc, ImageError):
                raise
            raise ImageError(f"malformed labeled type in image: {exc}") from exc
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


def _read_code(reader: _Reader, pool: ConstantPool, names: list[str]) -> CodeObject:
    name = _table_ref(reader, names, "name")
    n_free = reader.varint()
    n_locals = reader.varint()
    flag = reader.byte()
    if flag == 1:
        param: str | None = _table_ref(reader, names, "name")
    elif flag == 0:
        param = None
    else:
        raise ImageError(f"malformed parameter flag in image: {flag}")
    local_names = tuple(_table_ref(reader, names, "name") for _ in range(reader.varint()))
    opt_level = reader.varint()
    instructions = reader.pairs(reader.varint())
    obj = CodeObject(name, instructions, pool, n_free, n_locals, param, local_names)
    obj.opt_level = opt_level
    if opt_level >= 2:
        # Re-allocate the per-site inline-cache cells exactly as the
        # optimizer does; the cells refill against re-interned mediators.
        obj.caches = [None] * len(instructions)
    return obj


def _read_rcode(reader: _Reader, pool: ConstantPool, obj: CodeObject) -> RCode:
    """Decode one register section; shape metadata comes from the stack
    code object it parallels (same name, frees, parameter, opt level)."""
    n_regs = reader.varint()
    const_regs = tuple(reader.varint() for _ in range(reader.varint()))
    for index in const_regs:
        if index >= len(pool.consts):
            raise ImageError(f"out-of-range pinned constant in image: {index}")
    try:
        words = array("I", (reader.varint() for _ in range(reader.varint())))
        return RCode(
            obj.name, words, pool, obj.n_free, n_regs, const_regs,
            obj.param, obj.local_names, obj.opt_level,
        )
    except (OverflowError, ValueError) as exc:
        raise ImageError(f"malformed register section in image: {exc}") from exc


#: Register opcodes after which control never reaches the next word: a
#: return, a tail call, a jump or blame, alone or as a fused pair's second
#: half.  Every stream must end in one.
_R_ENDS = (R_RETURN, R_TAILCALL, R_JUMP, R_BLAME)
_R_FINAL = frozenset(_R_ENDS) | frozenset(
    fused for fused, (_, second) in R_FUSED.items() if second in _R_ENDS
)


def _validate_registers(robj: RCode) -> None:
    """Reject register streams that are mis-shaped or index outside their
    register file or pools (the register twin of :func:`_validate_image`)."""
    from .regalloc import R_OPCODE_NAMES, R_WIDTHS, instruction_width

    pool = robj.pool
    words = robj.words
    n = len(words)
    n_regs = robj.n_regs
    # A call writes the captured values and the argument into r0..r(n_free).
    if n_regs < robj.n_free + 1:
        raise ImageError(
            f"register file of {robj.name!r} too small: {n_regs} registers "
            f"for {robj.n_free} captured values and the argument"
        )
    if len(robj.const_regs) > n_regs:
        raise ImageError(
            f"register file of {robj.name!r} too small for its "
            f"{len(robj.const_regs)} pinned constants"
        )
    for index in robj.const_regs:
        if not isinstance(pool.consts[index], MConst):
            raise ImageError(f"pinned constant {index} in image is not a value")
    kind_limits = {
        "c": len(pool.coercions),
        "p": len(pool.prims),
        "k": len(pool.consts),
        "L": len(pool.labels),
        "C": len(pool.codes),
        "t": n,
    }
    starts: set[int] = set()
    targets: list[int] = []
    op = None
    pc = 0
    while pc < n:
        starts.add(pc)
        op = words[pc]
        sig = R_SIGS.get(op)
        if sig is None:
            raise ImageError(f"unknown register opcode in image: {op}")
        # The fixed part first: it holds the count word of any source list.
        if pc + R_WIDTHS[op] > n or pc + instruction_width(op, words, pc) > n:
            raise ImageError(
                f"truncated register instruction in image: {R_OPCODE_NAMES[op]} at {pc}"
            )
        i = pc + 1
        for ch in sig:
            w = words[i]
            if ch == "d" or ch == "s":
                if w >= n_regs:
                    raise ImageError(
                        f"out-of-range register in image: {R_OPCODE_NAMES[op]} r{w}"
                    )
            elif ch == "n":
                for extra in words[i + 1 : i + 1 + w]:
                    if extra >= n_regs:
                        raise ImageError(
                            f"out-of-range register in image: "
                            f"{R_OPCODE_NAMES[op]} r{extra}"
                        )
                i += w
            else:
                if w >= kind_limits[ch]:
                    raise ImageError(
                        f"out-of-range operand in image: {R_OPCODE_NAMES[op]} {w}"
                    )
                if ch == "t":
                    targets.append(w)
                # A closure captures exactly its code's free variables (the
                # count word follows the code index).
                if ch == "C" and words[i + 1] != pool.codes[w].n_free:
                    raise ImageError(
                        f"closure of {pool.codes[w].name!r} in image captures "
                        f"{words[i + 1]} values for {pool.codes[w].n_free} free variables"
                    )
            i += 1
        pc = i
    # Control must never run off the end of the stream or land mid-instruction.
    if op not in _R_FINAL:
        raise ImageError(f"register stream of {robj.name!r} in image falls off its end")
    for target in targets:
        if target not in starts:
            raise ImageError(
                f"branch target in image is not an instruction of {robj.name!r}: {target}"
            )


def deserialize_image(data: bytes, validate: bool = True) -> LoadedImage:
    """Decode ``.gradb`` bytes into a runnable program plus its provenance.

    Raises :class:`ImageError` on anything that is not a well-formed image
    of this library's format version and instruction set: wrong magic, a
    format-version mismatch, an opcode-set fingerprint mismatch, truncation,
    checksum failure, or malformed section contents.

    ``validate=False`` skips the operand bounds check
    (:func:`_validate_image`) — the defence against *crafted* images that
    checksum correctly but index outside their pools.  The compile cache
    uses it for entries it wrote itself (same trust domain as the code
    running; accidental corruption is still caught by the checksum); keep
    it on for images from anywhere else.
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

    fingerprint = reader.take(8)
    if fingerprint != opcode_fingerprint():
        raise ImageError(
            "opcode-set mismatch: the image was compiled against a different "
            "instruction set than this library executes"
        )

    semantics = reader.string()
    if semantics not in SEMANTICS_NAMES:
        raise ImageError(
            f"enforcement-semantics mismatch: image carries semantics id "
            f"{semantics!r}, this library reads {SEMANTICS_NAMES}"
        )
    ir = reader.string()
    if ir not in IMAGE_IRS:
        raise ImageError(f"unknown image IR: {ir!r}")
    if ir == "register":
        r_fingerprint = reader.take(8)
        if r_fingerprint != register_fingerprint():
            raise ImageError(
                "register-opcode-set mismatch: the image's register streams "
                "were packed against a different register instruction set "
                "than this library executes"
            )
    opt_level = reader.varint()
    source_hash = reader.string()
    static_ref = reader.signed()

    types = _read_types(reader)
    labels = _read_labels(reader)
    if static_ref >= len(types):
        raise ImageError(f"out-of-range static-type reference in image: {static_ref}")
    static_type = types[static_ref] if static_ref >= 0 else None
    coercion_nodes = _read_coercion_table(reader, types, labels)
    labeled_nodes = _read_labeled_table(reader, types, labels)
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
            entry = _memo_intern(
                ("3some", id(source), id(mid), id(target)),
                lambda: Threesome(source, mid, target), intern_threesome,
            )
        elif semantics == "transient":
            checks = []
            for _ in range(reader.varint()):
                ground = _table_ref(reader, types, "type")
                label = _table_ref(reader, labels, "label")
                checks.append((ground, label))
            fail_ref = reader.signed()
            if fail_ref >= len(labels):
                raise ImageError(f"out-of-range label reference in image: {fail_ref}")
            fail = labels[fail_ref] if fail_ref >= 0 else None
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
    for _ in range(reader.varint()):
        pool.add_code(_read_code(reader, pool, names))
    entry_code = _read_code(reader, pool, names)
    entry_rcode = None
    if ir == "register":
        pool.rcodes = [_read_rcode(reader, pool, child) for child in pool.codes]
        entry_rcode = _read_rcode(reader, pool, entry_code)
    reader.take(4)  # the checksum, already verified
    if not reader.at_end():
        raise ImageError("trailing bytes after image payload")

    if validate:
        _validate_image(entry_code, opt_level)
        if entry_rcode is not None:
            for robj in [*pool.rcodes, entry_rcode]:
                _validate_registers(robj)
    return LoadedImage(
        entry_code,
        ImageInfo(version, source_hash, opt_level, semantics, static_type, ir),
        entry_rcode,
    )


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
_PATH_ENDS = (RETURN, TAILCALL, BLAME)


def _validate_image(code: CodeObject, opt_level: int) -> None:
    """Reject instruction streams that index outside their pools, push a
    bare type as a value, or break stack discipline.

    The VM dispatches on unchecked small integers, so a malformed (but
    checksum-valid) image must be caught here rather than as an ``IndexError``
    mid-run.  Operand interpretation follows the disassembler's decoding.
    Every code object must also carry the header's ``-O`` level: the VM
    reads each frame's inline-cache cells by the level of the code it
    entered.
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
        if obj.opt_level != opt_level:
            raise ImageError(
                f"code object {obj.name!r} is at -O{obj.opt_level} in an "
                f"-O{opt_level} image"
            )
        n = len(obj.instructions)
        for op, arg in obj.instructions:
            if op not in OPCODE_NAMES:
                raise ImageError(f"unknown opcode in image: {op}")
            if op in (LOAD, STORE):
                limit = obj.n_locals
            elif op in (JUMP, JUMP_IF_FALSE):
                limit = n
            else:
                limit = limits.get(op)
            if limit is not None and arg >= limit:
                raise ImageError(
                    f"out-of-range operand in image: {OPCODE_NAMES[op]} {arg}"
                )
            if op == PUSH_CONST and not isinstance(pool.consts[arg], MConst):
                raise ImageError(f"PUSH_CONST operand {arg} in image is not a value")
        _check_stack_depths(obj)


def _check_stack_depths(obj: CodeObject) -> None:
    """Walk every path of one code object from pc 0 at operand-stack depth
    0: the depth may never go negative, each join must be reached at one
    depth, and each path must end in ``RETURN``, ``TAILCALL`` or ``BLAME``.
    Operands are already known to be in range."""
    insns = obj.instructions
    n = len(insns)
    pool = obj.pool
    depth_at: list[int | None] = [None] * n
    work = [(0, 0)]
    while work:
        pc, depth = work.pop()
        if pc >= n:
            raise ImageError(f"code object {obj.name!r} in image runs off its end")
        seen = depth_at[pc]
        if seen is not None:
            if seen != depth:
                raise ImageError(
                    f"inconsistent operand-stack depth in image: {obj.name!r} pc {pc}"
                )
            continue
        depth_at[pc] = depth
        op, arg = insns[pc]
        if op == MAKE_CLOSURE:
            pops, pushes = pool.codes[arg].n_free, 1
        elif op == PRIM:
            pops, pushes = pool.prims[arg][1], 1
        else:
            pops, pushes = _STACK_EFFECTS[op]
        if depth < pops:
            raise ImageError(
                f"operand-stack underflow in image: {OPCODE_NAMES[op]} at "
                f"{obj.name!r} pc {pc}"
            )
        depth += pushes - pops
        if op in _PATH_ENDS:
            continue
        if op == JUMP:
            work.append((arg, depth))
            continue
        if op == JUMP_IF_FALSE:
            work.append((arg, depth))
        work.append((pc + 1, depth))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def save_image(
    code: CodeObject,
    path: str | os.PathLike,
    source_hash: str = "",
    static_type: Type | None = None,
    ir: str = "stack",
    *,
    rcode: RCode | None = None,
) -> Path:
    """Serialize a compiled program to ``path``, atomically.

    The bytes are written to a temporary sibling and moved into place with
    :func:`os.replace`, so concurrent readers (and the compile cache, which
    is built on this function) never observe a half-written image.

    Fault hook ``torn_write`` (:mod:`repro.core.faults`): when it fires, the
    write is deliberately torn — a truncated prefix lands at ``path``
    *without* the atomic rename — simulating a crash mid-``os.replace`` on a
    filesystem that does not order the data and rename.  The cache's
    recovery path must treat the result as corrupt and recompile.

    ``rcode`` is passed through to :func:`serialize_image`.
    """
    from ..core.faults import current_plan

    path = Path(path)
    data = serialize_image(code, source_hash=source_hash, static_type=static_type, ir=ir,
                           rcode=rcode)
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


def load_image(path: str | os.PathLike, validate: bool = True) -> LoadedImage:
    """Read and decode a ``.gradb`` image from disk (see :func:`deserialize_image`)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ImageError(f"cannot read image {path}: {exc}") from exc
    return deserialize_image(data, validate=validate)
