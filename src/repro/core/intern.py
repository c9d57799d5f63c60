"""Hash-consing (interning) for types and coercions.

The space-efficient machine composes, compares, and hashes the same handful
of types and coercions millions of times: every ``#`` merge on the even/odd
workload rebuilds a structurally identical canonical coercion, and every
cast rule compares types structurally.  Interning gives every structurally
equal value a single canonical representative, so

* structural equality on canonical representatives is pointer equality
  (``intern(a) is intern(b)``  iff  ``a == b``), and
* derived operations — the compatibility predicates in
  :mod:`repro.core.types` and λS composition ``#`` — can be memoised on the
  *identity* of canonical nodes, turning a structural recursion into a
  dictionary hit.

Each family of nodes has one :class:`Interner`, declared with one field
signature per class: :data:`TYPE_TABLE` here, ``COERCION_TABLE`` in
:mod:`repro.lambda_c.coercions`, ``SPACE_TABLE`` in
:mod:`repro.lambda_s.coercions` and ``LABELED_TABLE`` in
:mod:`repro.threesomes.runtime`.  The signatures drive interning and the
``.gradb`` node tables (:mod:`repro.compiler.serialize`) alike.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Hashable, Iterable

from .types import (
    BASE_TYPES,
    DYN,
    GROUND_FUN,
    GROUND_PROD,
    UNKNOWN,
    BaseType,
    DynType,
    FunType,
    ProdType,
    UnknownType,
)

#: Signature characters whose field is keyed by the ``id`` of its canonical
#: value; labels and strings are keyed by value.
_BY_ID = frozenset("ntT")


class Interner:
    """A hash-consing table for one family of immutable tree values.

    ``sigs`` maps the family's node classes, in tag order (the ``.gradb``
    node tables number them so), to their field signatures: one character
    per dataclass field, in field order —

    =====  ====================================================
    char   field
    =====  ====================================================
    ``n``  a node of this family
    ``t``  a type (``T``: a type or ``None``)
    ``l``  a blame label (``L``: a label or ``None``)
    ``s``  a string
    =====  ====================================================

    :meth:`intern` canonicalizes any node of the family; :meth:`node` finds
    (or builds) the canonical node of a class with given canonical field
    values — the image decoder's lookup, which records no alias.  A node's
    key is its class and, per field, the ``id`` of the canonical child or
    the label or string itself; canonical nodes are retained forever, so
    their ids are stable cache keys.  ``seeds`` are interned first, so
    interning maps onto those module constants.
    """

    __slots__ = ("name", "sigs", "classes", "tags", "layout", "_by_key", "_canonical_ids",
                 "_aliases", "hits", "misses")

    #: Bound on remembered aliases (see :meth:`remember_alias`).
    MAX_ALIASES = 1 << 16

    def __init__(self, name: str, sigs: dict[type, str] | None = None,
                 seeds: Iterable[object] = ()):
        self.name = name
        self.sigs = dict(sigs or {})
        self.classes = tuple(self.sigs)
        self.tags = {cls: tag for tag, cls in enumerate(self.classes)}
        #: Each class's ``(signature character, field name)`` pairs.
        self.layout = {
            cls: tuple(zip(sig, [field.name for field in fields(cls)]))
            for cls, sig in self.sigs.items()
        }
        self._by_key: dict[Hashable, object] = {}
        self._canonical_ids: set[int] = set()
        # Non-canonical nodes we have interned before, mapped to their
        # canonical representative.  The aliased node itself is retained so
        # its id cannot be reused; this is what makes re-interning the same
        # AST node (e.g. a Coerce's coercion, once per loop iteration) O(1).
        self._aliases: dict[int, tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0
        _REGISTRY[name] = self
        for node in seeds:
            self.intern(node)

    def is_canonical(self, node: object) -> bool:
        """Has ``node`` itself been issued by this table?"""
        return id(node) in self._canonical_ids

    def intern(self, node):
        """The canonical node equal to ``node``; idempotent, and O(1) when
        ``node`` is canonical or was interned before."""
        if id(node) in self._canonical_ids:
            return node
        entry = self._aliases.get(id(node))
        if entry is not None:
            self.hits += 1
            return entry[1]
        canon = self._canonicalize(node)
        self.remember_alias(node, canon)
        return canon

    def _canonicalize(self, node):
        cls = type(node)
        layout = self.layout.get(cls)
        if layout is None:
            raise TypeError(f"cannot intern {node!r}: not a node of the {self.name} table")
        values = []
        same = True
        for ch, name in layout:
            value = getattr(node, name)
            if ch == "n":
                canon = self.intern(value)
            elif ch == "t" or (ch == "T" and value is not None):
                canon = intern_type(value)
            else:
                canon = value
            same = same and canon is value
            values.append(canon)
        return self.node(cls, values, node if same else None)

    def node(self, cls: type, values: list, fresh: object = None):
        """The canonical ``cls`` node whose fields are the canonical
        ``values``, built on first sight — or, when given, ``fresh`` (a node
        whose fields are exactly ``values``) becomes it."""
        key = [cls]
        for (ch, _), value in zip(self.layout[cls], values):
            key.append(id(value) if ch in _BY_ID else value)
        key = tuple(key)
        found = self._by_key.get(key)
        if found is not None:
            self.hits += 1
            return found
        node = fresh if fresh is not None else cls(*values)
        self._by_key[key] = node
        self._canonical_ids.add(id(node))
        self.misses += 1
        return node

    def canonical(self, key: Hashable, build: Callable[[], object]) -> object:
        """The canonical node for a caller-made ``key``, built with
        ``build()`` on first sight (for nodes outside any signature)."""
        found = self._by_key.get(key)
        if found is not None:
            self.hits += 1
            return found
        node = build()
        self._by_key[key] = node
        self._canonical_ids.add(id(node))
        self.misses += 1
        return node

    def alias_of(self, node: object) -> object | None:
        """The canonical representative recorded for this exact node, if any."""
        entry = self._aliases.get(id(node))
        if entry is None:
            return None
        self.hits += 1
        return entry[1]

    def remember_alias(self, node: object, canonical: object) -> None:
        """Remember that ``node`` interns to ``canonical``.  The table is
        bounded: when it is full it is cleared, which is always safe (a
        forgotten node re-interns through its key) and costs O(1) per alias
        amortized."""
        if node is canonical:
            return
        aliases = self._aliases
        if len(aliases) >= self.MAX_ALIASES:
            aliases.clear()
        aliases[id(node)] = (node, canonical)

    def __len__(self) -> int:
        return len(self._by_key)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._by_key), "hits": self.hits, "misses": self.misses}


_REGISTRY: dict[str, Interner] = {}


def intern_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size statistics for every intern table (diagnostics, benchmarks)."""
    return {name: table.stats() for name, table in _REGISTRY.items()}


#: The types, seeded so interning maps onto the module constants.
#: ``intern_type(a) is intern_type(b)``  iff  ``a == b``.
TYPE_TABLE = Interner(
    "types",
    {DynType: "", UnknownType: "", BaseType: "s", FunType: "nn", ProdType: "nn"},
    seeds=(DYN, UNKNOWN, *BASE_TYPES, GROUND_FUN, GROUND_PROD),
)
intern_type = TYPE_TABLE.intern
is_interned_type = TYPE_TABLE.is_canonical
