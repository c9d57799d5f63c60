"""Content-addressed on-disk compile cache for ``.gradb`` images.

Compilation is pure: the image produced for a program depends only on the
program text (equivalently, its elaborated term), the optimizer level, the
enforcement semantics, and the toolchain's format/instruction-set version.
So a compiled image is cached under a key that is exactly that tuple, hashed::

    ~/.cache/repro-gradual/<k[:2]>/<k>.gradb
    k = sha256(format version ‖ opcode fingerprint ‖ [IR ‖ register
               fingerprint] ‖ source hash ‖ opt level ‖ semantics)

(the IR axis — stack vs register — is keyed so register images never
collide with stack images of the same source/level/semantics)

and a warm ``run`` deserializes the image instead of re-running the whole
parse → type check → elaborate → lower → optimize pipeline.
There is no invalidation protocol: keys are content-addressed, so a changed
program, a different ``-O`` level or semantics, or a new format/opcode-set
version simply misses and compiles fresh.  Entries are written atomically
(:func:`~repro.compiler.serialize.save_image` writes a temp sibling and
``os.replace``\\ s it), and a corrupt or truncated entry — detected by the
image checksum on load — is deleted and recompiled rather than surfaced
(status ``recovered``).

The cache directory resolves, in order: an explicit ``cache_dir`` argument,
``$REPRO_GRADUAL_CACHE_DIR``, ``$XDG_CACHE_HOME/repro-gradual``, and
``~/.cache/repro-gradual``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from ..core.terms import Term
from ..core.types import Type
from .bytecode import CodeObject, opcode_fingerprint
from .opt import DEFAULT_OPT_LEVEL
from .regalloc import register_fingerprint
from .serialize import (
    FORMAT_VERSION,
    GRADB_MAGIC,
    GRADB_SUFFIX,
    ImageError,
    ImageInfo,
    LoadedImage,
    load_image,
    save_image,
    source_fingerprint,
)

#: Environment variable overriding the cache location (highest precedence
#: after an explicit ``cache_dir`` argument).
CACHE_DIR_ENV = "REPRO_GRADUAL_CACHE_DIR"


def default_cache_dir() -> Path:
    """The resolved on-disk cache directory (not created until first write)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-gradual"


def cache_key(source_hash: str, opt_level: int, semantics: str, ir: str = "stack") -> str:
    """The content address of one compilation: hex SHA-256 over every input
    that can change the produced image.  ``ir`` is an axis of the key, so a
    register image never collides with a stack image of the same source —
    and register keys also cover the register instruction set's own
    fingerprint (a renumbering invalidates register entries only)."""
    from ..semantics import resolve

    digest = hashlib.sha256()
    digest.update(f"gradb-v{FORMAT_VERSION}\x00".encode())
    digest.update(opcode_fingerprint())
    if ir != "stack":
        digest.update(f"\x00ir={ir}\x00".encode())
        digest.update(register_fingerprint())
    # The enforcement-semantics axis comes from the registry, so renaming or
    # re-versioning a backend's key invalidates exactly its own entries.
    axis = resolve(semantics).cache_key
    digest.update(f"\x00{source_hash}\x00{opt_level}\x00{axis}".encode())
    return digest.hexdigest()


def cache_path(
    source_hash: str,
    opt_level: int,
    semantics: str,
    cache_dir: str | os.PathLike | None = None,
    ir: str = "stack",
) -> Path:
    """Where the image for this compilation lives (two-level fan-out, so a
    large cache does not pile every entry into one directory)."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    key = cache_key(source_hash, opt_level, semantics, ir)
    return root / key[:2] / (key + GRADB_SUFFIX)


@dataclass
class CacheOutcome:
    """One cache consultation: the loaded/compiled image and how it was found.

    ``status`` is ``"hit"`` (deserialized from disk), ``"miss"`` (compiled
    and stored), or ``"recovered"`` (a corrupt entry was deleted, then
    compiled and stored fresh).
    """

    image: LoadedImage
    status: str
    path: Path


def _try_load(path: Path, metrics=None) -> LoadedImage | None:
    """Load a cache entry, deleting it if it is corrupt or unreadable.

    Entries were written by this library into the user's own cache, so the
    crafted-image bounds validation is skipped (the checksum still catches
    corruption — the failure mode a cache actually has).

    Corruption here means *anything* short of a loadable image: a bad CRC,
    but also the zero-length or truncated-header entries a crash
    mid-``os.replace`` leaves behind on filesystems that do not order data
    and rename, and any decoder surprise (``MemoryError``/``OverflowError``
    from a garbage length prefix).  Every such entry is deleted and counted
    as a miss — the cache recompiles; it never raises.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return None
    corrupt = False
    if size < len(GRADB_MAGIC) + 5:
        # Too short to even hold the magic and the CRC trailer: a torn
        # write for certain.  Skip the parse and go straight to recovery.
        corrupt = True
    else:
        try:
            return load_image(path, validate=False)
        except (ImageError, OSError, MemoryError, OverflowError, ValueError):
            corrupt = True
    if corrupt:
        if metrics is not None:
            metrics.counter("cache.corrupt").inc()
        try:
            path.unlink()
        except OSError:
            pass
    return None


def cache_lookup(
    source_hash: str,
    opt_level: int,
    semantics: str,
    cache_dir: str | os.PathLike | None = None,
    ir: str = "stack",
    metrics=None,
) -> LoadedImage | None:
    """The cached image for this compilation, or ``None`` on a miss.

    A corrupt entry counts as a miss (and is deleted).  This is the warm
    path of a source run, which skips parsing, elaboration, lowering, and
    optimization entirely when it returns an image.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) gets the
    ``cache`` phase timer and the ``cache.hit``/``cache.corrupt`` counters;
    the miss itself is counted by the compile that every miss falls
    through to, so a lookup and its compile never double-count.
    """
    from ..obs.metrics import phase

    with phase(metrics, "cache"):
        image = _try_load(
            cache_path(source_hash, opt_level, semantics, cache_dir, ir), metrics
        )
    if image is not None and metrics is not None:
        metrics.counter("cache.hit").inc()
    return image


def compile_image(
    term: Term | CodeObject,
    source_hash: str = "",
    static_type: Type | None = None,
    semantics: str = "coercion",
    opt_level: int = DEFAULT_OPT_LEVEL,
    ir: str = "stack",
    metrics=None,
) -> LoadedImage:
    """Compile a λB term into an in-memory image, without touching the cache.

    ``term`` may also be the term's semantics-independent lowering
    (:func:`~repro.compiler.lower.lower_term`), which is only read: a caller
    that keeps it compiles the program under each further semantics without
    lowering it again.  Either way the path is lower → map to ``semantics``
    → optimize (→ regalloc), and the image is the same.

    A stack image carries the stack VM's optimized code
    (:func:`~repro.compiler.vm.compile_term`); a register image carries the
    register pipeline's output (:func:`~repro.compiler.rvm.compile_register_program`):
    the register code plus the stack code it was converted from (the same
    stream the stack VM runs, without its inline-cache cells).
    ``metrics`` gets the ``lower``/``optimize`` phase timers and, for
    register images, ``regalloc``.
    """
    if ir == "register":
        from .rvm import compile_register_program

        code, rcode = compile_register_program(term, semantics, opt_level, metrics)
    else:
        from .vm import compile_term

        code = compile_term(term, semantics, opt_level, metrics=metrics)
        rcode = None
    info = ImageInfo(FORMAT_VERSION, source_hash, opt_level, semantics, static_type, ir)
    return LoadedImage(code, info, rcode)


def cached_compile_source(
    source_hash: str,
    front_end,
    semantics: str = "coercion",
    opt_level: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    ir: str = "stack",
    metrics=None,
) -> CacheOutcome:
    """The image of one program, through the cache.

    ``front_end()`` returns the program's elaborated λB term (or that
    term's :func:`~repro.compiler.lower.lower_term` lowering) and static
    type; it runs only on a miss, so a hit skips parsing and elaboration
    too.  On a miss the term is compiled, stored atomically, and returned
    without a second round trip through disk.  The lookup is
    :func:`cache_lookup`, which deletes a corrupt entry; the compile that
    replaces it reports ``recovered`` instead of ``miss``.

    ``ir="register"`` caches (and on a hit returns) an image that carries
    the packed register streams too, under its own key.

    ``metrics`` gets the ``cache`` phase timer (load + store; compilation is
    timed by its own ``lower``/``optimize``/``regalloc`` phases) and the
    ``cache.{hit,miss,recovered,corrupt}`` counters.
    """
    from ..core.faults import current_plan
    from ..obs.metrics import phase

    if opt_level is None:
        opt_level = DEFAULT_OPT_LEVEL
    path = cache_path(source_hash, opt_level, semantics, cache_dir, ir)
    existed = path.exists()
    image = cache_lookup(source_hash, opt_level, semantics, cache_dir, ir, metrics)
    if image is not None:
        return CacheOutcome(image, "hit", path)

    term, static_type = front_end()
    plan = current_plan()
    if plan is not None:
        # Fault hook `slow_compile`: a compile that stalls (page cache
        # miss, contended CPU) — the serving layer's deadline must cover it.
        plan.delay("slow_compile", 0.1)
    image = compile_image(term, source_hash, static_type, semantics, opt_level, ir, metrics)
    with phase(metrics, "cache"):
        try:
            save_image(image.code, path, source_hash=source_hash,
                       static_type=static_type, ir=ir, rcode=image.rcode)
        except OSError:
            pass  # a read-only or full cache degrades to compile-always
    status = "recovered" if existed else "miss"
    if metrics is not None:
        metrics.counter(f"cache.{status}").inc()
    return CacheOutcome(image, status, path)


def cached_compile(
    term: Term,
    source_hash: str | None = None,
    static_type: Type | None = None,
    semantics: str = "coercion",
    opt_level: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    ir: str = "stack",
    metrics=None,
) -> CacheOutcome:
    """Compile an elaborated λB term through the cache
    (:func:`cached_compile_source` with the term already in hand).

    ``source_hash`` identifies the program; when the caller has no source
    text (the term-level API), the pretty-printed elaborated term stands in
    — it is deterministic and captures exactly what is compiled.
    """
    from ..core.pretty import term_to_str

    if source_hash is None:
        source_hash = source_fingerprint(term_to_str(term))
    return cached_compile_source(source_hash, lambda: (term, static_type), semantics,
                                 opt_level, cache_dir, ir, metrics)


def sweep_cache(
    cache_dir: str | os.PathLike | None = None, metrics=None
) -> tuple[int, int]:
    """Scan the cache and delete every entry that does not load cleanly.

    Returns ``(kept, removed)``.  ``removed`` counts corrupt/truncated
    entries *and* orphaned ``*.tmp`` siblings left by a crash between
    ``tempfile.mkstemp`` and ``os.replace``.  The serving layer runs this
    on graceful shutdown, so a chaos run (torn-write injection and all)
    leaves the cache with no corrupt entries; it is also safe to call any
    time — entries a sweep deletes would have been deleted-and-recompiled
    on their next lookup anyway.
    """
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    kept = removed = 0
    if not root.is_dir():
        return kept, removed
    for entry in sorted(root.rglob("*.tmp")):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    for entry in sorted(root.rglob(f"*{GRADB_SUFFIX}")):
        if _try_load(entry, metrics) is None:
            removed += 1
        else:
            kept += 1
    return kept, removed
