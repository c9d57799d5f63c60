"""The serve wire protocol: newline-delimited JSON requests and responses.

One JSON object per line in each direction.  A client sends *requests*; the
server answers each with exactly one *response* object echoing the
request's ``id`` (``null`` when the request carried none).  A request line
longer than 1 MiB (:data:`repro.serve.server.MAX_LINE_BYTES`) is answered
with one ``error`` response with a ``null`` ``id``, and the next line is
the next request.  Operations:

``run`` (the default when ``op`` is absent)
    Evaluate a program.  Fields:

    * ``source`` — surface program text, *or* ``source_hash`` — the hex
      SHA-256 of previously-compiled source (the compile-cache address);
      a hash-only request that misses the cache fails with an ``error``
      response rather than compiling nothing.  A request may carry both
      only when the hash is the source's own.
    * ``engine`` — ``"vm"`` (default) or ``"rvm"``: workers run compiled
      code only (:func:`repro.serve.pool.pool_job`).
    * ``semantics`` — an enforcement-semantics name (default from the
      server's ``--semantics``).
    * ``opt_level`` — 0/1/2 (default from the server).
    * ``fuel`` — engine steps before a ``timeout`` outcome (a positive
      integer).
    * ``deadline_s`` — wall-clock seconds before cooperative cancellation
      (also a ``timeout`` outcome — exit-3 semantics are preserved): a
      finite positive number, at most :data:`MAX_DEADLINE_S`.

    A ``null`` field means the server's default.  A request with a field
    out of range is answered with an ``error`` response and never reaches
    a worker.

    The response is the batch runner's JSON record (``kind``, ``value`` /
    ``blame``, ``steps``, ``max_pending_mediators``, ``cache``, timings)
    plus ``id``.  An int ``value`` past CPython's int→str digit limit is
    sent as its decimal string (``type`` still says ``int``).  ``kind`` is
    always one of :data:`TERMINAL_KINDS`: ``value``, ``blame``, ``timeout``,
    ``error``, or ``overloaded`` (the load-shed outcome — the request was
    rejected at admission, not queued).

    An ``error`` from a worker carries the ``error`` message and a
    ``reason``: ``"static"`` (a parse or type error, an unknown
    ``source_hash``: ``cache`` is ``null``, ``compile_s`` the time to the
    error), ``"runtime"`` (the program went wrong as it ran, say an erasure
    ``if`` given ``7``: the message is the evaluator's, and ``cache``,
    ``compile_s`` and ``run_s`` are there as for a value), ``"defect"`` (a
    fault of this library: ``worker exception: <repr>``), or
    ``"worker-lost"`` (the worker crashed on every attempt).  A ``timeout`` past ``deadline_s`` has ``reason``
    ``"deadline"``.  A request refused before it reaches a worker is an
    ``error`` with no ``reason``.

``ping``
    Liveness probe; response ``{"id": ..., "ok": true}``.

``stats``
    Metrics snapshot: ``{"id": ..., "ok": true, "metrics": {...},
    "pool": {...}}``.

``shutdown``
    Begin a graceful drain (same path as SIGTERM): in-flight requests
    complete, new connections are rejected, the server exits 0.
"""

from __future__ import annotations

import json

#: Every ``run`` response's ``kind`` is exactly one of these.
TERMINAL_KINDS = ("value", "blame", "timeout", "error", "overloaded")

#: Recognized request operations.
OPS = ("run", "ping", "stats", "shutdown")

#: The longest deadline a request or the server may set, in seconds.  A day
#: is ample, and it keeps every deadline within what the worker's interval
#: timer and the parent's waits accept.
MAX_DEADLINE_S = 86400.0


def check_fuel(fuel: object) -> None:
    """Raise ``ValueError`` unless ``fuel`` is ``None`` (the engine's
    default) or a positive int (not a bool)."""
    if fuel is not None and (not isinstance(fuel, int) or isinstance(fuel, bool) or fuel <= 0):
        raise ValueError(f"fuel must be a positive integer, got {fuel!r}")


def check_deadline(deadline_s: object) -> None:
    """Raise ``ValueError`` unless ``deadline_s`` is ``None`` (no deadline)
    or a number (not a bool) of seconds in ``(0, MAX_DEADLINE_S]``, which
    rules out NaN and infinity."""
    if deadline_s is not None and not (
        isinstance(deadline_s, (int, float))
        and not isinstance(deadline_s, bool)
        and 0 < deadline_s <= MAX_DEADLINE_S
    ):
        raise ValueError(
            f"deadline_s must be a finite number of seconds in (0, {MAX_DEADLINE_S:g}], "
            f"got {deadline_s!r}"
        )


def encode_line(obj: dict) -> bytes:
    """One response/request as a JSON line (UTF-8, trailing newline)."""
    return json.dumps(obj, sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one request line; raises ``ValueError`` on garbage."""
    obj = json.loads(line.decode())
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    return obj


def error_response(request_id: object, message: str) -> dict:
    return {"id": request_id, "kind": "error", "error": message}


def normalize_run_request(obj: dict, defaults: dict) -> dict:
    """Validate a ``run`` request and fill server defaults into a pool job.

    Returns the job dict the worker pool executes; raises ``ValueError``
    with a client-presentable message on anything malformed.  ``defaults``
    carries the server's ``semantics`` / ``opt_level`` / ``engine`` /
    ``fuel`` / ``deadline_s`` / ``cache_dir`` / ``use_cache``.
    """
    source = obj.get("source")
    source_hash = obj.get("source_hash")
    if source is None and source_hash is None:
        raise ValueError("run request needs 'source' or 'source_hash'")
    if source is not None and not isinstance(source, str):
        raise ValueError("'source' must be a string")
    if source_hash is not None and not isinstance(source_hash, str):
        raise ValueError("'source_hash' must be a string")
    if source is not None and source_hash is not None:
        from ..compiler.serialize import source_fingerprint

        # Workers key their memos and the compile cache on the hash: a
        # mismatch would file this source under another program's address.
        if source_fingerprint(source) != source_hash:
            raise ValueError("'source_hash' is not the SHA-256 of 'source'")

    def field(name: str):
        value = obj.get(name)
        return defaults[name] if value is None else value

    if "mediator" in obj:
        raise ValueError("unknown request field 'mediator'; name the enforcement "
                         "semantics with 'semantics'")
    opt_level = field("opt_level")
    if not isinstance(opt_level, int) or isinstance(opt_level, bool):
        raise ValueError(f"opt_level must be 0, 1, or 2, got {opt_level!r}")
    fuel = field("fuel")
    check_fuel(fuel)
    deadline_s = field("deadline_s")
    check_deadline(deadline_s)
    # The shared validation path: the checks every other entrypoint runs,
    # and the pool's own, re-raised as the protocol's client-presentable
    # error type.
    from ..api import resolve_config
    from .pool import pool_job

    try:
        config = resolve_config(engine=field("engine"), semantics=field("semantics"),
                                opt_level=opt_level, fuel=fuel,
                                cache=defaults["use_cache"], cache_dir=defaults["cache_dir"])
        return pool_job(config, source, source_hash=source_hash, deadline_s=deadline_s)
    except ValueError as exc:
        raise ValueError(str(exc)) from None
