"""The serve wire protocol: newline-delimited JSON requests and responses.

One JSON object per line in each direction.  A client sends *requests*; the
server answers each with exactly one *response* object echoing the
request's ``id`` (``null`` when the request carried none).  Operations:

``run`` (the default when ``op`` is absent)
    Evaluate a program.  Fields:

    * ``source`` — surface program text, *or* ``source_hash`` — the hex
      SHA-256 of previously-compiled source (the compile-cache address);
      a hash-only request that misses the cache fails with an ``error``
      response rather than compiling nothing.
    * ``engine`` — ``"vm"`` (default) or ``"rvm"``.
    * ``semantics`` — an enforcement-semantics name (default from the
      server's ``--semantics``).
    * ``opt_level`` — 0/1/2 (default from the server).
    * ``fuel`` — engine steps before a ``timeout`` outcome.
    * ``deadline_s`` — wall-clock seconds before cooperative cancellation
      (also a ``timeout`` outcome — exit-3 semantics are preserved).

    The response is the batch runner's JSON record (``kind``, ``value`` /
    ``blame``, ``steps``, ``max_pending_mediators``, ``cache``, timings)
    plus ``id``.  ``kind`` is always one of :data:`TERMINAL_KINDS`:
    ``value``, ``blame``, ``timeout``, ``error``, or ``overloaded`` (the
    load-shed outcome — the request was rejected at admission, not queued).

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

#: Engines a request may name (the serving pipeline is compiled-only).
SERVE_ENGINES = ("vm", "rvm")


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

    engine = obj.get("engine", defaults["engine"])
    if engine not in SERVE_ENGINES:
        raise ValueError(f"unknown engine {engine!r} (expected one of {SERVE_ENGINES})")
    if "mediator" in obj:
        raise ValueError("unknown request field 'mediator'; name the enforcement "
                         "semantics with 'semantics'")
    semantics = obj.get("semantics", defaults["semantics"])
    opt_level = obj.get("opt_level", defaults["opt_level"])
    if not isinstance(opt_level, int) or isinstance(opt_level, bool):
        raise ValueError(f"opt_level must be 0, 1, or 2, got {opt_level!r}")
    # The shared validation path: the same checks every other entrypoint
    # runs, re-raised with the protocol's client-presentable error type.
    from ..api import resolve_config
    from ..core.errors import UsageError

    try:
        resolve_config(engine=engine, semantics=semantics, opt_level=opt_level)
    except (UsageError, ValueError) as exc:
        raise ValueError(str(exc)) from None
    fuel = obj.get("fuel", defaults["fuel"])
    if fuel is not None and (not isinstance(fuel, int) or fuel <= 0):
        raise ValueError(f"fuel must be a positive integer, got {fuel!r}")
    deadline_s = obj.get("deadline_s", defaults["deadline_s"])
    if deadline_s is not None and (
        not isinstance(deadline_s, (int, float)) or deadline_s <= 0
    ):
        raise ValueError(f"deadline_s must be a positive number, got {deadline_s!r}")

    return {
        "op": "run_source",
        "source": source,
        "source_hash": source_hash,
        "engine": engine,
        "semantics": semantics,
        "opt_level": opt_level,
        "fuel": fuel,
        "deadline_s": deadline_s,
        "cache_dir": defaults["cache_dir"],
        "use_cache": defaults["use_cache"],
    }
