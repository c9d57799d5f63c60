"""The ``repro-gradual serve`` front end: asyncio over the worker pool.

One asyncio event loop accepts connections (TCP or a Unix socket), parses
newline-delimited JSON requests, and runs ``run`` jobs on the persistent
:class:`~repro.serve.pool.WorkerPool`.  The loop owns the worker pipes: a
run request checks out an idle worker, sends it the job, and awaits a
future that an ``add_reader`` callback on the worker's pipe or process
sentinel completes, with the hard deadline a ``call_later`` timer.  No
thread is involved, so the metrics registry is updated without a lock.
Requests on one connection are handled serially (a response is written
before the next line is read — which is what makes single-connection chaos
runs deterministic); concurrency comes from concurrent connections.

Admission control is a counted gate, not a real queue: at most
``queue_limit`` run requests may be admitted (waiting for a worker or
executing) at once; a request beyond that is *shed* immediately with the
``overloaded`` terminal kind — the client learns it was never attempted,
rather than waiting behind an unbounded backlog.

Shutdown is a drain: the first SIGTERM/SIGINT (or a ``shutdown`` request)
stops accepting connections and new run requests, lets admitted requests
finish and their responses flush, retires the pool, sweeps the compile
cache (deleting any torn entry a chaos run left behind), and exits 0.  A
second signal hard-exits 1 immediately.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from dataclasses import dataclass

from ..core.errors import UsageError
from ..obs.metrics import MetricsRegistry
from .pool import DEFAULT_GRACE_S, WorkerPool
from .protocol import (MAX_DEADLINE_S, check_deadline, check_fuel, decode_line, encode_line,
                       error_response, normalize_run_request)

#: The longest request line read, newline excluded.  A longer line gets one
#: ``error`` response; the rest of it is discarded and the connection
#: serves on.
MAX_LINE_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Everything ``repro-gradual serve`` is configured by."""

    host: str = "127.0.0.1"
    port: int = 0
    socket_path: str | None = None  # serve on a Unix socket instead of TCP
    workers: int = 1
    queue_limit: int = 16
    semantics: str = "coercion"
    opt_level: int = 2
    engine: str = "vm"
    fuel: int | None = None
    deadline_s: float | None = None
    cache_dir: str | None = None
    use_cache: bool = True
    max_requests: int = 0  # recycle a worker after this many jobs (0 = never)
    max_rss_mb: int = 0  # recycle a worker past this RSS (0 = never)
    retries: int = 2
    grace_s: float = DEFAULT_GRACE_S
    faults: str | None = None  # fault spec (default: the environment)


def _check_settings(config: ServeConfig) -> None:
    """Raise :class:`UsageError` for the first numeric setting out of range;
    the default deadline passes the same check as a request's."""
    for name, least in (("port", 0), ("workers", 1), ("queue_limit", 1),
                        ("max_requests", 0), ("max_rss_mb", 0), ("retries", 0)):
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise UsageError(f"{name} must be an integer >= {least}, got {value!r}")
    if config.port > 65535:
        raise UsageError(f"port must be at most 65535, got {config.port}")
    try:
        check_fuel(config.fuel)
        check_deadline(config.deadline_s)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    grace_s = config.grace_s
    if not (isinstance(grace_s, (int, float)) and not isinstance(grace_s, bool)
            and 0 <= grace_s <= MAX_DEADLINE_S):
        raise UsageError(
            f"grace_s must be a number of seconds in [0, {MAX_DEADLINE_S:g}], got {grace_s!r}"
        )


class Server:
    """One serving process: pool, listener, and drain logic."""

    def __init__(self, config: ServeConfig, metrics: MetricsRegistry | None = None):
        from ..api import resolve_config
        from .pool import pool_job

        _check_settings(config)
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Fail fast at startup through the shared validation path: the same
        # resolve_config and pool job every other entrypoint makes.  That job
        # holds the requests' defaults (normalize_run_request re-validates
        # their overrides); its fuel stays unset, for each engine's default.
        run_defaults = resolve_config(
            engine=config.engine,
            semantics=config.semantics,
            opt_level=config.opt_level,
            fuel=config.fuel,
            cache=config.use_cache,
            cache_dir=config.cache_dir,
        )
        self._defaults = {**pool_job(run_defaults, deadline_s=config.deadline_s),
                          "fuel": config.fuel}
        self._pool: WorkerPool | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._admitted = 0
        self._draining = False
        self._drain_event: asyncio.Event | None = None
        self.address: tuple | None = None  # set once listening

    # -- request handling ---------------------------------------------------

    async def _dispatch(self, obj: dict) -> dict:
        request_id = obj.get("id")
        op = obj.get("op", "run")
        if op == "ping":
            return {"id": request_id, "ok": True, "draining": self._draining}
        if op == "stats":
            return {
                "id": request_id,
                "ok": True,
                "metrics": self.metrics.snapshot(),
                "pool": self._pool.info(),
            }
        if op == "shutdown":
            self.begin_drain()
            return {"id": request_id, "ok": True, "draining": True}
        if op != "run":
            return error_response(request_id, f"unknown op {op!r}")
        if self._draining:
            return error_response(request_id, "server is draining")
        try:
            job = normalize_run_request(obj, self._defaults)
        except ValueError as exc:
            return error_response(request_id, str(exc))

        metrics = self.metrics
        metrics.counter("serve.requests").inc()
        if self._admitted >= self.config.queue_limit:
            # Shed at admission: the job was never queued, never attempted.
            metrics.counter("serve.shed").inc()
            metrics.counter("serve.outcome.overloaded").inc()
            return {
                "id": request_id,
                "kind": "overloaded",
                "error": (
                    f"queue full ({self.config.queue_limit} requests admitted); "
                    "retry later"
                ),
            }
        self._admitted += 1
        metrics.gauge("serve.queue.depth").set(self._admitted)
        admitted_s = time.perf_counter()
        try:
            worker = await self._pool.checkout()
            checked_out_s = time.perf_counter()
            result = await self._pool.run(job, worker)
        finally:
            self._admitted -= 1
            metrics.gauge("serve.queue.depth").set(self._admitted)
        done_s = time.perf_counter()
        queue_s = checked_out_s - admitted_s
        latency_s = done_s - admitted_s
        compile_s = result.get("compile_s", 0.0)
        run_s = result.get("run_s", 0.0)
        metrics.counter(f"serve.outcome.{result.get('kind', 'error')}").inc()
        metrics.histogram("serve.queue_s").observe(queue_s)
        metrics.histogram("serve.latency_s").observe(latency_s)
        # What the worker did not spend compiling or running: the pipe, the
        # pickling and the loop's turn-around.
        metrics.histogram("serve.ipc_s").observe(latency_s - queue_s - compile_s - run_s)
        if "compile_s" in result:
            metrics.histogram("serve.compile_s").observe(compile_s)
            if result.get("cache") == "hit":
                metrics.histogram("serve.load_s").observe(compile_s)
        if "run_s" in result:
            metrics.histogram("serve.run_s").observe(run_s)
        result["id"] = request_id
        return result

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        self.metrics.counter("serve.connections").inc()
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    response = error_response(
                        None, f"bad request: line longer than {MAX_LINE_BYTES} bytes"
                    )
                elif not line:
                    break
                elif not line.strip():
                    continue
                else:
                    try:
                        obj = decode_line(line)
                    except ValueError as exc:
                        response = error_response(None, f"bad request: {exc}")
                    else:
                        response = await self._dispatch(obj)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- lifecycle ----------------------------------------------------------

    def begin_drain(self) -> None:
        """First call starts the graceful drain; a second force-exits 1."""
        if self._draining:
            if self._pool is not None:
                self._pool.kill_all()
            os._exit(1)
        self._draining = True
        if self._drain_event is not None:
            self._drain_event.set()

    async def run(self, announce=None) -> int:
        """Serve until drained; returns the process exit code (0).

        ``announce`` (optional callable) receives one JSON-ready dict when
        the server is listening — the CLI prints it so scripts can learn
        the ephemeral port / socket path and the pid to signal.
        """
        config = self.config
        self._drain_event = asyncio.Event()
        self._pool = WorkerPool(
            config.workers,
            faults=config.faults,
            retries=config.retries,
            grace_s=config.grace_s,
            max_requests=config.max_requests,
            max_rss_mb=config.max_rss_mb,
            metrics=self.metrics,
        )
        if config.socket_path is not None:
            self._asyncio_server = await asyncio.start_unix_server(
                self._handle_connection, path=config.socket_path, limit=MAX_LINE_BYTES
            )
            self.address = ("unix", config.socket_path)
        else:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, config.host, config.port, limit=MAX_LINE_BYTES
            )
            bound = self._asyncio_server.sockets[0].getsockname()
            self.address = ("tcp", bound[0], bound[1])

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

        if announce is not None:
            ready = {"event": "ready", "pid": os.getpid(), "workers": config.workers}
            if self.address[0] == "unix":
                ready["socket"] = self.address[1]
            else:
                ready["host"], ready["port"] = self.address[1], self.address[2]
            announce(ready)

        await self._drain_event.wait()

        # Drain: no new connections, no new admissions (dispatch rejects
        # while draining), admitted requests run to their terminal response.
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        while self._admitted > 0:
            await asyncio.sleep(0.01)
        # Let in-flight response writes flush before dropping connections.
        await asyncio.sleep(0.05)
        for writer in list(self._writers):
            writer.close()
        self._pool.shutdown()
        if config.use_cache:
            from ..compiler.cache import sweep_cache

            kept, removed = sweep_cache(config.cache_dir, self.metrics)
            if removed:
                print(
                    f"serve: cache sweep removed {removed} corrupt/orphaned "
                    f"entries ({kept} kept)",
                    file=sys.stderr,
                )
        return 0


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line (``b""`` at end of stream), or ``None`` for a
    line longer than the reader's limit, which is read to its end, however
    long, and dropped."""
    too_long = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            too_long = True
            await reader.readexactly(exc.consumed)
            continue
        return None if too_long else line


def serve(config: ServeConfig, announce=None) -> int:
    """Run a server to completion (the CLI entry point)."""
    return asyncio.run(Server(config).run(announce=announce))
