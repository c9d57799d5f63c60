"""The ``repro-gradual serve`` front end: asyncio over the worker pool.

One asyncio event loop accepts connections (TCP or a Unix socket), parses
newline-delimited JSON requests, and dispatches ``run`` jobs to the
persistent :class:`~repro.serve.pool.WorkerPool` through a thread-pool
executor sized to the worker count.  Requests on one connection are handled
serially (a response is written before the next line is read — which is
what makes single-connection chaos runs deterministic); concurrency comes
from concurrent connections.

Admission control is a counted gate, not a real queue: at most
``queue_limit`` run requests may be admitted (waiting for an executor
thread or executing) at once; a request beyond that is *shed* immediately
with the ``overloaded`` terminal kind — the client learns it was never
attempted, rather than waiting behind an unbounded backlog.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry
from .pool import DEFAULT_GRACE_S, WorkerPool
from .protocol import decode_line, encode_line, error_response, normalize_run_request

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
    backoff_s: float = 0.05
    grace_s: float = DEFAULT_GRACE_S
    faults: str | None = None  # fault spec (default: the environment)
    faults_seed: int | None = None


class Server:
    """One serving process: pool, executor, listener, and drain logic."""

    def __init__(self, config: ServeConfig, metrics: MetricsRegistry | None = None):
        from ..api import resolve_config

        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Fail fast at startup through the shared validation path: the same
        # resolve_config every other entrypoint uses (per-request overrides
        # re-validate in normalize_run_request).
        run_defaults = resolve_config(
            engine=config.engine,
            semantics=config.semantics,
            opt_level=config.opt_level,
            fuel=config.fuel,
            cache=config.use_cache,
            cache_dir=config.cache_dir,
        )
        self._defaults = {
            "semantics": run_defaults.semantics,
            "opt_level": run_defaults.opt_level,
            "engine": run_defaults.engine,
            "fuel": config.fuel,
            "deadline_s": config.deadline_s,
            "cache_dir": run_defaults.cache_dir,
            "use_cache": run_defaults.cache,
        }
        self._pool: WorkerPool | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._admitted = 0
        self._draining = False
        self._drain_event: asyncio.Event | None = None
        self.address: tuple | None = None  # set once listening

    # -- metrics (the registry is shared with pool threads) -----------------

    def _metric(self, kind: str, name: str, value=None) -> None:
        with self._pool.metrics_lock:
            if kind == "counter":
                self.metrics.counter(name).inc()
            elif kind == "gauge":
                self.metrics.gauge(name).set(value)
            else:
                self.metrics.histogram(name).observe(value)

    # -- request handling ---------------------------------------------------

    def _run_in_thread(self, job: dict) -> dict:
        # Executor thread: note when the job left the admission queue, so
        # the event loop can split queue wait from service time.
        started = time.perf_counter()
        result = self._pool.execute(job)
        result["_dequeued_s"] = started
        return result

    async def _dispatch(self, obj: dict) -> dict:
        request_id = obj.get("id")
        op = obj.get("op", "run")
        if op == "ping":
            return {"id": request_id, "ok": True, "draining": self._draining}
        if op == "stats":
            with self._pool.metrics_lock:
                snapshot = self.metrics.snapshot()
            return {
                "id": request_id,
                "ok": True,
                "metrics": snapshot,
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

        self._metric("counter", "serve.requests")
        if self._admitted >= self.config.queue_limit:
            # Shed at admission: the job was never queued, never attempted.
            self._metric("counter", "serve.shed")
            self._metric("counter", "serve.outcome.overloaded")
            return {
                "id": request_id,
                "kind": "overloaded",
                "error": (
                    f"queue full ({self.config.queue_limit} requests admitted); "
                    "retry later"
                ),
            }
        self._admitted += 1
        self._metric("gauge", "serve.queue.depth", self._admitted)
        queued_s = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._executor, self._run_in_thread, job)
        finally:
            self._admitted -= 1
            self._metric("gauge", "serve.queue.depth", self._admitted)
        done_s = time.perf_counter()
        dequeued_s = result.pop("_dequeued_s", queued_s)
        self._metric("counter", f"serve.outcome.{result.get('kind', 'error')}")
        self._metric("histogram", "serve.queue_s", dequeued_s - queued_s)
        self._metric("histogram", "serve.latency_s", done_s - queued_s)
        for key, metric in (("compile_s", "serve.compile_s"), ("run_s", "serve.run_s")):
            if key in result:
                self._metric("histogram", metric, result[key])
        result["id"] = request_id
        return result

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        self._metric("counter", "serve.connections")
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
            seed=config.faults_seed,
            retries=config.retries,
            backoff_s=config.backoff_s,
            grace_s=config.grace_s,
            max_requests=config.max_requests,
            max_rss_mb=config.max_rss_mb,
            metrics=self.metrics,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="serve"
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
        self._executor.shutdown(wait=True)
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
