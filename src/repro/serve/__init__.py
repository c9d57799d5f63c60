"""``repro-gradual serve``: a fault-tolerant persistent evaluation service.

The package splits along the process boundary:

* :mod:`repro.serve.protocol` — the newline-delimited JSON wire format and
  request validation (shared by server and client);
* :mod:`repro.serve.pool` — the persistent worker pool: warm interned
  tables and hot images, crash detection with bounded retry on a
  pre-forked spare, cooperative deadlines, worker recycling, and the
  ``worker_kill`` fault hook;
* :mod:`repro.serve.server` — the asyncio front end, whose event loop owns
  the worker pipes: admission control with load shedding, metrics, and
  graceful SIGTERM drain;
* :mod:`repro.serve.client` — a small synchronous client (tests, smoke,
  benchmarks).
"""

from .client import ServeClient
from .pool import WorkerPool
from .protocol import TERMINAL_KINDS, decode_line, encode_line
from .server import ServeConfig, Server, serve

__all__ = [
    "ServeClient",
    "ServeConfig",
    "Server",
    "TERMINAL_KINDS",
    "WorkerPool",
    "decode_line",
    "encode_line",
    "serve",
]
