"""The persistent worker pool: warm workers, crash recovery, recycling.

This is the execution substrate behind ``repro-gradual serve`` (and the
multi-worker path of ``repro-gradual batch``).  Each worker is a long-lived
process holding the state that makes requests cheap the second time:

* the interned type/coercion/labeled-type/threesome/transient tables and
  the memoised ``#``/``∘`` composition caches (process-global, so they
  warm automatically as requests flow);
* the serialize layer's decode memo (re-interning a cached image is a
  dictionary lookup per node after the first load);
* a bounded per-worker memo of hot deserialized images, so a repeated
  ``(source, semantics, opt level, IR)`` skips even the image decode.

The robustness contract, which the chaos tests hold the pool to:

* **Every job gets exactly one terminal result.**  A worker crash
  (detected via pipe EOF / process death) triggers at-most-``retries``
  re-dispatches with exponential backoff on a fresh worker; past that the
  job fails as an ``error`` result with ``"reason": "worker-lost"`` —
  never silently dropped, never hung (the failure mode of a bare
  ``multiprocessing.Pool``, whose ``imap_unordered`` waits forever for a
  SIGKILLed worker's task).
* **Deadlines are cooperative first, forceful second.**  The worker arms
  ``SIGALRM`` for the job's ``deadline_s`` and turns expiry into a
  ``timeout`` result (exit-3 semantics preserved, worker survives with its
  warm tables).  If the worker stays silent past ``deadline_s + grace_s``
  the parent kills and replaces it, still reporting ``timeout``.
* **Workers are recycled, not leaked.**  After ``max_requests`` jobs or
  when the worker's RSS exceeds ``max_rss_mb``, the parent retires it
  gracefully and spawns a replacement whose warm state re-seeds from the
  on-disk compile cache on first touch.
* **Faults are injected deterministically.**  The coordinator draws
  ``worker_kill`` per dispatch from its own seeded stream (so a kill
  scoped ``worker_kill:1.0:1`` fires on exactly one dispatch and the retry
  survives); workers install the same spec with a per-slot salt, which
  arms the ``slow_compile``/``torn_write`` hooks inside the compile cache
  and the image writer.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from contextlib import contextmanager

from ..core.faults import FAULTS_ENV, FaultPlan

#: How workers announce crash-simulation compliance (never seen by callers;
#: the parent only ever observes the SIGKILL).
_KILL_FLAG = "_kill"

#: Sentinel results from the parent-side await loop.
_CRASHED = object()
_HUNG = object()

#: Default wall-clock grace beyond a job's deadline before the parent
#: declares the worker hung and replaces it.
DEFAULT_GRACE_S = 5.0

#: Hot deserialized images kept per worker (insertion-order eviction).
_IMAGE_MEMO_CAP = 64


class _DeadlineExceeded(Exception):
    """Raised inside a worker by the SIGALRM handler at the job deadline."""


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _rss_kb() -> int:
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    import sys

    return rss // 1024 if sys.platform == "darwin" else rss


@contextmanager
def _deadline(seconds: float | None):
    """Cooperative cancellation: raise :class:`_DeadlineExceeded` after
    ``seconds`` of wall clock.  A no-op when ``seconds`` is ``None`` or the
    platform has no ``SIGALRM`` (the parent's hard kill still applies)."""
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(_signum, _frame):
        raise _DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _obtain_image(job: dict, memo: dict):
    """The image for a ``run_source`` job, through memo → cache → compile.

    Returns ``(LoadedImage, cache_status)`` where status is ``"warm"``
    (worker-resident), ``"hit"``/``"miss"``/``"recovered"`` (compile
    cache), or ``"off"`` (caching disabled).  Raises ``ReproError`` for
    front-end failures and unknown hashes.
    """
    from ..api import IR_FOR_ENGINE
    from ..compiler.cache import cached_compile_source, compile_image
    from ..compiler.serialize import source_fingerprint
    from ..core.errors import ReproError
    from ..surface.interp import compile_source

    source = job.get("source")
    semantics = job["semantics"]
    opt_level = job["opt_level"]
    ir = IR_FOR_ENGINE[job["engine"]]
    source_hash = job.get("source_hash")
    if source_hash is None:
        source_hash = source_fingerprint(source)
    key = (source_hash, semantics, opt_level, ir)
    image = memo.get(key)
    if image is not None:
        return image, "warm"

    def front_end():
        if source is None:
            raise ReproError(
                f"source_hash {source_hash[:12]}… is not in the compile cache "
                "and the request carried no source"
            )
        return compile_source(source)

    if job.get("use_cache", True):
        found = cached_compile_source(source_hash, front_end, semantics, opt_level,
                                      job.get("cache_dir"), ir)
        image, status = found.image, found.status
    else:
        term, ty = front_end()
        image = compile_image(term, source_hash, ty, semantics, opt_level, ir)
        status = "off"

    if len(memo) >= _IMAGE_MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = image
    return image, status


def _run_image(image, fuel: int | None) -> dict:
    """Execute a loaded image and shape the batch-runner result fields."""
    from ..api import run_image

    started = time.perf_counter()
    result = run_image(image, fuel)
    finished = time.perf_counter()
    fields = {
        "kind": result.kind,
        "steps": result.steps,
        "max_pending_mediators": (result.space_stats or {}).get("max_pending_mediators", 0),
        "run_s": finished - started,
    }
    if result.is_value:
        fields["value"] = result.value
        if result.type is not None:
            fields["type"] = str(result.type)
    elif result.is_blame:
        fields["blame"] = str(result.blame_label)
    return fields


def handle_job(job: dict, memo: dict) -> dict:
    """One job to one result dict: what a worker does with each job it
    receives (and what the batch runner's inline mode does in-process).

    ``run_image`` jobs carry serialized image bytes; ``run_source`` jobs
    carry source text or a cache address (see :func:`_obtain_image`).
    ``memo`` is the worker's hot-image memo.
    """
    from ..core.errors import ReproError

    op = job.get("op")
    if op == "run_image":
        from ..compiler.serialize import deserialize_image

        started = time.perf_counter()
        with _deadline(job.get("deadline_s")):
            try:
                image = deserialize_image(job["image"], validate=False)
            except ReproError as exc:
                return {"kind": "error", "error": str(exc)}
            loaded = time.perf_counter()
            result = _run_image(image, job.get("fuel"))
        result["load_s"] = loaded - started
        return result
    if op == "run_source":
        started = time.perf_counter()
        with _deadline(job.get("deadline_s")):
            try:
                image, status = _obtain_image(job, memo)
            except ReproError as exc:
                return {"kind": "error", "error": str(exc), "cache": None}
            loaded = time.perf_counter()
            result = _run_image(image, job.get("fuel"))
        result["cache"] = status
        result["compile_s"] = loaded - started
        return result
    return {"kind": "error", "error": f"unknown pool op: {op!r}"}


def _worker_main(conn, slot: int, faults_spec: str, seed: int) -> None:
    """The worker process loop: recv a job, send exactly one result."""
    from ..core.faults import set_plan

    set_plan(
        FaultPlan.from_spec(faults_spec, seed=seed, salt=f"worker{slot}")
        if faults_spec.strip()
        else None
    )
    memo: dict = {}
    served = 0
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        if job.get(_KILL_FLAG):
            # Simulated crash: die as abruptly as the OOM killer would.
            os.kill(os.getpid(), signal.SIGKILL)
        served += 1
        try:
            result = handle_job(job, memo)
        except _DeadlineExceeded:
            result = {
                "kind": "timeout",
                "reason": "deadline",
                "deadline_s": job.get("deadline_s"),
                "steps": 0,
                "max_pending_mediators": 0,
            }
        except Exception as exc:  # a worker bug must not kill the worker
            result = {"kind": "error", "error": f"worker exception: {exc!r}"}
        if "program" in job:
            result["program"] = job["program"]
        result["served"] = served
        result["rss_kb"] = _rss_kb()
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle: the process, its pipe, and its request count."""

    __slots__ = ("slot", "process", "conn", "served")

    def __init__(self, slot: int, faults_spec: str, seed: int):
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.slot = slot
        self.conn = parent_conn
        self.served = 0
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, slot, faults_spec, seed),
            daemon=True,
            name=f"repro-serve-worker-{slot}",
        )
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def retire(self, timeout: float = 1.0) -> None:
        """Graceful stop: shutdown sentinel, short join, then force."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class WorkerPool:
    """A fixed-size pool of persistent workers with crash recovery.

    Thread-safe: ``execute`` may be called from many threads (the serve
    front end runs one executor thread per worker); each call checks a
    worker out of the free queue for the duration of the job, including
    retries and replacement after a crash.

    ``faults`` is a spec string for :class:`~repro.core.faults.FaultPlan`
    (default: the ``REPRO_GRADUAL_FAULTS`` environment variable).  The
    coordinator draws ``worker_kill`` per dispatch; the spec is also
    installed inside every worker (per-slot salt) for the compile-path
    hooks.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    the ``serve.worker.*`` counters and the ``serve.inflight`` gauges;
    updates are lock-guarded, so one registry can serve the whole server.
    """

    def __init__(
        self,
        size: int = 1,
        *,
        faults: str | None = None,
        seed: int | None = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        grace_s: float = DEFAULT_GRACE_S,
        max_requests: int = 0,
        max_rss_mb: int = 0,
        metrics=None,
        poll_interval_s: float = 0.02,
    ) -> None:
        from ..core.faults import _env_seed

        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if faults is None:
            faults = os.environ.get(FAULTS_ENV, "")
        self.size = size
        self.retries = retries
        self.backoff_s = backoff_s
        self.grace_s = grace_s
        self.max_requests = max_requests
        self.max_rss_kb = max_rss_mb * 1024
        self.metrics = metrics
        self.poll_interval_s = poll_interval_s
        self._faults_spec = faults
        self._seed = seed if seed is not None else _env_seed()
        self._plan = (
            FaultPlan.from_spec(faults, seed=self._seed, salt="pool")
            if faults.strip()
            else None
        )
        self._lock = threading.Lock()
        #: Shared with the serving front end: every update of ``metrics``
        #: (which is not itself thread-safe) happens under this one lock.
        self.metrics_lock = self._lock
        self._closed = False
        self._inflight = 0
        self.counters: dict[str, int] = {
            "served": 0, "crashes": 0, "retries": 0, "recycled": 0,
            "lost": 0, "deadline_kills": 0,
        }
        self._free: queue.Queue[_Worker] = queue.Queue()
        self._workers: list[_Worker] = []
        for slot in range(size):
            worker = _Worker(slot, self._faults_spec, self._seed)
            self._workers.append(worker)
            self._free.put(worker)

    # -- bookkeeping --------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n
            if self.metrics is not None:
                self.metrics.counter(f"serve.worker.{name}").inc(n)

    def _track_inflight(self, delta: int) -> None:
        with self._lock:
            self._inflight += delta
            if self.metrics is not None:
                self.metrics.gauge("serve.inflight").set(self._inflight)
                self.metrics.gauge("serve.inflight.high").high(self._inflight)

    def _replace(self, worker: _Worker, *, force: bool) -> _Worker:
        """Retire or kill ``worker`` and return a fresh one in its slot."""
        if force:
            worker.kill()
        else:
            worker.retire()
        fresh = _Worker(worker.slot, self._faults_spec, self._seed)
        with self._lock:
            self._workers[self._workers.index(worker)] = fresh
        return fresh

    # -- the job loop -------------------------------------------------------

    def _await_result(self, worker: _Worker, hard_deadline: float | None):
        """Poll for one result; ``_CRASHED``/``_HUNG`` on failure."""
        start = time.monotonic()
        while True:
            if hard_deadline is not None:
                remaining = hard_deadline - (time.monotonic() - start)
                if remaining <= 0:
                    return _HUNG
                interval = min(self.poll_interval_s, remaining)
            else:
                interval = self.poll_interval_s
            try:
                if worker.conn.poll(interval):
                    return worker.conn.recv()
            except (EOFError, OSError):
                return _CRASHED
            if not worker.process.is_alive():
                # Drain a result sent in the instant before death.
                try:
                    if worker.conn.poll(0):
                        return worker.conn.recv()
                except (EOFError, OSError):
                    pass
                return _CRASHED

    def execute(self, job: dict) -> dict:
        """Run one job to exactly one terminal result dict.

        Crash → at-most-``retries`` re-dispatches (exponential backoff),
        then an ``error`` result with ``"reason": "worker-lost"``.  A
        worker silent past ``deadline_s + grace_s`` is killed and the job
        reported as ``timeout`` (a hang is not retried: it would hang
        again).
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        deadline_s = job.get("deadline_s")
        hard_deadline = None if deadline_s is None else deadline_s + self.grace_s
        worker = self._free.get()
        self._track_inflight(1)
        attempts = 0
        try:
            while True:
                attempts += 1
                dispatch = job
                if self._plan is not None and self._plan.fires("worker_kill"):
                    dispatch = {**job, _KILL_FLAG: True}
                crashed = False
                try:
                    worker.conn.send(dispatch)
                except (BrokenPipeError, OSError):
                    crashed = True
                result = self._await_result(worker, hard_deadline) if not crashed else _CRASHED
                if result is _HUNG:
                    self._count("deadline_kills")
                    worker = self._replace(worker, force=True)
                    self._count("served")
                    return {
                        "kind": "timeout",
                        "reason": "deadline",
                        "deadline_s": deadline_s,
                        "steps": 0,
                        "max_pending_mediators": 0,
                        "attempts": attempts,
                        **({"program": job["program"]} if "program" in job else {}),
                    }
                if result is _CRASHED:
                    self._count("crashes")
                    worker = self._replace(worker, force=True)
                    if attempts > self.retries:
                        self._count("lost")
                        self._count("served")
                        return {
                            "kind": "error",
                            "error": (
                                f"worker lost: crashed on all {attempts} "
                                "dispatch attempts"
                            ),
                            "reason": "worker-lost",
                            "attempts": attempts,
                            **({"program": job["program"]} if "program" in job else {}),
                        }
                    self._count("retries")
                    time.sleep(self.backoff_s * (2 ** (attempts - 1)))
                    continue
                worker.served = result.pop("served", worker.served + 1)
                rss_kb = result.pop("rss_kb", 0)
                if attempts > 1:
                    result["attempts"] = attempts
                if (self.max_requests and worker.served >= self.max_requests) or (
                    self.max_rss_kb and rss_kb > self.max_rss_kb
                ):
                    self._count("recycled")
                    worker = self._replace(worker, force=False)
                self._count("served")
                return result
        finally:
            self._track_inflight(-1)
            self._free.put(worker)

    # -- lifecycle ----------------------------------------------------------

    def info(self) -> dict:
        """JSON-ready pool statistics (the ``stats`` request's ``pool``)."""
        with self._lock:
            alive = sum(1 for w in self._workers if w.process.is_alive())
            return {"size": self.size, "alive": alive, **self.counters}

    def kill_all(self) -> None:
        """SIGKILL every worker immediately — the force-exit path, where
        orphaned workers must not outlive the server (they hold its stdio
        pipes open, among other things)."""
        self._closed = True
        for worker in list(self._workers):
            try:
                worker.process.kill()
            except (OSError, ValueError):
                pass

    def shutdown(self) -> None:
        """Retire every worker.  Callers must have drained in-flight jobs."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.retire()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
