"""The persistent worker pool: warm workers, crash recovery, recycling.

This is the execution substrate behind ``repro-gradual serve`` (and the
multi-worker path of ``repro-gradual batch``).  Each worker is a long-lived
process holding the state that makes requests cheap the second time:

* the interned type/coercion/labeled-type/threesome/transient tables and
  the memoised ``#``/``∘`` composition caches (process-global, so they
  warm automatically as requests flow);
* the serialize layer's decode memo (re-interning a cached image is a
  dictionary lookup per node after the first load);
* a :class:`WorkerMemo` of three bounded memos: hot deserialized
  images, so a repeated ``(source, semantics, opt level, IR)`` skips even
  the image decode; lowered programs (the semantics-independent code
  :func:`~repro.compiler.lower.lower_term` makes of the elaborated λB
  term, with the static type), so a source already compiled under one
  semantics is only mapped to the next semantics, optimized and run; and
  parsed lines, so a new source has only the lines the worker has not
  seen lexed and parsed.

The robustness contract, which the chaos tests hold the pool to:

* **Every job gets exactly one terminal result.**  A worker crash
  (detected via pipe EOF / process death) swaps the pre-forked spare
  worker into the crashed worker's place and re-dispatches the job at
  once; a job that crashes again backs off (``backoff_s``, doubling)
  before each further attempt.  Past ``retries`` re-dispatches the job
  fails as an ``error`` result with ``"reason": "worker-lost"`` — never
  silently dropped, never hung (the failure mode of a bare
  ``multiprocessing.Pool``, whose ``imap_unordered`` waits forever for a
  SIGKILLed worker's task).
* **Deadlines are cooperative first, forceful second.**  The worker arms
  ``SIGALRM`` for the job's ``deadline_s`` and turns expiry into a
  ``timeout`` result (exit-3 semantics preserved, worker survives with its
  warm tables).  If the worker stays silent past ``deadline_s + grace_s``
  the parent kills it and swaps in the spare, still reporting ``timeout``.
* **Workers are recycled, not leaked.**  After ``max_requests`` jobs or
  when the worker's RSS exceeds ``max_rss_mb``, the parent retires it
  gracefully and swaps in the spare, whose warm state re-seeds from the
  on-disk compile cache on first touch.
* **Recovery stays off the request path.**  A swap never forks: the next
  spare is forked after the following dispatch (for a crash, after the
  retry is on its way), and a stopped worker is reaped once its sentinel
  shows it has exited, never by waiting for it.
* **Faults are injected deterministically.**  The coordinator draws
  ``worker_kill`` per dispatch from its own seeded stream (so a kill
  scoped ``worker_kill:1.0:1`` fires on exactly one dispatch and the retry
  survives); workers install the same spec with a per-slot salt, which
  arms the ``slow_compile``/``torn_write`` hooks inside the compile cache
  and the image writer.

A job is waited for in one of two ways, and only the waiting differs
between them.  The blocking :meth:`WorkerPool.execute` (batch and the
experiment, from any number of threads) reads the reply straight off the
worker's pipe, whose EOF signals a crash, or, for a job with a deadline,
waits on ``multiprocessing.connection.wait`` for the pipe or the process
sentinel until the hard deadline.  :meth:`WorkerPool.checkout` and
:meth:`WorkerPool.run` (the serve front end) wait on the server's event
loop: an ``add_reader`` callback on the worker's pipe or process sentinel
completes a future, and a ``call_later`` timer enforces the hard deadline.
Every decision — retry, backoff, timeout, recycle — is made in
:meth:`WorkerPool._job`, which both ways step.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager

from ..api import VM_ENGINES
from ..core.errors import UsageError
from ..core.faults import FAULTS_ENV, FaultPlan

#: How workers announce crash-simulation compliance (never seen by callers;
#: the parent only ever observes the SIGKILL).
_KILL_FLAG = "_kill"

#: What a wait yields instead of a reply: the worker died, or it stayed
#: silent past the job's hard deadline.
_CRASHED = object()
_HUNG = object()

#: Default wall-clock grace beyond a job's deadline before the parent
#: declares the worker hung and replaces it.
DEFAULT_GRACE_S = 5.0

#: Hot deserialized images kept per worker (least-recently-used eviction).
_IMAGE_MEMO_CAP = 64

#: Lowered programs kept per worker (least-recently-used eviction).
_FRONT_END_MEMO_CAP = 32

#: Held while a worker is forked (see :class:`_Worker`).
_FORKING = threading.Lock()


class _DeadlineExceeded(BaseException):
    """Raised inside a worker by the SIGALRM handler at the job deadline.  A
    ``BaseException``, so that no ``except Exception`` on the job's path
    swallows it before the worker loop reports the ``timeout``."""


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


class WorkerMemo:
    """A worker's memos.  The first two are least-recently-used: ``images``
    maps ``(source_hash, semantics, opt_level, ir)`` to a loaded image, and
    ``front_ends`` maps ``source_hash`` to ``(lowered program, static
    type)``: the :func:`~repro.compiler.lower.lower_term` lowering of the
    λB term :func:`~repro.surface.interp.compile_source` returned, and that
    term's type.  No semantics changes either, so every semantics, level
    and IR shares the entry, and compiling from it never modifies it.
    ``lines`` maps ``(line number, line text)`` to what that line parses
    to (:func:`~repro.surface.parser.memoized_program`, cleared when full),
    so a source that differs from earlier ones in a few lines has only
    those lexed and parsed."""

    __slots__ = ("images", "front_ends", "lines")

    def __init__(self) -> None:
        self.images: dict = {}
        self.front_ends: dict = {}
        self.lines: dict = {}


def _recall(memo: dict, key):
    """``memo[key]`` made the most recently used entry, or ``None``."""
    value = memo.pop(key, None)
    if value is not None:
        memo[key] = value
    return value


def _remember(memo: dict, key, value, cap: int):
    """Store ``memo[key]``, first evicting the least recently used entry
    when ``memo`` holds ``cap``; returns the evicted value, or ``None``."""
    evicted = memo.pop(next(iter(memo))) if len(memo) >= cap else None
    memo[key] = value
    return evicted


def _obtain_image(job: dict, memo: WorkerMemo):
    """The image for a pool job, through memo → cache → compile.

    Returns ``(LoadedImage, cache_status)`` where status is ``"warm"``
    (worker-resident), ``"hit"``/``"miss"``/``"recovered"`` (compile
    cache), or ``"off"`` (caching disabled).  A compile takes the lowered
    program from ``memo.front_ends`` when the job carries source this
    worker has compiled before, under any semantics; a job that carries
    only a hash never consults it.  Raises ``ReproError`` for front-end
    failures (never memoized) and unknown hashes.
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
    image = _recall(memo.images, key)
    if image is not None:
        return image, "warm"

    def front_end():
        if source is None:
            raise ReproError(
                f"source_hash {source_hash[:12]}… is not in the compile cache "
                "and the request carried no source"
            )
        found = _recall(memo.front_ends, source_hash)
        if found is None:
            from ..compiler.lower import lower_term

            term, static_type = compile_source(source, lines=memo.lines)
            found = (lower_term(term), static_type)
            evicted = _remember(memo.front_ends, source_hash, found, _FRONT_END_MEMO_CAP)
            if evicted is not None:
                _unlink(evicted[0].pool)
        return found

    if job.get("use_cache", True):
        found = cached_compile_source(source_hash, front_end, semantics, opt_level,
                                      job.get("cache_dir"), ir)
        image, status = found.image, found.status
    else:
        lowered, ty = front_end()
        image = compile_image(lowered, source_hash, ty, semantics, opt_level, ir)
        status = "off"

    evicted = _remember(memo.images, key, image, _IMAGE_MEMO_CAP)
    if evicted is not None:
        _unlink(evicted.code.pool)
    return image, status


def _unlink(pool) -> None:
    """Drop a program the worker memo evicted.  Its pool and code objects
    reference each other; unlinking them lets the program be freed now
    rather than at the next full garbage collection."""
    pool.codes.clear()
    pool.rcodes.clear()


def pool_job(config, source: str | None = None, *, source_hash: str | None = None,
             deadline_s: float | None = None, program: str | None = None) -> dict:
    """The job :func:`handle_job` runs for ``config``, a resolved
    :class:`~repro.api.RunConfig`: ``source`` text or the ``source_hash`` of
    a compiled program (see :func:`_obtain_image`), the cooperative
    ``deadline_s``, and the ``program`` name its record repeats.  Workers
    run compiled code only: an engine not in :data:`~repro.api.VM_ENGINES`
    is a :class:`~repro.core.errors.UsageError` here, before any work."""
    if config.engine not in VM_ENGINES:
        raise UsageError(f"unknown engine {config.engine!r} for the worker pool; "
                         f"expected one of {VM_ENGINES}")
    job = {"source": source, "source_hash": source_hash, "engine": config.engine,
           "semantics": config.semantics, "opt_level": config.opt_level, "fuel": config.fuel,
           "deadline_s": deadline_s, "use_cache": config.cache, "cache_dir": config.cache_dir}
    if program is not None:
        job["program"] = program
    return job


def handle_job(job: dict, memo: WorkerMemo) -> dict:
    """One job (see :func:`pool_job`) to one JSON-ready record, which serve
    and ``batch`` write as it is: what a worker does with each job, and what
    the batch runner's inline mode does in-process.  ``memo`` is the
    worker's :class:`WorkerMemo`.

    The record is :meth:`~repro.api.RunResult.describe`'s, or
    :func:`~repro.api.error_record`'s for any exception the job raises, plus
    the ``cache`` status (``None`` without an image), ``compile_s`` (to the
    image, or to the error that stopped the compile) and, once the run
    began, ``run_s``.  Only :class:`_DeadlineExceeded` passes through, for
    the worker loop to report.
    """
    from ..api import error_record, run_image

    started = time.perf_counter()
    timings: dict = {"cache": None}
    try:
        with _deadline(job.get("deadline_s")):
            try:
                image, timings["cache"] = _obtain_image(job, memo)
            finally:
                loaded = time.perf_counter()
                timings["compile_s"] = loaded - started
            try:
                result = run_image(image, job.get("fuel"))
            finally:
                timings["run_s"] = time.perf_counter() - loaded
            record = result.describe()
    except Exception as exc:
        record = error_record(exc)
    record.update(timings)
    return record


def _deadline_record(job: dict) -> dict:
    """The record of a job stopped at its deadline: by the worker's alarm,
    or by the parent when the worker stays silent past its grace."""
    return {"kind": "timeout", "reason": "deadline", "deadline_s": job.get("deadline_s"),
            "steps": 0, "max_pending_mediators": 0}


def _worker_main(conn, parent_end, slot: int, faults_spec: str, seed: int) -> None:
    """The worker process loop: recv a job, send exactly one result.

    ``parent_end`` is the fork's copy of the parent's end of the pipe.  It
    is closed first, so that once the parent dies (even by SIGKILL) no
    process but younger workers holds that end open, and ``recv`` sees EOF
    when the last of them exits: the workers exit in a cascade, newest
    first."""
    from ..core.faults import set_plan

    parent_end.close()

    set_plan(
        FaultPlan.from_spec(faults_spec, seed=seed, salt=f"worker{slot}")
        if faults_spec.strip()
        else None
    )
    memo = WorkerMemo()
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
            result = _deadline_record(job)
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

    __slots__ = ("process", "conn", "served")

    def __init__(self, slot: int, faults_spec: str, seed: int):
        import multiprocessing

        # One fork at a time in this process, so no other worker is forked
        # while this one's end of the pipe is open here.
        with _FORKING:
            parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
            self.conn = parent_conn
            self.served = 0
            self.process = multiprocessing.Process(
                target=_worker_main,
                args=(child_conn, parent_conn, slot, faults_spec, seed),
                daemon=True,
                name=f"repro-serve-worker-{slot}",
            )
            self.process.start()
            child_conn.close()

    def stop(self, *, force: bool) -> None:
        """SIGKILL the process (``force``) or send it the shutdown sentinel,
        and close the pipe.  Never waits: the pool reaps the process."""
        if force:
            self.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass


def _reply(worker: _Worker, conn_ready: bool):
    """What a worker whose pipe (``conn_ready``) or else sentinel is ready
    has to say: its result, or ``_CRASHED`` when the pipe is at EOF or the
    process exited without sending one."""
    try:
        if conn_ready or worker.conn.poll():
            return worker.conn.recv()
    except (EOFError, OSError):
        pass
    return _CRASHED


def _wait_reply(worker: _Worker, timeout: float | None):
    """Block until ``worker`` replies or exits; ``_HUNG`` after ``timeout``.

    Without a timeout this is one blocking read of the pipe: no process but
    the worker holds the worker's end (the parent closes its copy before any
    other worker is forked), so the pipe reaches EOF when the worker dies."""
    from multiprocessing.connection import wait

    if timeout is None:
        try:
            return worker.conn.recv()
        except (EOFError, OSError):
            return _CRASHED
    ready = wait([worker.conn, worker.process.sentinel], timeout)
    if not ready:
        return _HUNG
    return _reply(worker, worker.conn in ready)


def _reply_future(worker: _Worker, timeout: float | None) -> asyncio.Future:
    """A future the running loop completes with ``worker``'s reply, from an
    ``add_reader`` callback on its pipe or its sentinel, or with ``_HUNG``
    from a ``call_later`` timer after ``timeout`` seconds."""
    import asyncio

    loop = asyncio.get_running_loop()
    future = loop.create_future()
    conn_fd, sentinel = worker.conn.fileno(), worker.process.sentinel

    def settle(conn_ready: bool | None) -> None:
        loop.remove_reader(conn_fd)
        loop.remove_reader(sentinel)
        if timer is not None:
            timer.cancel()
        if not future.done():
            future.set_result(_HUNG if conn_ready is None else _reply(worker, conn_ready))

    timer = None if timeout is None else loop.call_later(timeout, settle, None)
    loop.add_reader(conn_fd, settle, True)
    loop.add_reader(sentinel, settle, False)
    return future


class WorkerPool:
    """A fixed-size pool of persistent workers with crash recovery.

    ``size`` workers serve jobs and one more waits as the spare that a
    crash, a hard-deadline kill or a recycle swaps in.  A pool is driven
    one of two ways, never both: :meth:`execute` blocks the calling thread
    and may be called from many threads at once (batch and the
    experiment); :meth:`checkout` and :meth:`run` wait on one asyncio event
    loop (the serve front end).

    While a pool is alive, its process must fork no other process that
    outlives the fork (``os.fork``, a fork-context
    ``multiprocessing.Process``; a ``subprocess`` that execs is fine).
    Such a fork, made while a worker is being started, keeps a copy of
    that worker's end of its pipe, and :meth:`execute` then never sees the
    pipe reach EOF when the worker dies.  Batch and the experiment fork
    nothing else.

    ``faults`` is a spec string for :class:`~repro.core.faults.FaultPlan`
    (default: the ``REPRO_GRADUAL_FAULTS`` environment variable).  The
    coordinator draws ``worker_kill`` per dispatch; the spec is also
    installed inside every worker (per-slot salt) for the compile-path
    hooks.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    the ``serve.worker.*`` counters and the ``serve.inflight`` gauges from
    whichever thread drives the job; the serve front end drives every job
    on its loop, so it shares the registry without a lock.
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
        self._faults_spec = faults
        self._seed = seed if seed is not None else _env_seed()
        self._plan = (
            FaultPlan.from_spec(faults, seed=self._seed, salt="pool")
            if faults.strip()
            else None
        )
        self._lock = threading.Lock()
        self._closed = False
        self._inflight = 0
        self.counters: dict[str, int] = {
            "served": 0, "crashes": 0, "retries": 0, "recycled": 0,
            "lost": 0, "deadline_kills": 0,
        }
        self._free: queue.Queue[_Worker] = queue.Queue()
        #: Loop futures waiting in :meth:`checkout`, served first on checkin.
        self._waiters: deque[asyncio.Future] = deque()
        self._workers = [self._fork(slot) for slot in range(size)]
        for worker in self._workers:
            self._free.put(worker)
        self._spare: _Worker | None = self._fork(size)
        #: Stopped workers whose processes have not been reaped yet.
        self._stopped: list[_Worker] = []

    def _fork(self, slot: int) -> _Worker:
        return _Worker(slot, self._faults_spec, self._seed)

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

    def _swap(self, worker: _Worker, *, force: bool) -> _Worker:
        """Stop ``worker`` and put the spare in its place (a fresh fork only
        when the spare is already in use); returns the worker now there."""
        worker.stop(force=force)
        with self._lock:
            fresh, self._spare = self._spare, None
            if fresh is None:
                fresh = self._fork(self.size)
            self._workers[self._workers.index(worker)] = fresh
            self._stopped.append(worker)
        return fresh

    def _restock(self) -> None:
        """Fork a new spare if the last one was swapped in, and reap the
        stopped workers that have exited, waiting on none of them."""
        if self._spare is not None:
            return
        from multiprocessing.connection import wait

        with self._lock:
            if self._spare is None and not self._closed:
                self._spare = self._fork(self.size)
            exited = wait([worker.process.sentinel for worker in self._stopped], 0)
            for worker in [w for w in self._stopped if w.process.sentinel in exited]:
                worker.process.join()  # its sentinel is ready: this returns at once
                self._stopped.remove(worker)

    def _checkin(self, worker: _Worker) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._free.put(worker)

    # -- the job: every decision, however the caller waits ------------------

    def _job(self, job: dict, worker: _Worker):
        """Run ``job`` on the checked-out ``worker`` to exactly one terminal
        result, then check the worker it ended on back in.

        A generator that :meth:`execute` and :meth:`run` step.  It yields
        ``(worker, timeout)`` when it needs that worker's reply (the caller
        sends back the result dict, ``_CRASHED``, or ``_HUNG`` once
        ``timeout`` seconds pass) and ``(None, seconds)`` to back off; it
        returns the result.

        A crash swaps in the spare and retries at once; a job that crashes
        again backs off (``backoff_s``, doubling) before each further
        attempt, and after ``retries`` re-dispatches fails as an ``error``
        result with ``"reason": "worker-lost"``.  A worker silent past
        ``deadline_s + grace_s`` is killed and the job reported as
        ``timeout`` (a hang is not retried: it would hang again).
        """
        deadline_s = job.get("deadline_s")
        hard_s = None if deadline_s is None else deadline_s + self.grace_s
        self._track_inflight(1)
        attempts = 0
        try:
            while True:
                attempts += 1
                dispatch = job
                if self._plan is not None and self._plan.fires("worker_kill"):
                    dispatch = {**job, _KILL_FLAG: True}
                try:
                    worker.conn.send(dispatch)
                except (BrokenPipeError, OSError):
                    reply = _CRASHED
                else:
                    self._restock()
                    reply = yield worker, hard_s
                if reply is _HUNG:
                    self._count("deadline_kills")
                    worker = self._swap(worker, force=True)
                    reply = {**_deadline_record(job), "attempts": attempts}
                elif reply is _CRASHED:
                    self._count("crashes")
                    worker = self._swap(worker, force=True)
                    if attempts <= self.retries:
                        self._count("retries")
                        if attempts > 1:
                            yield None, self.backoff_s * 2 ** (attempts - 2)
                        continue
                    self._count("lost")
                    reply = {
                        "kind": "error",
                        "error": f"worker lost: crashed on all {attempts} dispatch attempts",
                        "reason": "worker-lost",
                        "attempts": attempts,
                    }
                else:
                    worker.served = reply.pop("served", worker.served + 1)
                    rss_kb = reply.pop("rss_kb", 0)
                    if attempts > 1:
                        reply["attempts"] = attempts
                    if (self.max_requests and worker.served >= self.max_requests) or (
                        self.max_rss_kb and rss_kb > self.max_rss_kb
                    ):
                        self._count("recycled")
                        worker = self._swap(worker, force=False)
                if "program" in job:
                    reply["program"] = job["program"]
                self._count("served")
                return reply
        finally:
            self._track_inflight(-1)
            self._checkin(worker)

    # -- the two ways to wait ----------------------------------------------

    def execute(self, job: dict) -> dict:
        """Run one job to exactly one terminal result dict, blocking the
        calling thread until a worker is free and has replied (see
        :meth:`_job` for the retry, timeout and recycle rules).

        A job without a ``deadline_s`` is read straight off the worker's
        pipe, and only the pipe's EOF shows that the worker died: the
        process must not fork outside the pool while it is alive (see
        :class:`WorkerPool`), or such a crash blocks this call for good."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        steps = self._job(job, self._free.get())
        reply = None
        try:
            while True:
                worker, seconds = steps.send(reply)
                if worker is None:
                    time.sleep(seconds)
                    reply = None
                else:
                    reply = _wait_reply(worker, seconds)
        except StopIteration as done:
            return done.value

    async def checkout(self) -> _Worker:
        """An idle worker for :meth:`run`, waiting on the running loop until
        one is checked back in if none is idle."""
        import asyncio

        if self._closed:
            raise RuntimeError("worker pool is shut down")
        try:
            return self._free.get_nowait()
        except queue.Empty:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            return await waiter

    async def run(self, job: dict, worker: _Worker) -> dict:
        """:meth:`execute` on the running loop, for a ``worker`` from
        :meth:`checkout`: the same decisions, with every wait a loop future
        or timer, so the loop never blocks on a worker."""
        import asyncio

        steps = self._job(job, worker)
        reply = None
        try:
            while True:
                worker, seconds = steps.send(reply)
                if worker is None:
                    reply = await asyncio.sleep(seconds)
                else:
                    reply = await _reply_future(worker, seconds)
        except StopIteration as done:
            return done.value

    # -- lifecycle ----------------------------------------------------------

    def _all_workers(self) -> list[_Worker]:
        with self._lock:
            spare = [self._spare] if self._spare is not None else []
            return [*self._workers, *spare, *self._stopped]

    def info(self) -> dict:
        """JSON-ready pool statistics (the ``stats`` request's ``pool``):
        ``alive`` counts the serving workers, ``spare`` the ready spare."""
        with self._lock:
            alive = sum(1 for w in self._workers if w.process.is_alive())
            spare = int(self._spare is not None and self._spare.process.is_alive())
            return {"size": self.size, "alive": alive, "spare": spare, **self.counters}

    def kill_all(self) -> None:
        """SIGKILL every worker, the spare included, immediately — the
        force-exit path, where orphaned workers must not outlive the server
        (they hold its stdio pipes open, among other things)."""
        self._closed = True
        for worker in self._all_workers():
            worker.kill()

    def shutdown(self) -> None:
        """Retire every worker, the spare included.  Callers must have
        drained in-flight jobs."""
        if self._closed:
            return
        self._closed = True
        workers = self._all_workers()
        for worker in workers:
            worker.stop(force=False)
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.kill()
                worker.process.join(timeout=1.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
