"""Tests for the persistent worker pool (:mod:`repro.serve.pool`).

The pool is exercised directly (no server front end): warm-image reuse and
its least-recently-used eviction, the memo of lowered programs that every
semantics shares, crash detection and retry on the spare,
the ``worker-lost`` terminal error, cooperative deadlines, the hard
deadline both blocking and on an event loop, worker recycling,
and the chaos property — under seeded
``worker_kill``/``slow_compile``/``torn_write`` faults, every job gets
exactly one terminal result and non-faulted results match a fault-free run
bit for bit.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import sweep_cache
from repro.serve.pool import WorkerPool
from repro.serve.protocol import TERMINAL_KINDS

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
IDENT = "((lambda ([x : int]) x) 42)\n"

#: (source, expected kind, expected value) for the chaos property.
PROGRAMS = [
    (SQUARE, "value", 36),
    (IDENT, "value", 42),
    (BLAME, "blame", None),
]


def job(source: str, **overrides) -> dict:
    base = {
        "source": source,
        "source_hash": None,
        "engine": "vm",
        "semantics": "coercion",
        "opt_level": 2,
        "fuel": None,
        "deadline_s": None,
        "cache_dir": None,
        "use_cache": True,
    }
    base.update(overrides)
    return base


class TestWorkerPool:
    def test_run_source_and_warm_memo(self):
        with WorkerPool(1) as pool:
            first = pool.execute(job(SQUARE))
            assert (first["kind"], first["value"]) == ("value", 36)
            assert first["type"] == "int"
            assert first["cache"] == "miss"
            # Same worker, same source: served straight from the resident
            # image memo — no cache read, no compile.
            second = pool.execute(job(SQUARE))
            assert second["cache"] == "warm"
            assert second["value"] == 36

    def test_blame_and_fuel_timeout(self):
        with WorkerPool(1) as pool:
            blamed = pool.execute(job(BLAME))
            assert blamed["kind"] == "blame" and "blame" in blamed
            spun = pool.execute(job(SPIN, fuel=1000))
            assert spun["kind"] == "timeout"

    def test_rvm_engine(self):
        with WorkerPool(1) as pool:
            result = pool.execute(job(SQUARE, engine="rvm"))
            assert (result["kind"], result["value"]) == ("value", 36)

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    def test_corrupt_cache_entry_is_recovered(self, tmp_path, engine):
        from repro.api import IR_FOR_ENGINE
        from repro.compiler.cache import cache_path
        from repro.compiler.serialize import source_fingerprint

        cached = job(SQUARE, engine=engine, cache_dir=str(tmp_path))
        with WorkerPool(1) as pool:
            assert pool.execute(cached)["cache"] == "miss"
        entry = cache_path(source_fingerprint(SQUARE), 2, "coercion", tmp_path,
                           IR_FOR_ENGINE[engine])
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF  # break the CRC trailer
        entry.write_bytes(bytes(data))
        with WorkerPool(1) as pool:  # a fresh worker: no resident image
            result = pool.execute(cached)
        assert result["cache"] == "recovered"
        assert (result["kind"], result["value"]) == ("value", 36)

    def test_front_end_error_is_an_error_result(self):
        with WorkerPool(1) as pool:
            result = pool.execute(job("(+ 1 #t)"))
            assert result["kind"] == "error" and result["error"]

    def test_unknown_source_hash_is_an_error(self):
        with WorkerPool(1) as pool:
            result = pool.execute(job(None, source_hash="ab" * 32))
            assert result["kind"] == "error"
            assert "not in the compile cache" in result["error"]

    def test_source_hash_alone_hits_a_warm_cache(self, tmp_path):
        from repro.compiler.serialize import source_fingerprint

        with WorkerPool(1, max_requests=1) as pool:  # recycle between runs
            pool.execute(job(SQUARE, cache_dir=str(tmp_path)))
            # A fresh worker, no source shipped: the hash finds the entry.
            result = pool.execute(job(
                None,
                source_hash=source_fingerprint(SQUARE),
                cache_dir=str(tmp_path),
            ))
            assert (result["kind"], result["value"]) == ("value", 36)
            assert result["cache"] == "hit"

    def test_cooperative_deadline_preserves_worker(self):
        with WorkerPool(1) as pool:
            slow = pool.execute(job(SPIN, fuel=10**12, deadline_s=0.2))
            assert slow["kind"] == "timeout"
            assert slow["reason"] == "deadline"
            # The worker survived (no crash, no respawn) and still serves.
            after = pool.execute(job(SQUARE))
            assert after["value"] == 36
            info = pool.info()
            assert info["crashes"] == 0 and info["alive"] == 1

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched module")
    @pytest.mark.parametrize("waiting", ["blocking", "loop"])
    def test_silent_worker_is_killed_at_the_hard_deadline(self, monkeypatch, waiting):
        """With the cooperative deadline disarmed in the (forked) workers,
        only the parent's hard deadline ends the job: the worker is killed,
        the spare takes its place, and the job reports ``timeout``."""
        import repro.serve.pool as pool_module

        monkeypatch.setattr(pool_module, "_deadline", lambda _seconds: contextlib.nullcontext())
        jobs = [job(SPIN, fuel=10**12, deadline_s=0.1), job(SQUARE)]

        async def on_the_loop(pool):
            return [await pool.run(each, await pool.checkout()) for each in jobs]

        with WorkerPool(1, grace_s=0.1) as pool:
            if waiting == "blocking":
                hung, after = [pool.execute(each) for each in jobs]
            else:
                hung, after = asyncio.run(on_the_loop(pool))
            assert (hung["kind"], hung["reason"]) == ("timeout", "deadline")
            assert after["value"] == 36
            info = pool.info()
            assert (info["deadline_kills"], info["alive"], info["spare"]) == (1, 1, 1)

    def test_crash_is_retried_and_succeeds(self):
        with WorkerPool(1, faults="worker_kill:1.0:1", backoff_s=0.01) as pool:
            result = pool.execute(job(SQUARE))
            assert (result["kind"], result["value"]) == ("value", 36)
            assert result["attempts"] == 2
            info = pool.info()
            assert info["crashes"] == 1 and info["retries"] == 1
            assert info["lost"] == 0 and info["alive"] == 1

    def test_first_crash_is_retried_at_once_on_the_spare(self):
        """Backoff applies only when the same job crashes again: a single
        crash costs a swap to the pre-forked spare, not a 30 s sleep."""
        started = time.monotonic()
        with WorkerPool(1, faults="worker_kill:1.0:1", backoff_s=30) as pool:
            result = pool.execute(job(SQUARE))
            assert (result["kind"], result["value"], result["attempts"]) == ("value", 36, 2)
            assert time.monotonic() - started < 5.0
            # The retry went out first; then a new spare was forked.
            info = pool.info()
            assert (info["alive"], info["spare"], info["crashes"]) == (1, 1, 1)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched module")
    @pytest.mark.parametrize("retries", [2, 0])
    def test_worker_killed_mid_run_without_a_deadline(self, monkeypatch, retries):
        """A job without a deadline is read straight off the worker's pipe.
        A SIGKILL while the worker runs it ends that read at EOF: the job
        is retried on the spare, or with ``retries=0`` ends ``worker-lost``."""
        import signal
        from concurrent.futures import ThreadPoolExecutor

        import repro.serve.pool as pool_module

        started = multiprocessing.Event()
        handle_job = pool_module.handle_job

        def announcing(job, memo):
            started.set()
            return handle_job(job, memo)

        monkeypatch.setattr(pool_module, "handle_job", announcing)
        with WorkerPool(1, retries=retries, backoff_s=0.01) as pool, \
                ThreadPoolExecutor(1) as thread:
            victim = pool._workers[0].process.pid
            pending = thread.submit(pool.execute, job(SPIN, fuel=2 * 10**6))
            assert started.wait(30)
            os.kill(victim, signal.SIGKILL)
            result = pending.result(timeout=60)
            info = pool.info()
            assert pool._workers[0].process.pid != victim
        assert result["attempts"] == (2 if retries else 1)
        assert (info["crashes"], info["alive"]) == (1, 1)
        if retries:
            assert (result["kind"], info["retries"], info["lost"]) == ("timeout", 1, 0)
        else:
            assert (result["kind"], result["reason"]) == ("error", "worker-lost")
            assert (info["retries"], info["lost"]) == (0, 1)

    def test_worker_lost_after_retry_budget(self):
        with WorkerPool(1, faults="worker_kill:1.0", retries=1,
                        backoff_s=0.01) as pool:
            result = pool.execute(job(SQUARE))
            assert result["kind"] == "error"
            assert result["reason"] == "worker-lost"
            assert result["attempts"] == 2
            assert pool.info()["lost"] == 1
            # The pool itself survives its workers: faults keep firing, but
            # every subsequent job still gets a terminal result.
            again = pool.execute(job(SQUARE))
            assert again["reason"] == "worker-lost"

    def test_recycled_after_max_requests(self):
        with WorkerPool(1, max_requests=1) as pool:
            pool.execute(job(SQUARE))
            second = pool.execute(job(SQUARE))
            # The replacement worker has no resident image: it re-seeds
            # from the on-disk compile cache instead.
            assert second["cache"] == "hit"
            assert pool.info()["recycled"] >= 1

    def test_execute_after_shutdown_raises(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.execute(job(SQUARE))

    def test_faults_default_from_environment(self, monkeypatch):
        from repro.core.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "worker_kill:1.0:1")
        with WorkerPool(1, backoff_s=0.01) as pool:
            result = pool.execute(job(SQUARE))
            assert result["value"] == 36 and result["attempts"] == 2


class TestImageMemo:
    def test_memo_evicts_the_least_recently_used_image(self):
        """Fill the memo, touch its oldest entry, insert one more: the
        touched image stays warm and the next-oldest is the one evicted."""
        from repro.serve.pool import _IMAGE_MEMO_CAP, WorkerMemo, handle_job

        memo = WorkerMemo()

        def cache(index: int) -> str:
            return handle_job(job(f"(+ {index} 1)\n", use_cache=False), memo)["cache"]

        assert [cache(i) for i in range(_IMAGE_MEMO_CAP)] == ["off"] * _IMAGE_MEMO_CAP
        assert cache(0) == "warm"
        assert cache(_IMAGE_MEMO_CAP) == "off"
        assert len(memo.images) == _IMAGE_MEMO_CAP
        assert cache(0) == "warm"
        assert cache(1) == "off"


ALL_SEMANTICS = ("coercion", "threesome", "transient", "erasure")


@pytest.fixture
def front_end_calls(monkeypatch):
    """Count the worker's calls to ``compile_source`` (``_obtain_image``
    imports it from its module at each call)."""
    import repro.surface.interp as interp

    calls: list[str] = []
    original = interp.compile_source

    def counted(source, metrics=None):
        calls.append(source)
        return original(source, metrics)

    monkeypatch.setattr(interp, "compile_source", counted)
    return calls


@pytest.fixture
def lowerings(monkeypatch):
    """Count lowerings: ``lower_program`` calls (``lower_term`` and every
    compile path look it up in its module at each call)."""
    import repro.compiler.lower as lower

    calls: list = []
    original = lower.lower_program

    def counted(term, *args, **kwargs):
        calls.append(term)
        return original(term, *args, **kwargs)

    monkeypatch.setattr(lower, "lower_program", counted)
    return calls


class TestFrontEndMemo:
    """The worker's front-end memo: a source compiled under one semantics is
    only mapped to the next semantics, optimized and run under the others."""

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_one_front_end_for_every_semantics(self, front_end_calls, lowerings, engine,
                                               use_cache):
        from repro.compiler.bytecode import all_code_objects
        from repro.compiler.cache import compile_image
        from repro.compiler.lower import lower_term
        from repro.compiler.serialize import serialize_image
        from repro.serve.pool import WorkerMemo, handle_job
        from repro.surface.interp import compile_source

        memo = WorkerMemo()
        results = [handle_job(job(BLAME, semantics=name, engine=engine, use_cache=use_cache),
                              memo)
                   for name in ALL_SEMANTICS]
        assert front_end_calls == [BLAME]
        assert len(lowerings) == 1
        assert [r["cache"] for r in results] == ["miss" if use_cache else "off"] * 4

        def shape(code) -> list:
            return [(obj.name, obj.instructions, obj.n_locals) for obj in all_code_objects(code)]

        # Compiling from the memoized lowering left it as it was.
        (lowered, _), = memo.front_ends.values()
        fresh = lower_term(compile_source(BLAME)[0])
        assert shape(lowered) == shape(fresh)
        assert all(a is b for a, b in zip(lowered.pool.coercions, fresh.pool.coercions))
        outcome = ("kind", "value", "blame", "steps")
        for name, result in zip(ALL_SEMANTICS, results):
            fresh = handle_job(job(BLAME, semantics=name, engine=engine, use_cache=False),
                               WorkerMemo())
            assert {k: result.get(k) for k in outcome} == {k: fresh.get(k) for k in outcome}

        def image_bytes(image) -> bytes:
            info = image.info
            return serialize_image(image.code, info.source_hash, info.static_type, info.ir)

        ir = "register" if engine == "rvm" else "stack"
        assert len(memo.images) == len(ALL_SEMANTICS)
        for (source_hash, semantics, opt_level, _), image in memo.images.items():
            term, static_type = compile_source(BLAME)
            fresh = compile_image(term, source_hash, static_type, semantics, opt_level, ir)
            assert image_bytes(image) == image_bytes(fresh), semantics

    def test_memo_stays_within_its_cap(self, front_end_calls):
        from repro.serve.pool import _FRONT_END_MEMO_CAP, WorkerMemo, handle_job

        memo = WorkerMemo()
        for index in range(_FRONT_END_MEMO_CAP + 5):
            handle_job(job(f"(+ {index} 1)\n", use_cache=False), memo)
            assert len(memo.front_ends) <= _FRONT_END_MEMO_CAP
        assert len(memo.front_ends) == _FRONT_END_MEMO_CAP
        # The oldest sources were evicted: their front ends run again.
        handle_job(job("(+ 0 1)\n", semantics="erasure", use_cache=False), memo)
        assert front_end_calls.count("(+ 0 1)\n") == 2
        handle_job(job(f"(+ {_FRONT_END_MEMO_CAP + 4} 1)\n", semantics="erasure",
                       use_cache=False), memo)
        assert front_end_calls.count(f"(+ {_FRONT_END_MEMO_CAP + 4} 1)\n") == 1

    def test_an_evicted_program_is_freed_without_a_collection(self):
        import gc
        import weakref

        from repro.compiler.serialize import source_fingerprint
        from repro.serve.pool import _FRONT_END_MEMO_CAP, WorkerMemo, handle_job

        memo = WorkerMemo()
        sources = [f"((lambda ([x : int]) (+ x {index})) 1)\n"
                   for index in range(_FRONT_END_MEMO_CAP + 1)]
        handle_job(job(sources[0], use_cache=False), memo)
        (lowered, _), = memo.front_ends.values()
        assert lowered.pool.codes  # the closure's code object points back at the pool
        pool = weakref.ref(lowered.pool)
        del lowered
        gc.disable()
        try:
            for source in sources[1:]:
                handle_job(job(source, use_cache=False), memo)
            assert source_fingerprint(sources[0]) not in memo.front_ends
            assert pool() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    def test_an_evicted_image_is_freed_without_a_collection(self, engine):
        import gc
        import weakref

        from repro.serve.pool import _IMAGE_MEMO_CAP, WorkerMemo, handle_job

        memo = WorkerMemo()
        sources = [f"((lambda ([x : int]) (+ x {index})) 1)\n"
                   for index in range(_IMAGE_MEMO_CAP + 1)]
        handle_job(job(sources[0], engine=engine, use_cache=False), memo)
        image, = memo.images.values()
        # The closure's code object points back at the pool.
        assert image.code.pool.codes or image.code.pool.rcodes
        pool = weakref.ref(image.code.pool)
        del image
        gc.disable()
        try:
            for source in sources[1:]:
                handle_job(job(source, engine=engine, use_cache=False), memo)
            assert len(memo.images) == _IMAGE_MEMO_CAP
            assert pool() is None
        finally:
            gc.enable()

    def test_front_end_errors_are_not_memoized(self, front_end_calls):
        from repro.serve.pool import WorkerMemo, handle_job

        memo = WorkerMemo()
        first, second = (handle_job(job("(+ 1 #t)\n", semantics=name, use_cache=False), memo)
                         for name in ("coercion", "threesome"))
        assert first["kind"] == second["kind"] == "error"
        assert first["error"] == second["error"]
        assert len(front_end_calls) == 2
        assert memo.front_ends == {} and memo.images == {}

    def test_hash_only_job_never_consults_the_memo(self, front_end_calls):
        from repro.compiler.serialize import source_fingerprint
        from repro.serve.pool import WorkerMemo, handle_job

        memo = WorkerMemo()
        assert handle_job(job(SQUARE, use_cache=False), memo)["value"] == 36
        hashed = handle_job(job(None, source_hash=source_fingerprint(SQUARE),
                                semantics="threesome"), memo)
        assert hashed["kind"] == "error" and "no source" in hashed["error"]
        assert front_end_calls == [SQUARE]


class TestChaosProperty:
    """Under seeded faults: every job one terminal result, non-faulted
    results identical to a fault-free run, no corrupt cache entries left."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        kill=st.sampled_from([0.0, 0.3, 1.0]),
        picks=st.lists(st.integers(min_value=0, max_value=len(PROGRAMS) - 1),
                       min_size=1, max_size=6),
    )
    def test_every_job_gets_one_terminal_result(self, seed, kill, picks):
        cache_dir = os.environ["REPRO_GRADUAL_CACHE_DIR"]
        spec = f"worker_kill:{kill},slow_compile:0.3:2,torn_write:0.5:2"
        with WorkerPool(1, faults=spec, seed=seed, retries=2,
                        backoff_s=0.01) as pool:
            for index in picks:
                source, expected_kind, expected_value = PROGRAMS[index]
                result = pool.execute(job(source, cache_dir=cache_dir))
                assert result["kind"] in TERMINAL_KINDS
                if result["kind"] == "error":
                    # Only injected crashes produce errors for these programs.
                    assert result["reason"] == "worker-lost"
                else:
                    assert result["kind"] == expected_kind
                    if expected_value is not None:
                        assert result["value"] == expected_value
        # Whatever torn writes the run injected, a sweep leaves the cache
        # clean — and entries that survive all load.
        _kept, removed = sweep_cache(cache_dir)
        assert sweep_cache(cache_dir)[1] == 0
