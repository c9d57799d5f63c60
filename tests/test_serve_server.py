"""End-to-end tests for ``repro-gradual serve`` (:mod:`repro.serve.server`).

Each test starts a real server subprocess on a Unix socket (ephemeral TCP
for the TCP test), talks the newline-delimited JSON protocol through
:class:`~repro.serve.client.ServeClient`, and asserts on the process's
exit code.  Covered: request/response basics, parity with inline batch
results, warm-vs-cold caching, load shedding, chaos under injected faults,
and the graceful-drain contract (SIGTERM drains and exits 0; a second
SIGTERM force-exits 1).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient
from repro.serve.protocol import TERMINAL_KINDS

SRC = Path(__file__).resolve().parent.parent / "src"

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
IDENT = "((lambda ([x : int]) x) 42)\n"


def start_server(tmp_path, *extra_args, env_extra=None, tcp=False):
    """A serve subprocess, started and ready: ``(Popen, ready dict)``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if env_extra:
        env.update(env_extra)
    transport = (
        ["--port", "0"] if tcp else ["--socket", str(tmp_path / "serve.sock")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *transport, *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    assert line, proc.stderr.read()
    ready = json.loads(line)
    assert ready["event"] == "ready"
    return proc, ready


def stop(proc, client=None, expect=0):
    if client is not None:
        client.shutdown()
        client.close()
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == expect, err
    return out, err


class TestProtocol:
    def test_ping_stats_run_and_bad_requests(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        assert client.ping()["ok"] is True

        result = client.run(SQUARE, id="r1")
        assert (result["id"], result["kind"], result["value"]) == ("r1", "value", 36)
        assert result["type"] == "int"
        assert result["steps"] > 0 and "max_pending_mediators" in result
        assert result["cache"] == "miss" and "compile_s" in result and "run_s" in result

        # Malformed requests get error responses, never dropped connections.
        assert client.request({"op": "run", "id": "x"})["kind"] == "error"
        assert "source" in client.request({"op": "run", "id": "x"})["error"]
        assert client.request({"op": "nope"})["kind"] == "error"
        assert client.run(SQUARE, engine="cek")["kind"] == "error"
        assert client.run(SQUARE, semantics="nope")["kind"] == "error"
        legacy = client.run(SQUARE, mediator="threesome")
        assert legacy["kind"] == "error" and "'semantics'" in legacy["error"]
        assert client.run(SQUARE, opt_level=9)["kind"] == "error"
        assert client.run(SQUARE, fuel=-1)["kind"] == "error"
        assert client.run(SQUARE, deadline_s=0)["kind"] == "error"
        bad_line = client.request({"op": "run"})  # still JSON, missing source
        assert bad_line["kind"] == "error"

        stats = client.stats()
        assert stats["ok"] and stats["pool"]["size"] == 1
        assert stats["metrics"]["counters"]["serve.outcome.value"] == 1
        stop(proc, client)

    def test_tcp_transport(self, tmp_path):
        proc, ready = start_server(tmp_path, tcp=True)
        client = ServeClient.connect_tcp(ready["host"], ready["port"])
        assert client.run(IDENT)["value"] == 42
        stop(proc, client)

    def test_matches_inline_batch_results(self, tmp_path):
        """Served results are bit-identical to the batch runner's inline
        records (modulo timings and serving bookkeeping)."""
        from repro.batch import run_batch

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        programs = {"a.grad": SQUARE, "b.grad": BLAME, "c.grad": IDENT}
        for name, source in programs.items():
            (corpus / name).write_text(source)
        inline, _ = run_batch([corpus], workers=1)
        by_name = {Path(r["program"]).name: r for r in inline}

        proc, ready = start_server(tmp_path, "--workers", "2")
        client = ServeClient.from_ready(ready)
        volatile = {"program", "cache", "compile_s", "load_s", "run_s", "id",
                    "served", "rss_kb", "attempts"}
        for name, source in programs.items():
            served = client.run(source, id=name)
            expected = by_name[name]
            for record in (served, expected):
                for key in volatile:
                    record.pop(key, None)
            assert served == expected, name
        stop(proc, client)

    def test_warm_requests_skip_compilation(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        cold = client.run(SQUARE)
        warm = client.run(SQUARE)
        assert cold["cache"] == "miss" and warm["cache"] == "warm"
        assert (cold["kind"], cold["value"]) == (warm["kind"], warm["value"])
        # And by hash only — no source shipped at all.
        from repro.compiler.serialize import source_fingerprint

        hashed = client.request(
            {"op": "run", "source_hash": source_fingerprint(SQUARE)}
        )
        assert hashed["value"] == 36 and hashed["cache"] == "warm"
        stop(proc, client)

    def test_per_request_axes(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        assert client.run(SQUARE, engine="rvm")["value"] == 36
        # Erasure never blames; coercion does — per-request semantics.
        assert client.run(BLAME, semantics="coercion")["kind"] == "blame"
        assert client.run(BLAME, semantics="erasure")["kind"] == "value"
        assert client.run(SPIN, fuel=1000)["kind"] == "timeout"
        deadline = client.run(SPIN, fuel=10**12, deadline_s=0.2)
        assert deadline["kind"] == "timeout" and deadline["reason"] == "deadline"
        stop(proc, client)


class TestOverload:
    def test_queue_limit_sheds_with_overloaded(self, tmp_path):
        proc, ready = start_server(tmp_path, "--workers", "1", "--queue-limit", "1")
        slow = ServeClient.from_ready(ready)
        fast = ServeClient.from_ready(ready)
        # Occupy the only admission slot with a deadline-bounded spin…
        slow._sock.sendall(
            json.dumps({"op": "run", "source": SPIN, "fuel": 10**12,
                        "deadline_s": 1.5, "id": "slow"}).encode() + b"\n"
        )
        time.sleep(0.3)  # let it be admitted
        # …so a concurrent request is shed at admission, immediately.
        started = time.perf_counter()
        shed = fast.run(SQUARE, id="shed")
        assert time.perf_counter() - started < 1.0
        assert shed["kind"] == "overloaded" and shed["id"] == "shed"
        assert "queue full" in shed["error"]
        slow_result = json.loads(slow._reader.readline())
        assert slow_result["kind"] == "timeout"
        # With the slot free again, the same client is served.
        assert fast.run(SQUARE)["kind"] == "value"
        stats = fast.stats()
        assert stats["metrics"]["counters"]["serve.shed"] == 1
        assert stats["metrics"]["counters"]["serve.outcome.overloaded"] == 1
        stop(proc, fast)
        slow.close()


class TestChaos:
    def test_every_request_gets_exactly_one_terminal_response(self, tmp_path):
        """The acceptance property, over the wire: seeded worker kills,
        slow compiles, and torn writes; every request answered exactly
        once with a terminal kind; non-faulted responses match the
        fault-free expectation; the cache is clean after the drain."""
        from repro.compiler.cache import sweep_cache

        cache_dir = tmp_path / "chaos-cache"
        expected = {"sq": ("value", 36), "id": ("value", 42), "bl": ("blame", None)}
        sources = {"sq": SQUARE, "id": IDENT, "bl": BLAME}
        proc, ready = start_server(
            tmp_path, "--retries", "2",
            env_extra={
                "REPRO_GRADUAL_CACHE_DIR": str(cache_dir),
                "REPRO_GRADUAL_FAULTS": "worker_kill:0.25,slow_compile:0.3:3,torn_write:0.5:3",
                "REPRO_GRADUAL_FAULTS_SEED": "20150613",
            },
        )
        client = ServeClient.from_ready(ready)
        order = [name for _ in range(10) for name in ("sq", "id", "bl")]
        for index, name in enumerate(order):
            response = client.run(sources[name], id=f"{name}-{index}")
            assert response["id"] == f"{name}-{index}"
            assert response["kind"] in TERMINAL_KINDS
            if response["kind"] == "error":
                assert response["reason"] == "worker-lost"
            else:
                kind, value = expected[name]
                assert response["kind"] == kind
                if value is not None:
                    assert response["value"] == value
        stats = client.stats()
        assert stats["metrics"]["counters"]["serve.requests"] == len(order)
        stop(proc, client)  # graceful drain sweeps the cache…
        assert sweep_cache(cache_dir)[1] == 0  # …so nothing corrupt remains


class TestDrain:
    def test_sigterm_drains_inflight_and_exits_zero(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        client._sock.sendall(
            json.dumps({"op": "run", "source": SPIN, "fuel": 10**12,
                        "deadline_s": 1.0, "id": "inflight"}).encode() + b"\n"
        )
        time.sleep(0.3)  # in flight
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.1)
        # New connections are refused once draining…
        with pytest.raises(OSError):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(2.0)
            try:
                probe.connect(ready["socket"])
                probe.sendall(b'{"op": "ping"}\n')
                assert probe.recv(1024)  # either connect or first read fails
            finally:
                probe.close()
        # …but the in-flight request still completes with its real outcome.
        response = json.loads(client._reader.readline())
        assert response["id"] == "inflight" and response["kind"] == "timeout"
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        client.close()

    def test_requests_after_drain_starts_are_rejected(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        assert client.run(SQUARE)["kind"] == "value"
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.05)
        # The open connection survives long enough to learn it's draining.
        try:
            rejected = client.run(SQUARE)
            assert rejected["kind"] == "error"
            assert "draining" in rejected["error"]
        except (ConnectionError, OSError):
            pass  # the drain may close the idle connection first — also fine
        proc.communicate(timeout=30)
        assert proc.returncode == 0
        client.close()

    def test_second_sigterm_force_exits_nonzero(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        client._sock.sendall(
            json.dumps({"op": "run", "source": SPIN, "fuel": 10**12,
                        "deadline_s": 30, "id": "stuck"}).encode() + b"\n"
        )
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)  # drain waits on the slow request
        time.sleep(0.2)
        assert proc.poll() is None
        proc.send_signal(signal.SIGTERM)  # force
        proc.communicate(timeout=30)
        assert proc.returncode == 1
        client.close()

    def test_shutdown_op_drains_like_sigterm(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        assert client.run(SQUARE)["kind"] == "value"
        response = client.shutdown()
        assert response["ok"] and response["draining"]
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        client.close()
