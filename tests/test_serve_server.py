"""End-to-end tests for ``repro-gradual serve`` (:mod:`repro.serve.server`).

Most tests start a real server subprocess on a Unix socket (ephemeral TCP
for the TCP test), talk the newline-delimited JSON protocol through
:class:`~repro.serve.client.ServeClient`, and assert on the process's
exit code.  Covered: request/response basics, parity with inline batch
results, warm-vs-cold caching, load shedding, chaos under injected faults,
the graceful-drain contract (SIGTERM drains and exits 0; a second
SIGTERM force-exits 1), no worker outliving a SIGKILLed server, and
validation: out-of-range request fields and a ``source_hash`` that is not
the source's own are protocol errors (a property over arbitrary JSON),
and out-of-range settings stop ``serve`` at startup with exit 2.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import VM_ENGINES
from repro.compiler.serialize import source_fingerprint
from repro.semantics import SEMANTICS_NAMES
from repro.serve.client import ServeClient
from repro.serve.protocol import (MAX_DEADLINE_S, TERMINAL_KINDS, encode_line,
                                  normalize_run_request)
from repro.serve.server import MAX_LINE_BYTES

SRC = Path(__file__).resolve().parent.parent / "src"

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
IDENT = "((lambda ([x : int]) x) 42)\n"


#: Any JSON value a client could send, half of them on the edge of a check:
#: non-finite, bool, huge, negative or zero.
JSON_VALUES = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 1e308, 10**400, -(10**400), 2**63,
     True, False, None, 0, -1, 0.0, 86400, 86400.5, "", "vm"]
) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: Per request field: values it accepts.
REQUEST_FIELDS = {
    "source": st.just(SQUARE),
    "source_hash": st.just(source_fingerprint(SQUARE)),
    "engine": st.sampled_from(VM_ENGINES),
    "semantics": st.sampled_from(SEMANTICS_NAMES),
    "opt_level": st.sampled_from([0, 1, 2]),
    "fuel": st.integers(min_value=1),
    "deadline_s": st.floats(min_value=1e-3, max_value=MAX_DEADLINE_S),
}

SERVER_DEFAULTS = {
    "semantics": "coercion", "opt_level": 2, "engine": "vm", "fuel": None,
    "deadline_s": None, "cache_dir": None, "use_cache": True,
}


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

    def test_out_of_range_fields_never_reach_a_worker(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        assert client.run(SQUARE)["value"] == 36
        for bad in ({"deadline_s": float("nan")}, {"deadline_s": float("inf")},
                    {"deadline_s": 1e308}, {"deadline_s": True}, {"fuel": True}):
            response = client.run(SQUARE, id="bad", **bad)
            assert (response["id"], response["kind"]) == ("bad", "error"), bad
            assert "worker exception" not in response["error"], bad
        assert client.stats()["pool"]["served"] == 1
        # A null field is the server's default, and the job carries it.
        assert client.run(BLAME, semantics=None)["kind"] == "blame"
        assert client.stats()["pool"]["served"] == 2
        stop(proc, client)

    def test_source_hash_must_be_the_sources_own(self, tmp_path):
        """A ``source_hash`` that is another program's fingerprint is a
        protocol error that never reaches a worker; otherwise the worker
        would file this source under that program's memo and cache address."""
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        genuine = "(+ 40 2)"
        forged = client.request({"op": "run", "id": "forged", "source": "(+ 1 1)",
                                 "source_hash": source_fingerprint(genuine)})
        assert (forged["id"], forged["kind"]) == ("forged", "error")
        assert "source_hash" in forged["error"]
        assert client.stats()["pool"]["served"] == 0
        assert client.run(genuine)["value"] == 42
        by_hash = client.request({"op": "run", "source_hash": source_fingerprint(genuine)})
        assert by_hash["value"] == 42
        agreeing = client.run(genuine, source_hash=source_fingerprint(genuine))
        assert (agreeing["kind"], agreeing["value"]) == ("value", 42)
        assert client.stats()["pool"]["served"] == 3
        stop(proc, client)

    def test_stats_report_ipc_and_load(self, tmp_path):
        """``serve.ipc_s`` is observed once per dispatched run and
        ``serve.load_s`` once per disk-cache hit, from the responses'
        own ``compile_s``/``run_s``."""
        # Recycling after every job makes each repeat a disk-cache hit.
        proc, ready = start_server(tmp_path, "--max-requests", "1")
        client = ServeClient.from_ready(ready)
        responses = [client.run(source) for source in (SQUARE, SQUARE, IDENT, SQUARE, "(+ 1 #t)")]
        assert client.run(SQUARE, fuel=0)["kind"] == "error"  # rejected, not dispatched
        histograms = client.stats()["metrics"]["histograms"]
        hits = [r for r in responses if r.get("cache") == "hit"]
        assert [r["cache"] for r in responses[:4]] == ["miss", "hit", "miss", "hit"]
        assert histograms["serve.ipc_s"]["count"] == len(responses)
        assert histograms["serve.load_s"]["count"] == len(hits)
        assert histograms["serve.load_s"]["sum"] == pytest.approx(
            sum(r["compile_s"] for r in hits))
        worker_s = sum(r.get("compile_s", 0.0) + r.get("run_s", 0.0) for r in responses)
        latency = histograms["serve.latency_s"]["sum"]
        queue = histograms["serve.queue_s"]["sum"]
        assert histograms["serve.ipc_s"]["sum"] == pytest.approx(latency - queue - worker_s)
        assert histograms["serve.ipc_s"]["min"] >= 0
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


class TestRequestValidation:
    @settings(max_examples=400)
    @given(
        st.fixed_dictionaries({}, optional=REQUEST_FIELDS),
        st.dictionaries(st.sampled_from(sorted(REQUEST_FIELDS)), JSON_VALUES,
                        min_size=1, max_size=2),
    )
    def test_a_request_becomes_a_valid_job_or_a_value_error(self, accepted, arbitrary):
        """Accepted values with one or two fields replaced by arbitrary JSON."""
        try:
            job = normalize_run_request({**accepted, **arbitrary}, SERVER_DEFAULTS)
        except ValueError:
            return
        assert isinstance(job["source"], (str, type(None)))
        assert isinstance(job["source_hash"], (str, type(None)))
        assert (job["source"], job["source_hash"]) != (None, None)
        if None not in (job["source"], job["source_hash"]):
            assert source_fingerprint(job["source"]) == job["source_hash"]
        assert job["engine"] in VM_ENGINES
        assert job["semantics"] in SEMANTICS_NAMES
        assert type(job["opt_level"]) is int and job["opt_level"] in (0, 1, 2)
        assert job["fuel"] is None or (type(job["fuel"]) is int and job["fuel"] > 0)
        deadline = job["deadline_s"]
        assert deadline is None or (type(deadline) in (int, float) and 0 < deadline <= MAX_DEADLINE_S)


class TestStartupValidation:
    @pytest.mark.parametrize("flags", [
        ("--deadline", "nan"), ("--deadline", "-1"), ("--deadline", "inf"),
        ("--fuel", "0"), ("--workers", "0"), ("--queue-limit", "0"), ("--grace", "nan"),
    ])
    def test_bad_setting_is_one_error_line_and_exit_2(self, tmp_path, flags):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--socket",
             str(tmp_path / "serve.sock"), *flags],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert completed.returncode == 2, completed.stderr
        assert completed.stdout == ""
        lines = completed.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr


    @pytest.mark.parametrize("engine", ["machine", "subst"])
    def test_an_engine_the_pool_cannot_run_is_refused(self, engine):
        from repro.core.errors import UsageError
        from repro.serve.server import ServeConfig, Server

        with pytest.raises(UsageError, match="unknown engine"):
            Server(ServeConfig(engine=engine))


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
        order.insert(len(order) // 2, "long")  # one line past the line limit
        for index, name in enumerate(order):
            if name == "long":
                response = client.run(" " * MAX_LINE_BYTES + SQUARE, id="long")
                assert (response["id"], response["kind"]) == (None, "error")
                continue
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
        assert stats["metrics"]["counters"]["serve.requests"] == len(order) - 1
        stop(proc, client)  # graceful drain sweeps the cache…
        assert sweep_cache(cache_dir)[1] == 0  # …so nothing corrupt remains


class TestLongLines:
    def test_a_100kb_source_runs(self, tmp_path):
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        source = ";; " + "x" * 100_000 + "\n" + SQUARE
        assert client.run(source, id="big")["value"] == 36
        _, err = stop(proc, client)
        assert err == ""

    def test_over_limit_line_gets_one_error_and_the_connection_serves_on(self, tmp_path):
        """A 2 MiB line, with the next request pipelined behind it: one
        error for the long line, then the next request's own response."""
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        long_line = encode_line({"op": "run", "id": "long", "source": "x" * (2 << 20)})
        client._sock.sendall(long_line + encode_line({"op": "run", "id": "next", "source": SQUARE}))
        error = json.loads(client._reader.readline())
        assert (error["id"], error["kind"]) == (None, "error")
        assert f"longer than {MAX_LINE_BYTES} bytes" in error["error"]
        after = json.loads(client._reader.readline())
        assert (after["id"], after["kind"], after["value"]) == ("next", "value", 36)
        assert client.ping()["ok"] is True
        _, err = stop(proc, client)
        assert err == ""  # no traceback


class TestReadLoop:
    """``_read_line`` over a request stream split at arbitrary offsets: each
    line within the reader's limit comes back once and in order, each
    longer one is one ``None``, and the line after it is intact."""

    LIMIT = 16

    @settings(max_examples=150, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(max_size=3 * LIMIT).map(lambda data: data.replace(b"\n", b" ")),
            max_size=12,
        ),
        data=st.data(),
    )
    def test_lines_survive_arbitrary_chunking(self, payloads, data):
        import asyncio

        from repro.serve.server import _read_line

        stream = b"".join(payload + b"\n" for payload in payloads)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=20)))
        chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]

        async def read_all() -> list:
            reader = asyncio.StreamReader(limit=self.LIMIT)

            async def feed() -> None:
                for chunk in chunks:
                    reader.feed_data(chunk)
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.create_task(feed())
            lines = []
            while (line := await _read_line(reader)) != b"":
                lines.append(line)
            await feeder
            return lines

        expected = [payload + b"\n" if len(payload) <= self.LIMIT else None
                    for payload in payloads]
        assert asyncio.run(read_all()) == expected


class TestLongIntegers:
    def test_int_past_the_digit_limit_gets_one_response(self, tmp_path):
        """A 6,000-digit value is past CPython's 4,300-digit int→str limit:
        it comes back as one terminal response carrying its decimal string,
        and the connection stays usable."""
        from repro.core.ops import int_to_decimal

        long = "7" * 3000
        product = int_to_decimal(int(long) ** 2)
        proc, ready = start_server(tmp_path)
        client = ServeClient.from_ready(ready)
        for engine in ("vm", "rvm"):
            response = client.run(f"(* {long} {long})\n", id=engine, engine=engine)
            assert (response["id"], response["kind"]) == (engine, "value")
            assert (response["value"], response["type"]) == (product, "int")
            # The next line answers the next request: there was no second
            # response, and the connection is still open.
            pong = client.ping()
            assert pong["ok"] is True and "kind" not in pong
        assert client.run(SQUARE, id="after")["value"] == 36
        stop(proc, client)


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``, from Linux ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rpartition(")")[2].split()[1]) == pid:
                children.append(int(entry))
    return children


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie waiting for its new parent to
    reap it."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads Linux /proc")
class TestSigkill:
    def test_sigkilled_serve_leaves_no_worker_running(self, tmp_path):
        """Each worker closes its copy of the parent's pipe end, so when the
        server dies without a word its workers see EOF and exit, newest
        first."""
        proc, _ready = start_server(tmp_path, "--workers", "2")
        workers = _children(proc.pid)
        assert len(workers) == 3  # two workers and the spare
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        proc.stderr.close()
        deadline = time.monotonic() + 5.0
        running = workers
        while running and time.monotonic() < deadline:
            time.sleep(0.05)
            running = [pid for pid in workers if not _exited(pid)]
        for pid in running:  # leave no orphan behind, even when failing
            os.kill(pid, signal.SIGKILL)
        assert running == []


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
