"""``serve_mixed``: a closed loop against a live ``repro-gradual serve``.

The server is a subprocess on a Unix socket with an isolated cache
directory, ``--workers`` = the usable CPU count and every other flag at its
default.  One client process keeps one request in flight on each of
``--workers`` connections.  The seeded stream is skewed (Zipf over a hot set
larger than the workers' 64-image memos) and mixes three tiers: images
resident in a worker (``warm``), images loaded from the disk cache
(``hit``), and novel programs that compile and write an image (``miss``).
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from itertools import accumulate

from common import (ROOT, SRC, TIERS, WORK, BenchError, Timed, Tracer, corrupt, outcome_of_response,
                    outcome_of_result, timed_windows, usable_cpus, window_metrics)

WHY = ("the only workload where the serve layers (wire, queue, IPC) dominate: a "
       "skewed stream over worker-resident, disk-cache and novel programs")

SIZES = {
    "full": {"hot": 256, "novel_every": 20, "zipf": 1.0},
    "tiny": {"hot": 8, "novel_every": 5, "zipf": 1.0},
}

#: Seconds to wait for the ``ready`` line and for the drain on shutdown.
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30


class Server:
    """One ``repro-gradual serve`` subprocess in its own session."""

    def __init__(self, workers: int):
        self.root = WORK / f"serve-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        env = dict(os.environ, REPRO_GRADUAL_CACHE_DIR=str(self.root / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("REPRO_GRADUAL_FAULTS", None)
        # A relative socket path keeps it under the Unix socket length limit
        # however deep the checkout is.
        socket_path = os.path.relpath(self.root / "s.sock", ROOT)
        self.stderr = (self.root / "stderr.log").open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-W", "error::DeprecationWarning", "-m", "repro.cli", "serve",
             "--socket", socket_path, "--workers", str(workers)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.stderr,
            start_new_session=True,
        )
        readable, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else b""
        if not line:
            self.stop()
            raise BenchError("serve did not announce ready; see its stderr.log")
        self.ready = json.loads(line)
        self.ready["socket"] = os.path.relpath(ROOT / self.ready["socket"])

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient.from_ready(self.ready, timeout=START_TIMEOUT_S)

    def stop(self) -> None:
        """Drain through the protocol; kill the whole session if that fails."""
        try:
            if self.proc.poll() is None and hasattr(self, "ready"):
                with self.client() as client:
                    client.shutdown()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired, ConnectionError):
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self.proc.stdout.close()
            self.stderr.close()
            shutil.rmtree(self.root, ignore_errors=True)


def setup(seed: int, size: str) -> dict:
    """Start the server and request every hot program once, so the disk
    cache holds the hot set."""
    from repro.gen.surface_programs import generate_corpus

    programs = dict((path.name, path.read_text())
                    for path in sorted((ROOT / "examples" / "programs").glob("*.grad")))
    programs.update(generate_corpus(SIZES[size]["hot"], seed=seed))
    names = list(programs)
    random.Random(f"serve|{seed}").shuffle(names)
    server = Server(usable_cpus())
    try:
        with server.client() as client:
            for name in names:
                client.run(programs[name])
    except BaseException:
        server.stop()
        raise
    return {"seed": seed, "size": size, "programs": programs, "hot": names, "server": server}


def teardown(state: dict) -> None:
    state["server"].stop()


def reference(state: dict, corrupted: bool) -> dict:
    """Expected outcomes from the CEK machine under the server's default
    semantics."""
    from repro.api import RunConfig, run

    config = RunConfig(engine="machine")
    expected = {name: outcome_of_result(run(source, config))
                for name, source in state["programs"].items()}
    if corrupted:
        name = state["hot"][0]
        expected[name] = corrupt(expected[name])
    return expected


def _requests(state: dict, connection: int, phase: str):
    """The seeded request stream of one connection: ``(program, source)``.

    Requests draw Zipf over the hot set, except every ``novel_every``-th,
    which is a novel program: a hot program drawn uniformly, so the compile
    work does not hinge on which program the seed ranks first, with new
    text (a trailing comment, so the expected outcome and blame lines are
    unchanged)."""
    shape = SIZES[state["size"]]
    rng = random.Random(f"serve|{state['seed']}|{phase}|{connection}")
    hot = state["hot"]
    weights = list(accumulate(1.0 / (rank + 1) ** shape["zipf"] for rank in range(len(hot))))
    index = 0
    while True:
        index += 1
        if index % shape["novel_every"] == 0:
            name = rng.choice(hot)
            yield name, state["programs"][name] + f";; novel {phase}-{connection}-{index}\n"
        else:
            name = rng.choices(hot, cum_weights=weights)[0]
            yield name, state["programs"][name]


def closed_loop(state: dict, seconds: float, phase: str, tracer: Tracer | None = None) -> Timed:
    """One thread per connection, each sending its next request when the
    previous answer arrives, in timed windows: at each window's end the
    threads stop and the host-speed probe runs with the server idle.  A
    sample is ``(program, round trip s, response)``."""
    server = state["server"]
    connections = server.ready.get("workers", 1)
    streams = [_requests(state, connection, phase) for connection in range(connections)]
    errors: list = []
    clock = time.perf_counter

    def drive(client, stream, deadline: float, out: list) -> None:
        try:
            for name, source in stream:
                begin = clock()
                if tracer is None:
                    response = client.run(source)
                else:
                    with tracer.span("request", program=name) as span:
                        response = client.run(source)
                    span["compile_s"] = response.get("compile_s", 0.0)
                    span["run_s"] = response.get("run_s", 0.0)
                    span["cache"] = response.get("cache")
                end = clock()
                out.append((name, end - begin, response))
                if end >= deadline:
                    return
        except (OSError, ConnectionError) as exc:
            errors.append(repr(exc))

    with ExitStack() as stack:
        clients = [stack.enter_context(server.client()) for _ in range(connections)]

        def window(_index: int, deadline: float) -> list:
            outs: list = [[] for _ in clients]
            threads = [threading.Thread(target=drive, args=(client, stream, deadline, out))
                       for client, stream, out in zip(clients, streams, outs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise BenchError(f"client connection failed: {errors[0]}")
            return [sample for out in outs for sample in out]

        return timed_windows(seconds, window, spread=True)


def _failures(samples: list, expected: dict) -> list:
    return [(name, response) for name, _, response in samples
            if outcome_of_response(response) != expected[name]]


def _tiers(samples: list) -> dict:
    counts = {"warm": 0, "hit": 0, "miss": 0}
    for _, _, response in samples:
        counts[TIERS.get(response.get("cache"), "miss")] += 1
    return {tier: n / len(samples) for tier, n in counts.items()}


def timed(state: dict, expected: dict, seconds: float) -> dict:
    region = closed_loop(state, seconds, "timed")
    samples = region.samples()
    failures = _failures(samples, expected)
    metrics, windows = window_metrics(region)
    return {
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
        "live_objects": region.live_objects,
        "detail": {"windows": windows, "tiers": _tiers(samples),
                   "connections": state["server"].ready.get("workers"),
                   "failures": failures[:5]},
    }


def _histogram_delta(before: dict, after: dict, name: str) -> tuple[float, int]:
    old = before["metrics"]["histograms"].get(name, {"sum": 0.0, "count": 0})
    new = after["metrics"]["histograms"].get(name, {"sum": 0.0, "count": 0})
    return new["sum"] - old["sum"], new["count"] - old["count"]


def _serialize_replay(sources: list[str]) -> tuple[float, float]:
    """Mean seconds and bytes of ``serialize_image`` over ``sources``,
    compiled in this process the way a serve worker compiles them."""
    from repro.api import resolve_config
    from repro.compiler.serialize import serialize_image, source_fingerprint
    from repro.serve.server import ServeConfig

    from pipeline import compile_layers

    config = resolve_config(engine=ServeConfig().engine, cache=True)
    total_s = total_bytes = 0.0
    for source in sources:
        code, static_type, _, _ = compile_layers(Tracer(), source, config)
        begin = time.perf_counter()
        image = serialize_image(code, source_fingerprint(source), static_type, config.ir)
        total_s += time.perf_counter() - begin
        total_bytes += len(image)
    return total_s / len(sources), total_bytes / len(sources)


def traced(state: dict, expected: dict, seconds: float, tracer: Tracer) -> dict:
    """An untraced half, then a traced half with a span per request and the
    server's ``stats`` before and after; the worker-reported compile/run
    times and the server's queue and latency histograms split each round
    trip into wire, queue, IPC, load and run."""
    untraced = closed_loop(state, seconds / 2, "untraced").samples()
    with state["server"].client() as client:
        before = client.stats()
        samples = closed_loop(state, seconds / 2, "traced", tracer).samples()
        after = client.stats()
    failures = _failures(untraced + samples, expected)
    n = len(samples)
    rtt_s = sum(rtt for _, rtt, _ in samples)
    queue_s, _ = _histogram_delta(before, after, "serve.queue_s")
    latency_s, _ = _histogram_delta(before, after, "serve.latency_s")
    compile_s = sum(response.get("compile_s", 0.0) for _, _, response in samples)
    run_s = sum(response.get("run_s", 0.0) for _, _, response in samples)
    load_s = sum(response.get("compile_s", 0.0) for _, _, response in samples
                 if response.get("cache") == "hit")
    tiers = _tiers(samples)
    consulted = tiers["hit"] + tiers["miss"]
    # Serialization happens inside the workers, on misses; replay it here
    # on (up to 16 of) the programs that missed.
    missed = list(dict.fromkeys(name for name, _, response in samples
                                if response.get("cache") == "miss"))[:16]
    serialize_s, serialize_bytes = _serialize_replay(
        [state["programs"][name] for name in missed or state["hot"][:1]])
    shed = (after["metrics"]["counters"].get("serve.shed", 0)
            - before["metrics"]["counters"].get("serve.shed", 0))
    metrics = {
        "wire.self_s": (rtt_s - latency_s) / n,
        "queue.self_s": queue_s / n,
        "ipc.self_s": (latency_s - queue_s - compile_s - run_s) / n,
        "load.self_s": load_s / n,
        "serialize.self_s": serialize_s * tiers["miss"],
        "serialize.bytes": serialize_bytes,
        "unattributed.self_s": (compile_s - load_s) / n,
        "run.self_s.coercion": run_s / n,
        "run.steps.coercion": sum(r.get("steps", 0) for _, _, r in samples) / n,
        "run.max_pending_mediators.coercion": max(
            r.get("max_pending_mediators", 0) for _, _, r in samples),
        "cache.hit_ratio": tiers["hit"] / consulted if consulted else 0.0,
        "serve.shed": shed,
        "pool.retries": after["pool"]["retries"],
        "pool.crashes": after["pool"]["crashes"],
        **{f"pool.tier.{tier}": share for tier, share in tiers.items()},
    }
    untraced_rtt_s = sum(rtt for _, rtt, _ in untraced)
    return {
        "attempted": len(untraced) + n,
        "failed": len(failures),
        "metrics": metrics,
        "ops": n,
        "untraced_s": untraced_rtt_s / len(untraced) * n,
        "traced_s": rtt_s,
        "detail": {"requests": {"untraced": len(untraced), "traced": n},
                   "serialize_replayed": len(missed), "failures": failures[:5]},
    }

