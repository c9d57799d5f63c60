"""Shared pieces of the benchmark: statistics, outcomes, spans, timed
windows scaled by the host-speed probe (``probe.py``), spawned children,
provenance.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can time
the program's imports as part of set-up.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from probe import probe, probe_cpus

#: This directory, and the checkout the benchmark runs in: its parent.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (caches, sockets, spans, reports).
WORK = ROOT / ".perfbench_work"

#: The enforcement semantics, in the order the run metrics list them.
SEMANTICS = ("coercion", "threesome", "transient", "erasure")

#: Pool memo tiers as a worker reports them (the ``cache`` field of a pool
#: result); a compile with the cache off (``off``) is a miss.
TIERS = {"warm": "warm", "hit": "hit", "miss": "miss", "recovered": "miss", "off": "miss"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a dead server...)."""


def usable_cpus() -> int:
    """CPUs this process may run on (the pool and server worker count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (``q`` in [0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: list[float]) -> dict:
    """Median, quartiles and the values themselves, as the report records them."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


def json_value(value: object) -> object:
    """A value as it looks after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(value))


def outcome_of_result(result) -> tuple:
    """``(kind, value, blame label)`` of a :class:`repro.api.RunResult`."""
    if result.kind == "value":
        return ("value", json_value(result.value), None)
    if result.kind == "blame":
        return ("blame", None, str(result.blame_label))
    return (result.kind, None, None)


def outcome_of_machine(outcome) -> tuple:
    """``(kind, value, blame label)`` of an engine's ``MachineOutcome``."""
    if outcome.is_value:
        return ("value", json_value(outcome.python_value()), None)
    if outcome.is_blame:
        return ("blame", None, str(outcome.label))
    return (outcome.kind, None, None)


def outcome_of_response(response: dict) -> tuple:
    """``(kind, value, blame label)`` of a serve response or pool result."""
    kind = response.get("kind")
    if kind == "value":
        return ("value", json_value(response.get("value")), None)
    if kind == "blame":
        return ("blame", None, str(response.get("blame")))
    return (kind, None, None)


def corrupt(outcome: tuple) -> tuple:
    """A deliberately wrong expected outcome (the self-test's negative case)."""
    kind, value, label = outcome
    return (kind, ["corrupted", value], label)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set size in MiB of this process, or of the
    largest child it has waited for (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":
        rss /= 1024
    return rss / 1024


def live_objects() -> int:
    """Objects the garbage collector tracks, after a full collection."""
    gc.collect()
    return len(gc.get_objects())


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent, op id, attributes.

    A span opened with no span open on its thread starts a new op.  Self
    time is a span's duration minus the time its child spans cover; the
    self time of an op's root span is the op's unattributed remainder.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = 0

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            with self._lock:
                self._ops += 1
                op = self._ops
        else:
            op = parent["op"]
        record = {
            "name": name, "start": 0.0, "end": 0.0, "op": op,
            "parent": parent["id"] if parent else None, "child_s": 0.0,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent["child_s"] += record["end"] - record["start"]

    def wrap(self, function, name: str, after=None):
        """``function`` with a span around every call; ``after(result,
        span, args)`` may attach counts to the span."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if after is not None:
                after(result, record, args)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        totals: dict[str, float] = {}
        for record in self.spans:
            own = record["end"] - record["start"] - record["child_s"]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def roots(self) -> list[dict]:
        return [record for record in self.spans if record["parent"] is None]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (once, when the traced pass ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True, default=str) + "\n")


@contextmanager
def instrumented(tracer: Tracer, points):
    """Temporarily replace layer entry points with span-recording wrappers.

    ``points`` lists ``(owner, attribute, span name, after)``; ``owner`` is
    the module or class the pipeline looks the function up on.  Originals
    are restored on exit, whatever happens.
    """
    saved = []
    try:
        for owner, attribute, name, after in points:
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(raw.__func__, name, after))
            else:
                replacement = tracer.wrap(raw, name, after)
            saved.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


def count_into(key: str, measure):
    """An ``after`` hook storing ``measure(result)`` on the span as ``key``."""

    def after(result, record, _args):
        record[key] = measure(result)

    return after


# ---------------------------------------------------------------------------
# Timed regions (every time scaled by ``probe.probe``)
# ---------------------------------------------------------------------------


def with_speed(function, *args) -> tuple[object, float, float]:
    """``function(*args)``, its wall seconds, and the host's speed factor
    around the call."""
    before = probe()
    begin = time.perf_counter()
    result = function(*args)
    seconds = time.perf_counter() - begin
    return result, seconds, math.sqrt(before * probe())


#: A timed region is cut into windows of ``seconds / WINDOWS`` (or one
#: sweep each), with a host-speed probe before the first window and after
#: each.  The windows are short because each CPU of a shared host switches
#: between fast and slow stretches within a second.  Rates and median
#: latencies are medians over the windows: a burst of contention the
#: probes miss moves a few windows, not the result.
WINDOWS = 80

#: Passes over the inputs after which an in-process workload reads its peak
#: RSS, so the figure covers a fixed amount of work however fast the passes
#: run (the program's interning tables grow with every compile).
RSS_CYCLES = 10


@dataclass
class Timed:
    """A timed region: its ``(elapsed s, samples, speed factor)`` windows,
    a sample being ``(op, latency s, output)``; the live objects before and
    after it; the peak RSS in MiB it reached, if the workload reads one."""

    windows: list
    live_objects: tuple[int, int]
    peak_rss_mb: float | None = None

    def samples(self) -> list:
        return [sample for _, samples, _ in self.windows for sample in samples]


def timed_windows(seconds: float, window, minimum: int = 1, spread: bool = False) -> Timed:
    """Call ``window(index, deadline)`` until ``seconds`` have passed and at
    least ``minimum`` windows ran; ``deadline`` is the window's start plus
    ``seconds / WINDOWS``, and the window returns its samples.  A window's
    speed factor is the geometric mean of the probes on either side, which
    run on every usable CPU if the work is ``spread`` over processes and
    where this process runs otherwise."""
    before = live_objects()
    clock = time.perf_counter
    width = seconds / WINDOWS
    windows = []
    probe_now = partial(probe_cpus, sorted(os.sched_getaffinity(0))) if spread else probe
    speeds = [probe_now()]
    started = clock()
    while clock() - started < seconds or len(windows) < minimum:
        begin = clock()
        samples = window(len(windows), begin + width)
        elapsed = clock() - begin
        speeds.append(probe_now())
        windows.append((elapsed, samples, math.sqrt(speeds[-2] * speeds[-1])))
    return Timed(windows, (before, live_objects()))


def cycle_for(seconds: float, ops: list, perform) -> Timed:
    """Timed windows of whole passes of ``perform(op)`` over ``ops``, after
    one untimed pass that finishes the program's lazy imports: every op is
    checked in every window.  The peak RSS is read after
    :data:`RSS_CYCLES` timed passes, or at the end if there were fewer."""
    for op in ops:
        perform(op)
    clock = time.perf_counter
    passes = 0
    rss = None

    def window(_index: int, deadline: float) -> list:
        nonlocal passes, rss
        samples = []
        while True:
            for op in ops:
                begin = clock()
                output = perform(op)
                samples.append((op, clock() - begin, output))
            passes += 1
            if passes == RSS_CYCLES:
                rss = peak_rss_mb()
            if clock() >= deadline:
                return samples

    timed = timed_windows(seconds, window)
    timed.peak_rss_mb = rss if rss is not None else peak_rss_mb()
    return timed


def _figures(latencies: list[float], seconds: float) -> dict:
    return {
        "ops_per_s": len(latencies) / seconds,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def window_metrics(timed: Timed) -> tuple[dict, dict]:
    """End-to-end rate and latencies, scaled to the reference host.

    ``ops_per_s`` and ``latency_p50_ms`` are medians over the windows of
    each window's figure; ``latency_p99_ms`` is over every window's
    latencies pooled, since one window has too few samples beyond its 99th
    percentile.  Returns ``(metrics, detail)``; the detail keeps each
    window's unscaled figures and speed factor.
    """
    filled = [(elapsed, [sample[1] for sample in samples], speed)
              for elapsed, samples, speed in timed.windows if samples]
    scaled = [_figures([latency * speed for latency in latencies], elapsed * speed)
              for elapsed, latencies, speed in filled]
    pooled = [latency * speed for _, latencies, speed in filled for latency in latencies]
    metrics = {
        "ops_per_s": statistics.median(figures["ops_per_s"] for figures in scaled),
        "latency_p50_ms": statistics.median(figures["latency_p50_ms"] for figures in scaled),
        "latency_p99_ms": percentile(pooled, 0.99) * 1e3,
    }
    detail = {
        "windows": [{"speed": speed, "ops": len(latencies), **_figures(latencies, elapsed)}
                    for elapsed, latencies, speed in filled],
        "samples": len(pooled),
        "samples_beyond_p99": sum(1 for latency in pooled
                                  if latency * 1e3 > metrics["latency_p99_ms"]),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Spawned children
# ---------------------------------------------------------------------------


#: Seconds a child may take before it is killed: the timed region plus
#: set-up, well inside the time one benchmark run is allowed.
CHILD_TIMEOUT_S = 150


def in_child(function, *args) -> dict:
    """``function(*args)`` in a fresh interpreter (``child.py``).

    The in-process workloads run their timed and traced passes here: the
    reference pass leaves the benchmark process holding every interned
    type and coercion of the inputs, which would inflate its peak RSS and
    live objects (and the heap a pool forks from).  The result gains the
    child's live objects around the call and, unless ``function`` read its
    own, the peak RSS of the child and of its children.

    The child is a plain subprocess that this call waits for, so no
    process outlives the run (a ``multiprocessing`` spawn context would
    leave its resource tracker running after the benchmark exits).
    """
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(HERE / "child.py")],
        input=pickle.dumps((function, args)), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"the measuring child exited with code {done.returncode}")
    return pickle.loads(done.stdout)


def run_in_child(function, args: tuple) -> dict:
    """The child's side of :func:`in_child`."""
    before = live_objects()
    measured = function(*args)
    measured.setdefault("live_objects", (before, live_objects()))
    if measured.get("peak_rss_mb") is None:
        measured["peak_rss_mb"] = max(peak_rss_mb(), peak_rss_mb(children=True))
    return measured


def traced_in_child(tracer: Tracer, function, *args) -> dict:
    """:func:`in_child` for a traced pass ``function(*args, tracer)``; the
    child's spans are added to ``tracer``."""
    measured = in_child(_with_tracer, function, args)
    tracer.spans.extend(measured.pop("spans"))
    return measured


def _with_tracer(function, args: tuple) -> dict:
    tracer = Tracer()
    measured = function(*args, tracer)
    measured["spans"] = tracer.spans
    return measured


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance() -> dict:
    """Where the numbers come from: code identity, interpreter, host size."""
    sha = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
