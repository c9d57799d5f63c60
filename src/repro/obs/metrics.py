"""The metrics registry: counters, gauges, histograms, and phase timers.

This is the structured replacement for ad-hoc stderr dumps: the pipeline
(:func:`repro.api.run`), the compile cache, the batch runner, and the
CLI's ``--profile``/``--metrics`` all record into one
:class:`MetricsRegistry` and export one JSON-ready snapshot.

Design constraints, per the observability contract:

* **No wall-clock in hot paths.**  The only timing primitive is the *phase*
  timer — one ``perf_counter()`` pair around a whole pipeline stage (parse,
  elaborate, lower, optimize, regalloc, cache, run), never per step or per
  event.  Engine-level quantities come from the engines' own step counters
  (:class:`~repro.machine.profiler.MachineStats`), folded in after the run.
* **Fixed histogram buckets.**  A histogram's bucket boundaries are fixed at
  creation and never rebalance, so snapshots from different shards (the
  batch runner's workers) aggregate by plain elementwise addition.
* **None is the off switch.**  Every producer takes ``metrics=None`` and
  guards each record with one ``is not None`` test — the same zero-cost
  discipline as the tracer.

The standard metric names are catalogued in the README's Observability
section; nothing enforces the catalogue — the registry is a namespace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

#: Default histogram boundaries for durations in seconds: powers-of-10 with
#: a 2.5/5 fill, 100 µs … 10 s.  Fixed so shard histograms merge by addition.
TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-written value (use :meth:`high` for a running maximum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def high(self, value) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Counts of observations per fixed bucket, plus sum/min/max.

    ``boundaries`` are the inclusive upper edges of the first ``len``
    buckets; one overflow bucket catches everything beyond the last edge
    (``counts`` has ``len(boundaries) + 1`` entries).
    """

    __slots__ = ("boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, boundaries=TIME_BUCKETS) -> None:
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        index = 0
        for edge in self.boundaries:
            if value <= edge:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class Phase:
    """Accumulated wall time of one named pipeline stage."""

    __slots__ = ("total_s", "count")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0


class MetricsRegistry:
    """A namespace of metrics, created on first touch, snapshot as JSON."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.phases: dict[str, Phase] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str, boundaries=TIME_BUCKETS) -> Histogram:
        """The named histogram; ``boundaries`` apply only on first creation
        (bucket edges are fixed for the histogram's lifetime)."""
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(boundaries)
        return metric

    @contextmanager
    def timer(self, name: str):
        """Time one pipeline phase (accumulates across repeated phases)."""
        phase = self.phases.get(name)
        if phase is None:
            phase = self.phases[name] = Phase()
        start = time.perf_counter()
        try:
            yield
        finally:
            phase.total_s += time.perf_counter() - start
            phase.count += 1

    def snapshot(self) -> dict:
        """One JSON-ready dict of everything recorded so far."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
            "phases": {
                name: {"total_s": p.total_s, "count": p.count}
                for name, p in sorted(self.phases.items())
            },
        }


def phase(metrics: MetricsRegistry | None, name: str):
    """``metrics.timer(name)``, or a no-op context when metrics are off."""
    if metrics is None:
        return nullcontext()
    return metrics.timer(name)


def record_run(metrics: MetricsRegistry | None, kind: str,
               stats: dict | None, engine: str) -> None:
    """Fold one engine run's outcome and stats snapshot into the registry.

    Called after the run (the engines never see the registry): outcome
    counters, step counters, and high-water gauges for the space profile.
    """
    if metrics is None:
        return
    metrics.counter("run.count").inc()
    metrics.counter(f"run.outcome.{kind}").inc()
    metrics.counter(f"run.engine.{engine}").inc()
    if not stats:
        return
    metrics.counter("run.steps").inc(stats.get("steps", 0))
    for key in ("max_pending_mediators", "max_pending_size", "max_kont_depth"):
        if key in stats:
            metrics.gauge(f"run.{key}").high(stats[key])
    for key in ("merges", "mediator_applications", "cache_hits", "cache_misses"):
        if key in stats:
            metrics.counter(f"run.{key}").inc(stats[key])
