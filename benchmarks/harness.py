"""Shared benchmark harness: timing, tables, and ``BENCH_<name>.json`` artifacts.

Every ``bench_*.py`` in this directory is both a pytest-benchmark module and
a standalone script built on this harness::

    python benchmarks/bench_interpreters.py            # print a table
    python benchmarks/bench_interpreters.py --json     # also write BENCH_interpreters.json

The JSON artifacts are the repo's performance trajectory: each records the
machine, the measurements (best/mean seconds plus per-measurement metadata
such as speedups and space statistics), so successive PRs can be compared
number by number.
"""

from __future__ import annotations

import argparse
import inspect
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Make `repro` importable when run as a plain script from the repo root.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@dataclass
class Measurement:
    """One timed (or derived) quantity.

    Timed measurements report the **min** (the least-noise estimate of the
    true cost), the **median** (robust against a single fast outlier) and
    the **interquartile range** (the run-to-run spread around the median);
    the mean is kept for continuity with older ``BENCH_*.json`` artifacts.
    """

    name: str
    best_s: float | None = None
    mean_s: float | None = None
    median_s: float | None = None
    iqr_s: float | None = None
    runs: int = 0
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        payload: dict = {"name": self.name, "runs": self.runs}
        if self.best_s is not None:
            payload["best_s"] = self.best_s
            payload["mean_s"] = self.mean_s
            payload["median_s"] = self.median_s
            payload["iqr_s"] = self.iqr_s
        payload.update(self.meta)
        return payload


class Suite:
    """A named collection of measurements with a uniform CLI and JSON shape."""

    def __init__(self, name: str, repeat: int = 5):
        self.name = name
        self.repeat = repeat
        self.measurements: list[Measurement] = []

    def measure(
        self,
        name: str,
        fn: Callable[[], object],
        repeat: int | None = None,
        check: Callable[[object], bool] | None = None,
        **meta,
    ) -> Measurement:
        """Time ``fn`` (one warmup + ``repeat`` timed runs) and record it."""
        repeat = repeat or self.repeat
        result = fn()  # warmup, and the value used for the correctness check
        if check is not None and not check(result):
            raise AssertionError(f"benchmark {self.name}/{name}: check failed on {result!r}")
        timings = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        q1, _, q3 = statistics.quantiles(timings, n=4) if repeat > 1 else (0.0, 0.0, 0.0)
        measurement = Measurement(
            name,
            best_s=min(timings),
            mean_s=sum(timings) / len(timings),
            median_s=statistics.median(timings),
            iqr_s=q3 - q1,
            runs=repeat,
            meta=meta,
        )
        self.measurements.append(measurement)
        return measurement

    def record(self, name: str, **meta) -> Measurement:
        """Record a derived, untimed quantity (a ratio, a space statistic)."""
        measurement = Measurement(name, meta=meta)
        self.measurements.append(measurement)
        return measurement

    # -- reporting -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "measurements": [m.to_json() for m in self.measurements],
        }

    def print_table(self) -> None:
        print(f"== {self.name} ==")
        width = max((len(m.name) for m in self.measurements), default=10)
        for m in self.measurements:
            if m.best_s is not None:
                timing = (
                    f"min {m.best_s * 1e3:9.3f} ms   median {m.median_s * 1e3:9.3f} ms"
                    f"   iqr {m.iqr_s * 1e3:7.3f} ms"
                )
            else:
                timing = " " * 61
            extras = "  ".join(f"{k}={v}" for k, v in m.meta.items())
            print(f"  {m.name:<{width}}  {timing}  {extras}")


def artifact_path(suite_name: str, explicit: str | None = None) -> Path:
    """Where ``--json`` writes: ``BENCH_<name>.json`` in the repo root by default."""
    if explicit:
        return Path(explicit)
    return Path(__file__).resolve().parent.parent / f"BENCH_{suite_name}.json"


#: Default seed for suites with generated workloads: fixed, so successive
#: ``BENCH_*.json`` artifacts measure the *same* programs run to run (the
#: date the paper was presented at PLDI 2015).
DEFAULT_SEED = 20150613


def main(suite_name: str, build: Callable[..., Suite], argv: list[str] | None = None,
         verdict: Callable[[Suite], str | None] | None = None) -> int:
    """CLI entry point shared by every ``bench_*.py``; returns the exit status.

    ``build(repeat)`` runs the experiment and returns the populated suite;
    a suite whose workloads are randomly generated declares a second
    ``seed`` parameter and receives ``--seed`` (default
    :data:`DEFAULT_SEED`, so artifacts are reproducible run to run).
    ``verdict(suite)``, if given, judges the suite after its table is
    printed and its artifact written, so a missed bar is still recorded: a
    message it returns goes to stderr and the status is 1.
    """
    parser = argparse.ArgumentParser(description=f"benchmark suite {suite_name!r}")
    parser.add_argument("--json", nargs="?", const="", default=None, metavar="PATH",
                        help=f"write BENCH_{suite_name}.json (optionally to PATH)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed runs per measurement (min + median reported)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed for generated workloads (fixed by default "
                             "so BENCH artifacts are reproducible)")
    args = parser.parse_args(argv)

    if "seed" in inspect.signature(build).parameters:
        suite = build(args.repeat, seed=args.seed)
    else:
        suite = build(args.repeat)
    suite.print_table()
    if args.json is not None:
        path = artifact_path(suite_name, args.json or None)
        path.write_text(json.dumps(suite.to_json(), indent=2) + "\n")
        print(f"wrote {path}")
    failure = verdict(suite) if verdict is not None else None
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0
