"""The repository benchmark: how long a ``.grad`` source takes to become a result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Four workloads cover the four ways a source becomes a result:

* ``cold_compile`` — ``repro.api.run`` on the rvm engine, cache off;
* ``warm_run`` — ``repro.api.run`` against a filled compile cache, all four
  enforcement semantics;
* ``lattice_sweep`` — ``repro.experiment.run_experiment`` through its pool;
* ``serve_mixed`` — a closed loop against a ``repro-gradual serve`` subprocess.

Each run makes its inputs from ``--seed``, computes every op's expected
outcome before timing (the CEK machine, or for the sweep an inline sweep of
the same plan), measures for ``--seconds`` and checks every output; blame is
an expected outcome, and a mismatch, an exception, a refused request or a
lost worker is a failure.  The timed region is cut into short windows (or
one sweep each) with a host-speed probe between them, and every end-to-end
time is scaled to a fixed reference speed (``probe.py``): on a shared
host the same code runs up to twice as fast in one stretch as in the next.
Rates and median latencies are medians over the windows.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs a
separate traced pass and reports per-layer metrics (self time per op, counts,
and the tracing overhead against an untraced pass over the same work).  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  A fuller report,
with provenance and the reason each workload exists, goes to the line before
it and to ``.perfbench_work/reports/``; traced spans go to
``.perfbench_work/spans/``.

Deprecation warnings are errors: the timed paths use only the entry points
that are meant to last (``repro.api.run``, ``run_experiment``, the ``serve``
command) and each front end's default engine where the workload does not
name one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (ROOT, SEMANTICS, SRC, WORK, BenchError, Tracer, live_objects, peak_rss_mb,  # noqa: E402
                    provenance, summary, with_speed)

#: Workload name → module.
WORKLOADS = {
    "cold_compile": "cold",
    "warm_run": "warm",
    "lattice_sweep": "lattice",
    "serve_mixed": "serve_mixed",
}

#: The program modules each workload imports; their import time is set-up.
IMPORTS = {
    "cold_compile": ("repro.api", "repro.gen.surface_programs", "repro.compiler.rvm"),
    "warm_run": ("repro.api", "repro.compiler.cache", "repro.compiler.rvm"),
    "lattice_sweep": ("repro.api", "repro.experiment.driver", "repro.serve.pool",
                      "repro.gen.surface_programs"),
    "serve_mixed": ("repro.api", "repro.serve.client", "repro.gen.surface_programs"),
}

#: Set-up runs per benchmark run.  ``setup_s`` is the median time a fresh
#: interpreter takes to import the workload's modules plus the median time
#: of the workload's own set-up, each scaled to the reference host.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers whose self time comes straight from spans of the same name.
SPAN_LAYERS = ("lex", "parse", "elaborate", "translate_bc", "translate_cs", "lower",
               "optimize", "regalloc", "load", "ipc", "plan")
#: Spans that enclose layers; their self time is the unattributed remainder.
ENCLOSING_SPANS = ("op", "sweep", "request")

PER_LAYER = {
    **{f"{layer}.self_s": "s/op" for layer in SPAN_LAYERS},
    "serialize.self_s": "s/op",
    "queue.self_s": "s/op",
    "wire.self_s": "s/op",
    "unattributed.self_s": "s/op",
    "lex.tokens": "tokens/op",
    "elaborate.casts": "casts/op",
    "lower.insns": "insns/op",
    "optimize.insns": "insns/op",
    "regalloc.words": "words/op",
    "serialize.bytes": "bytes",
    "cache.hit_ratio": "ratio",
    **{metric: unit for semantics in SEMANTICS for metric, unit in (
        (f"run.self_s.{semantics}", "s/op"),
        (f"run.steps.{semantics}", "steps/op"),
        (f"run.merges.{semantics}", "merges/op"),
        (f"run.inline_cache_hit_ratio.{semantics}", "ratio"),
        (f"run.max_pending_mediators.{semantics}", "count"),
    )},
    "pool.retries": "count",
    "pool.crashes": "count",
    "pool.tier.warm": "ratio",
    "pool.tier.hit": "ratio",
    "pool.tier.miss": "ratio",
    "serve.shed": "count",
    "plan.configurations": "count",
    "trace.overhead_ratio": "ratio",
    "failed_fraction": "ratio",
    "live_objects.before": "count",
    "live_objects.after": "count",
}


def _layer_metrics(tracer: Tracer, measured: dict) -> dict:
    """Per-layer metrics: span self times per op, then the workload's own."""
    ops = measured["ops"]
    self_times = tracer.self_times()
    metrics = {f"{layer}.self_s": self_times.get(layer, 0.0) / ops for layer in SPAN_LAYERS}
    metrics["unattributed.self_s"] = sum(self_times.get(name, 0.0)
                                         for name in ENCLOSING_SPANS) / ops
    metrics.update(measured["metrics"])
    metrics["trace.overhead_ratio"] = measured["traced_s"] / measured["untraced_s"] - 1.0
    return metrics


def _attribution(tracer: Tracer) -> dict:
    """Root spans' total time against the sum of every span's self time plus
    the time other processes reported for their part (equal by
    construction: each layer's self time plus the unattributed remainder)."""
    roots = tracer.roots()
    return {
        "ops": len(roots),
        "traced_op_s": sum(span["end"] - span["start"] for span in roots),
        "sum_of_self_s": sum(tracer.self_times().values()),
        "remote_s": sum(span.get("remote_s", 0.0) for span in tracer.spans),
    }


def import_seconds(modules: tuple[str, ...]) -> float:
    """Seconds a fresh interpreter takes to import ``modules``, scaled to
    the reference host by probes run in that interpreter just before and
    after the imports."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; from probe import probe; "
            "before = probe(); begin = time.perf_counter(); "
            + "; ".join(f"import {module}" for module in modules)
            + "; taken = time.perf_counter() - begin; print(taken * (before * probe()) ** 0.5)")
    done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code,
                           str(SRC), str(Path(__file__).resolve().parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", corrupted: bool = False) -> tuple[dict, dict]:
    """One benchmark run: ``(result line, report)``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    for module in IMPORTS[workload]:
        importlib.import_module(module)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    module = importlib.import_module(WORKLOADS[workload])
    repeats = SETUP_REPEATS if size == "full" else 1
    imports = [import_seconds(IMPORTS[workload]) for _ in range(repeats)]

    setups = []
    state = None
    for _ in range(repeats):
        if state is not None:
            module.teardown(state)
        state, taken, speed = with_speed(module.setup, seed, size)
        setups.append(taken * speed)
    tracer = Tracer() if trace else None
    try:
        expected = module.reference(state, corrupted)
        objects_before = live_objects()
        if trace:
            measured = module.traced(state, expected, seconds, tracer)
        else:
            measured = module.timed(state, expected, seconds)
        objects_after = live_objects()
        # A workload whose timed region runs in a child counts objects there.
        objects_before, objects_after = measured.get("live_objects",
                                                     (objects_before, objects_after))
    finally:
        module.teardown(state)
    rss = {"self": peak_rss_mb(), "children": peak_rss_mb(children=True)}

    attempted, failed = measured["attempted"], measured["failed"]
    report = {
        "workload": workload,
        "why": module.WHY,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "provenance": provenance(),
        "setup": {"import_s": summary(imports), "setup_s": summary(setups)},
        "peak_rss_mb": rss,
        "live_objects": {"before": objects_before, "after": objects_after},
        "attempted": attempted,
        "failed": failed,
        "detail": measured["detail"],
    }
    if trace:
        metrics = _layer_metrics(tracer, measured)
        metrics["failed_fraction"] = failed / attempted
        metrics["live_objects.before"] = objects_before
        metrics["live_objects.after"] = objects_after
        for name in PER_LAYER:
            metrics.setdefault(name, 0.0)
        units = PER_LAYER
        report["attribution"] = _attribution(tracer)
        report["tracing_overhead"] = {"untraced_s": measured["untraced_s"],
                                      "traced_s": measured["traced_s"]}
        tracer.write(WORK / "spans" / f"{workload}-seed{seed}.jsonl")
    else:
        metrics = dict(measured["metrics"])
        metrics["setup_s"] = statistics.median(imports) + statistics.median(setups)
        # The serve workload's processes are children, whose peak RSS is
        # known only once they have exited; the others measure their own.
        metrics["peak_rss_mb"] = measured.get("peak_rss_mb") or rss["children"]
        units = END_TO_END
        report["failed_fraction"] = failed / attempted
    report["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    return line, report


def selftest() -> int:
    """Every workload at a tiny size, both modes: every metric is emitted with
    its unit, nothing fails, and a corrupted expected outcome is caught."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in listed["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in listed["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in listed["workloads"]} == {
        workload: importlib.import_module(module).WHY for workload, module in WORKLOADS.items()}
    for workload in WORKLOADS:
        for trace, corrupted in ((0, False), (1, False), (0, True), (1, True)):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", "7",
                    "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
            if corrupted:
                argv.append("--corrupt-reference")
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
            assert done.returncode == 0, done.stderr
            line = json.loads(done.stdout.strip().splitlines()[-1])
            expected = PER_LAYER if trace else END_TO_END
            got = {name: metric["unit"] for name, metric in line["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert line["attempted"] >= 1
            if corrupted:
                assert line["failed"] >= 1 and not line["correct"], (workload, trace, line)
                if trace:
                    assert line["metrics"]["failed_fraction"]["value"] > 0, (workload, line)
            else:
                assert line["failed"] == 0 and line["correct"], (workload, trace, done.stdout)
            print(f"selftest {workload} trace={trace} corrupted={corrupted}: "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)
    print("selftest ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-test's seconds-long runs)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt one expected outcome (the self-test's negative case)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("error", DeprecationWarning)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        line, report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.size, args.corrupt_reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = WORK / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(report, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
