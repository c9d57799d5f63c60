"""``lattice_sweep``: the rational-programmer experiment over a seeded corpus.

Each op is one configuration of a migration lattice, run by
``repro.experiment.run_experiment`` through its worker pool with
``workers`` = the usable CPU count and every other ``ExperimentConfig``
field at its default.  A sweep is one ``run_experiment`` call over a chunk
of the corpus, pool start-up included; sweeps cycle through the chunks
until the time is up, and each sweep is one window of the timed region.
Per-configuration latency is the time the worker spent compiling and
running it (the ``compile_s`` and ``run_s`` every pool result carries): the
round trip adds the parent's thread scheduling, which on a busy host
dominates its tail.  The reference is an inline (``workers=0``) sweep of
the same plan.

The timed and traced passes run in a spawned child, so the pool workers
fork from a process without the reference sweep's heap; the peak RSS is
the largest of that child and its pool workers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

from common import (TIERS, Tracer, count_into, in_child, instrumented, timed_windows, traced_in_child,
                    usable_cpus, window_metrics)
from pipeline import RunLayer, count_casts, run_stats

WHY = ("configurations/s of the blame experiment: near-duplicate sources compiled "
       "fresh in pool workers, so front end and pool IPC dominate")

#: The corpus is ``programs`` generated programs, swept ``chunk`` at a time.
SIZES = {"full": {"programs": 12, "chunk": 6}, "tiny": {"programs": 1, "chunk": 1}}


def setup(seed: int, size: str) -> dict:
    from repro.experiment.driver import ExperimentConfig
    from repro.gen.surface_programs import generate_corpus

    shape = SIZES[size]
    corpus = generate_corpus(shape["programs"], seed=seed)
    return {
        "chunks": [corpus[i:i + shape["chunk"]] for i in range(0, len(corpus), shape["chunk"])],
        "config": ExperimentConfig(workers=usable_cpus()),
    }


def teardown(state: dict) -> None:
    pass


def _sweep(state: dict, chunk: int, workers: int | None = None) -> tuple[list[dict], float]:
    from repro.experiment.driver import run_experiment

    config = state["config"] if workers is None else replace(state["config"], workers=workers)
    begin = time.perf_counter()
    trails, _ = run_experiment(state["chunks"][chunk], config)
    return [trail.describe() for trail in trails], time.perf_counter() - begin


def _sweep_all(state: dict, expected: list, workers: int | None = None) -> tuple[int, list, float]:
    """Every chunk once: configurations run, failures, seconds."""
    configurations = 0
    failures: list = []
    total_s = 0.0
    for chunk in range(len(state["chunks"])):
        trails, seconds = _sweep(state, chunk, workers)
        count, bad = compare(trails, expected[chunk])
        configurations += count
        failures += bad
        total_s += seconds
    return configurations, failures, total_s


def reference(state: dict, corrupted: bool) -> list[list[dict]]:
    """Per chunk, the trails of an inline sweep of the same plan."""
    expected = []
    state["inline_s"] = 0.0
    for chunk in range(len(state["chunks"])):
        trails, seconds = _sweep(state, chunk, workers=0)
        expected.append(trails)
        state["inline_s"] += seconds
    if corrupted:
        first = expected[0][0]
        expected[0][0] = {**first, "steps": [{"kind": "corrupted"}] + first["steps"][1:]}
    return expected


def compare(trails: list[dict], expected: list[dict]) -> tuple[int, list]:
    """Configurations run, and the ones whose result differs from the
    reference (a mismatch, a timeout or error where a value is expected,
    a worker-lost record)."""
    configurations = 0
    failures = []
    if len(trails) != len(expected):
        failures.append(("trail count", len(trails), len(expected)))
    for got, want in zip(trails, expected):
        configurations += got["configurations_run"]
        if got == want:
            continue
        where = (got["program"], got["semantics"], got["fault"])
        bad = [(*where, index, step) for index, step in enumerate(got["steps"])
               if index >= len(want["steps"]) or step != want["steps"][index]]
        failures += bad or [(*where, "trail differs")]
    return configurations, failures


@contextmanager
def service_times(latencies: list):
    """Collect the worker-side time of every ``WorkerPool.execute`` result."""
    from repro.serve.pool import WorkerPool

    execute = vars(WorkerPool)["execute"]

    def timed_execute(pool, job):
        result = execute(pool, job)
        latencies.append(result.get("compile_s", 0.0) + result.get("run_s", 0.0))
        return result

    WorkerPool.execute = timed_execute
    try:
        yield
    finally:
        WorkerPool.execute = execute


def timed(state: dict, expected: list, seconds: float) -> dict:
    return in_child(_timed_here, state, expected, seconds)


def traced(state: dict, expected: list, seconds: float, tracer: Tracer) -> dict:
    return traced_in_child(tracer, _traced_here, state, expected)


def _timed_here(state: dict, expected: list, seconds: float) -> dict:
    """One sweep per window, cycling through the chunks, until ``seconds``
    pass and every chunk has been swept."""
    latencies: list = []
    sweeps: list = []

    def window(index: int, _deadline: float) -> list:
        chunk = index % len(state["chunks"])
        first = len(latencies)
        sweeps.append((chunk, _sweep(state, chunk)[0]))
        return [(chunk, latency, None) for latency in latencies[first:]]

    with service_times(latencies):
        region = timed_windows(seconds, window, minimum=len(state["chunks"]), spread=True)
    configurations = 0
    failures: list = []
    for chunk, trails in sweeps:
        count, bad = compare(trails, expected[chunk])
        configurations += count
        failures += bad
    metrics, windows = window_metrics(region)
    return {
        "attempted": configurations,
        "failed": len(failures),
        "metrics": metrics,
        "live_objects": region.live_objects,
        "detail": {"windows": windows, "sweeps": len(region.windows),
                   "workers": state["config"].workers, "failures": failures[:5]},
    }


def _worker_fields(result, record, _args) -> None:
    """The worker's own compile and run times, which it reports, are the
    ``ipc`` span's children: ``remote_s``."""
    record["remote_s"] = result.get("compile_s", 0.0) + result.get("run_s", 0.0)
    record["child_s"] += record["remote_s"]
    record["cache"] = result.get("cache")


def _layer_points(terms: list) -> list:
    """Every layer entry point ``repro.api.run`` and the planner reach."""
    import repro.api
    import repro.compiler.lower
    import repro.compiler.regalloc
    import repro.compiler.rvm
    import repro.compiler.vm
    import repro.experiment.driver as driver
    import repro.surface.cast_insertion
    import repro.surface.parser
    import repro.translate
    from repro.experiment.lattice import ProgramLattice

    def semantics_of(_result, record, args):
        record["semantics"] = args[1].semantics

    def keep_term(result, _record, _args):
        terms.append(result[0])

    def keep_stats(result, record, _args):
        record["stats"] = run_stats(result)

    return [
        (repro.api, "run", "op", semantics_of),
        (repro.surface.parser, "parse_program", "parse", None),
        (repro.surface.parser, "tokenize", "lex", count_into("tokens", len)),
        (repro.surface.cast_insertion, "elaborate_program", "elaborate", keep_term),
        (repro.translate, "b_to_c", "translate_bc", None),
        (repro.translate, "c_to_s", "translate_cs", None),
        (repro.compiler.lower, "lower_program", "lower", None),
        (repro.compiler.vm, "optimize", "optimize", None),
        (repro.compiler.regalloc, "compile_registers", "regalloc", None),
        (repro.compiler.vm, "run_code", "run", keep_stats),
        (repro.compiler.rvm, "run_rcode", "run", keep_stats),
        (ProgramLattice, "from_source", "plan", None),
        (driver, "sample_faults", "plan", None),
        (driver, "enumerate_configurations", "plan", None),
        (driver, "apply_fault", "plan", None),
        (driver, "render_configuration", "plan", None),
    ]


def _traced_here(state: dict, expected: list, tracer: Tracer) -> dict:
    """Pool sweeps untraced and with ``ipc`` spans, then an inline sweep of
    the same plan with a span around every layer entry point."""
    from repro.serve.pool import WorkerPool

    _, failures, untraced_pool_s = _sweep_all(state, expected)
    pools = {}

    def keep_pool(result, record, args):
        _worker_fields(result, record, args)
        pools[id(args[0])] = args[0]

    with instrumented(tracer, [(WorkerPool, "execute", "ipc", keep_pool)]):
        configurations, bad, traced_pool_s = _sweep_all(state, expected)
    failures += bad
    ipc_spans = [span for span in tracer.spans if span["name"] == "ipc"]
    tiers = {"warm": 0, "hit": 0, "miss": 0}
    for span in ipc_spans:
        tiers[TIERS.get(span.get("cache"), "miss")] += 1

    terms: list = []
    with instrumented(tracer, _layer_points(terms)):
        with tracer.span("sweep"):
            count, bad, traced_inline_s = _sweep_all(state, expected, workers=0)
    failures += bad

    by_id = {span["id"]: span for span in tracer.spans}
    runs = RunLayer()
    for span in tracer.spans:
        if span["name"] == "run" and "stats" in span:
            semantics = by_id[span["parent"]].get("semantics", "coercion")
            runs.add(semantics, span["end"] - span["start"] - span["child_s"], span["stats"])
    tokens = sum(span.get("tokens", 0) for span in tracer.spans if span["name"] == "lex")
    metrics = {
        "lex.tokens": tokens / count,
        "elaborate.casts": sum(count_casts(term) for term in terms) / count,
        "plan.configurations": count,
        "pool.retries": sum(pool.counters["retries"] for pool in pools.values()),
        "pool.crashes": sum(pool.counters["crashes"] for pool in pools.values()),
        **{f"pool.tier.{tier}": n / len(ipc_spans) for tier, n in tiers.items()},
        **runs.metrics(),
    }
    return {
        "attempted": configurations + count,
        "failed": len(failures),
        "metrics": metrics,
        "ops": count,
        "untraced_s": untraced_pool_s + state["inline_s"],
        "traced_s": traced_pool_s + traced_inline_s,
        "detail": {"pool_sweep_s": {"untraced": untraced_pool_s, "traced": traced_pool_s},
                   "inline_sweep_s": {"untraced": state["inline_s"], "traced": traced_inline_s},
                   "failures": failures[:5]},
    }
