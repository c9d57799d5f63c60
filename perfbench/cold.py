"""``cold_compile``: whole-pipeline runs with the compile cache off.

Each op is ``repro.api.run(source, RunConfig(engine="rvm"))`` on one program
of the shipped corpus or of a seeded generated corpus — what
``repro-gradual run`` does for a program it has not seen.  The front end
and compile layers do almost all of the work; the run itself is short.
The timed and traced passes run in a spawned child (``common.in_child``).
"""

from __future__ import annotations

import random
import time

from common import (ROOT, Tracer, corrupt, cycle_for, in_child, outcome_of_machine, outcome_of_result,
                    traced_in_child, window_metrics)
from pipeline import RunLayer, compile_layers, count_casts, lexing_instrumented, register_layers, run_stats

WHY = ("whole-pipeline runs with the cache off: the `repro-gradual run` "
       "experience, where the front end and compile layers dominate")

SIZES = {"full": {"programs": 64, "bindings": 8}, "tiny": {"programs": 4, "bindings": 3}}


def setup(seed: int, size: str) -> dict:
    from repro.gen.surface_programs import generate_corpus

    shape = SIZES[size]
    programs = [(path.name, path.read_text())
                for path in sorted((ROOT / "examples" / "programs").glob("*.grad"))]
    programs += generate_corpus(shape["programs"], seed=seed, bindings=shape["bindings"])
    random.Random(f"cold|{seed}").shuffle(programs)
    return {"programs": programs}


def teardown(state: dict) -> None:
    pass


def reference(state: dict, corrupted: bool) -> dict:
    """Expected outcomes from the CEK machine, the reference engine."""
    from repro.api import RunConfig, run

    config = RunConfig(engine="machine")
    expected = {name: outcome_of_result(run(source, config))
                for name, source in state["programs"]}
    if corrupted:
        name = state["programs"][0][0]
        expected[name] = corrupt(expected[name])
    return expected


def timed(state: dict, expected: dict, seconds: float) -> dict:
    return in_child(_timed_here, state, expected, seconds)


def traced(state: dict, expected: dict, seconds: float, tracer: Tracer) -> dict:
    return traced_in_child(tracer, _traced_here, state, expected, seconds)


def _timed_here(state: dict, expected: dict, seconds: float) -> dict:
    from repro.api import RunConfig, run

    config = RunConfig(engine="rvm")

    def perform(program):
        try:
            return outcome_of_result(run(program[1], config))
        except Exception as exc:  # an exception is a failed op, not a crash
            return ("exception", repr(exc), None)

    region = cycle_for(seconds, state["programs"], perform)
    samples = region.samples()
    failures = [(op[0], output) for op, _, output in samples if output != expected[op[0]]]
    metrics, windows = window_metrics(region)
    return {
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
        "peak_rss_mb": region.peak_rss_mb,
        "live_objects": region.live_objects,
        "detail": {"programs": len(state["programs"]), "windows": windows,
                   "failures": failures[:5]},
    }


def _traced_op(tracer: Tracer, source: str, config) -> tuple:
    """One op through the layer functions in pipeline order."""
    from repro.compiler.rvm import run_rcode

    with tracer.span("op") as op:
        code, _, term, counts = compile_layers(tracer, source, config)
        rcode, counts["regalloc.words"] = register_layers(tracer, code)
        with tracer.span("run") as run_span:
            outcome = run_rcode(rcode, config.fuel)
    counts["elaborate.casts"] = count_casts(term)
    run_self = run_span["end"] - run_span["start"]
    return outcome, counts, run_self, op["end"] - op["start"]


def _traced_here(state: dict, expected: dict, seconds: float, tracer: Tracer) -> dict:
    """Untraced and traced cycles alternate over the same programs; each
    traced op must reproduce the outcome ``repro.api.run`` gave."""
    from repro.api import RunConfig, resolve_config, run

    config = resolve_config(RunConfig(engine="rvm"))
    programs = state["programs"]
    untraced_s = traced_s = 0.0
    attempted = 0
    failures = []
    totals: dict[str, float] = {}
    runs = RunLayer()
    for _, source in programs:  # lazy imports, outside both passes
        run(source, config)
    deadline = time.perf_counter() + seconds
    while True:
        api_outcomes = {}
        for name, source in programs:
            begin = time.perf_counter()
            try:
                api_outcomes[name] = outcome_of_result(run(source, config))
            except Exception as exc:
                api_outcomes[name] = ("exception", repr(exc), None)
            untraced_s += time.perf_counter() - begin
        with lexing_instrumented(tracer):
            for name, source in programs:
                outcome, counts, run_self, op_s = _traced_op(tracer, source, config)
                traced_s += op_s
                attempted += 2
                got = outcome_of_machine(outcome)
                if got != api_outcomes[name] or got != expected[name]:
                    failures.append((name, got, api_outcomes[name]))
                for key, value in counts.items():
                    totals[key] = totals.get(key, 0) + value
                runs.add(config.semantics, run_self, run_stats(outcome))
        if time.perf_counter() >= deadline:
            break
    ops = len(tracer.roots())
    tokens = sum(span.get("tokens", 0) for span in tracer.spans if span["name"] == "lex")
    metrics = {key: value / ops for key, value in totals.items()}
    metrics["lex.tokens"] = tokens / ops
    metrics.update(runs.metrics())
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "ops": ops,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "detail": {"failures": failures[:5]},
    }
