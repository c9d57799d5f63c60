"""``warm_run``: run-bound programs served from a filled compile cache.

Each op is ``repro.api.run(source, RunConfig(engine="rvm", semantics=s,
cache=True))`` against a cache directory filled during set-up, for four
boundary-crossing programs under all four enforcement semantics.  The
front end never runs; nearly all the time is dispatch and mediator
merging, which is the paper's space-efficiency scenario.  The tail loops
must also keep λS's space bound: at most one pending mediator.  The timed
and traced passes run in a spawned child (``common.in_child``).
"""

from __future__ import annotations

import random
import shutil
import time

from common import (SEMANTICS, WORK, Tracer, corrupt, count_into, cycle_for, in_child, instrumented,
                    outcome_of_result, traced_in_child, window_metrics)
from pipeline import RunLayer, run_stats

WHY = ("cache-warm runs of boundary-crossing loops under all four semantics: load "
       "plus run, where dispatch and mediator merging dominate")

#: Surface versions of the boundary workloads of ``repro.gen.programs``.
#: ``{n}`` sizes the work; ``{k}`` is a seeded constant that changes the
#: expected value but not the work.  Casts go through ``?``-typed code so
#: the optimizer cannot remove them statically.
PROGRAMS = {
    # Typed even/odd tail countdown; the untyped odd returns through ?.
    "tail_countdown": """\
(define (even [n : int]) : bool
  (let ([odd (lambda (m) (if (zero? m) (: #f ?) (: (even (- m 1)) ?)))])
    (if (zero? n) #t (odd (- n 1)))))
(if (even (+ {n} {k})) {k} (- 0 {k}))
""",
    # A typed loop whose step is untyped and whose result crosses ?.
    "typed_loop_untyped_step": """\
(define step : ? (lambda (x) (- x 1)))
(define (loop [n : int]) : int
  (if (zero? n) 0 (: (: (loop (step n)) ?) int)))
(+ (loop {n}) {k})
""",
    # Fibonacci whose recursive calls go through a proxy made at ?.
    "fib_through_dyn": """\
(define launder : ? (lambda (x) x))
(define (fib [n : int]) : int
  (if (< n 2) n
      (let ([self (: (launder fib) (-> int int))])
        (+ (self (- n 1)) (self (- n 2))))))
(+ (fib {n}) {k})
""",
    # A function re-wrapped through ? n times.
    "rewrap_through_dyn": """\
(define launder : ? (lambda (x) x))
(define (wrap [k : int] [f : (-> int int)]) : (-> int int)
  (if (zero? k) f (wrap (- k 1) (: (launder f) (-> int int)))))
((wrap {n} (lambda ([x : int]) (+ x 1))) {k})
""",
}

#: The programs the space bound applies to.
TAIL_LOOPS = ("tail_countdown", "typed_loop_untyped_step")

SIZES = {
    "full": {"tail_countdown": 3000, "typed_loop_untyped_step": 1200,
             "fib_through_dyn": 13, "rewrap_through_dyn": 1200},
    "tiny": {"tail_countdown": 40, "typed_loop_untyped_step": 40,
             "fib_through_dyn": 5, "rewrap_through_dyn": 40},
}


def _config(semantics: str, cache_dir: str):
    from repro.api import RunConfig

    return RunConfig(engine="rvm", semantics=semantics, cache=True, cache_dir=cache_dir)


def setup(seed: int, size: str) -> dict:
    """Render the programs and fill a fresh cache directory with their images."""
    from repro.api import run

    rng = random.Random(f"warm|{seed}")
    sources = {name: template.format(n=SIZES[size][name], k=rng.randint(1, 999))
               for name, template in PROGRAMS.items()}
    ops = [(name, semantics) for name in PROGRAMS for semantics in SEMANTICS]
    rng.shuffle(ops)
    cache_dir = WORK / "warm-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    configs = {semantics: _config(semantics, str(cache_dir)) for semantics in SEMANTICS}
    for name, semantics in ops:
        run(sources[name], configs[semantics])
    return {"sources": sources, "ops": ops, "configs": configs, "cache_dir": cache_dir}


def teardown(state: dict) -> None:
    shutil.rmtree(state["cache_dir"], ignore_errors=True)


def reference(state: dict, corrupted: bool) -> dict:
    """Expected outcomes from the CEK machine under the same semantics."""
    from repro.api import RunConfig, run

    expected = {
        (name, semantics): outcome_of_result(
            run(state["sources"][name], RunConfig(engine="machine", semantics=semantics)))
        for name, semantics in state["ops"]
    }
    if corrupted:
        op = state["ops"][0]
        expected[op] = corrupt(expected[op])
    return expected


def _space_bounded(semantics: str) -> bool:
    from repro.semantics import resolve

    return resolve(semantics).space_bounded


def _check(op, outcome: tuple, pending: int, expected: dict) -> str | None:
    """Why the op failed, or ``None``."""
    if outcome != expected[op]:
        return f"outcome {outcome} != {expected[op]}"
    if op[0] in TAIL_LOOPS and _space_bounded(op[1]) and pending > 1:
        return f"{pending} pending mediators on a tail loop"
    return None


def timed(state: dict, expected: dict, seconds: float) -> dict:
    return in_child(_timed_here, state, expected, seconds)


def traced(state: dict, expected: dict, seconds: float, tracer: Tracer) -> dict:
    return traced_in_child(tracer, _traced_here, state, expected, seconds)


def _perform(state: dict):
    """One op: ``repro.api.run`` as users call it, and what it returned."""
    import repro.api

    sources, configs = state["sources"], state["configs"]

    def perform(op):
        try:
            result = repro.api.run(sources[op[0]], configs[op[1]])
        except Exception as exc:  # an exception is a failed op, not a crash
            return ("exception", repr(exc), None), 0, None
        pending = (result.space_stats or {}).get("max_pending_mediators", 0)
        return outcome_of_result(result), pending, result.cache_status

    return perform


def _failures(samples: list, expected: dict) -> list:
    failures = []
    for op, _, (outcome, pending, _) in samples:
        reason = _check(op, outcome, pending, expected)
        if reason is not None:
            failures.append((op, reason))
    return failures


def _timed_here(state: dict, expected: dict, seconds: float) -> dict:
    region = cycle_for(seconds, state["ops"], _perform(state))
    samples = region.samples()
    failures = _failures(samples, expected)
    hits = sum(1 for _, _, output in samples if output[2] == "hit")
    metrics, windows = window_metrics(region)
    return {
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
        "peak_rss_mb": region.peak_rss_mb,
        "live_objects": region.live_objects,
        "detail": {"windows": windows, "cache_hit_ratio": hits / len(samples),
                   "failures": failures[:5]},
    }


def _traced_here(state: dict, expected: dict, seconds: float, tracer: Tracer) -> dict:
    """Untraced and traced passes alternate over the same ops, all through
    ``repro.api.run``; in the traced ones the cache lookup (``load``) and
    the register VM (``run``) it calls are wrapped in spans."""
    import repro.compiler.cache
    import repro.compiler.rvm

    def keep_stats(outcome, record, _args):
        record["stats"] = run_stats(outcome)

    points = [
        (repro.compiler.cache, "cache_lookup", "load", count_into("hit", lambda image: image is not None)),
        (repro.compiler.rvm, "run_rcode", "run", keep_stats),
    ]
    perform = _perform(state)
    for op in state["ops"]:  # lazy imports, outside both passes
        perform(op)
    untraced_s = traced_s = 0.0
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        for op in state["ops"]:
            begin = time.perf_counter()
            samples.append((op, 0.0, perform(op)))
            untraced_s += time.perf_counter() - begin
        with instrumented(tracer, points):
            for op in state["ops"]:
                with tracer.span("op", semantics=op[1]) as span:
                    samples.append((op, 0.0, perform(op)))
                traced_s += span["end"] - span["start"]
        if time.perf_counter() >= deadline:
            break
    failures = _failures(samples, expected)
    by_id = {span["id"]: span for span in tracer.spans}
    runs = RunLayer()
    for span in tracer.spans:
        if span["name"] == "run":
            runs.add(by_id[span["parent"]]["semantics"], span["end"] - span["start"], span["stats"])
    lookups = [span["hit"] for span in tracer.spans if span["name"] == "load"]
    return {
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {"cache.hit_ratio": sum(lookups) / len(lookups), **runs.metrics()},
        "ops": len(tracer.roots()),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "detail": {"failures": failures[:5]},
    }
