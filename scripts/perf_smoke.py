"""Perf-regression smoke: the optimizer's and the register VM's wins must
not quietly erode.

Re-measures the **two fastest** ``bench_vm`` workloads (fastest by the
committed artifact's ``-O2`` times, so the smoke costs seconds) and
compares two speedup geomeans against the ones recorded in the committed
``BENCH_vm.json``: ``-O2`` over ``-O0`` (the optimizer's win) and the
register VM over the ``-O2`` stack VM (the register IR's win).  The
comparison is on *speedup ratios*, not wall-clock seconds: CI machines are
arbitrarily slower or faster than the machine that recorded the baseline,
but the ratio between two runs of the same VMs on the same box is stable.
If either current ratio slips more than ``SLIP_TOLERANCE`` (25%) below the
committed one — someone pessimised the optimizer, the VM's fast paths, or
the register dispatch core — exit non-zero and fail the build.  The
``regalloc`` gate is measured the same way, without a committed baseline:
register conversion time over lower+optimize time on the shipped example
programs, against :data:`REGALLOC_RATIO`.  So is the ``lower`` gate:
lowering the examples' λB terms directly over translating them to λS and
lowering that, against :data:`LOWER_RATIO`.

Usage::

    python scripts/perf_smoke.py            # exit 0 ok, 1 regression
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from bench_vm import VM_WORKLOADS, calibrated_ratios, geomean, interleaved_best  # noqa: E402

from repro.compiler import compile_registers, compile_term, run_code, run_rcode  # noqa: E402

SLIP_TOLERANCE = 0.25
REPEAT = 5

#: The observability hooks' budget: with no tracer active, the vm/rvm hot
#: loops may not be more than 2% slower than the committed baseline.
TRACE_OVERHEAD_TOLERANCE = 0.02

#: Register conversion time over lower+optimize time, both ``-O2`` on the
#: shipped example programs, as measured once conversion became one pass
#: (CPython 3.11, 2-vCPU host).  The gate fails ``SLIP_TOLERANCE`` above it.
REGALLOC_RATIO = 0.70

#: Lowering λB directly over translating (``|·|BC`` then ``|·|CS``) and
#: lowering the λS image, on the shipped example programs, as measured once
#: lowering translated each distinct cast only once per process (CPython
#: 3.11, 2-vCPU host; 0.63 when each cast was translated at every site).
#: The gate fails ``SLIP_TOLERANCE`` above it.
LOWER_RATIO = 0.36


def _best(code, runner=run_code, repeat: int = REPEAT) -> float:
    runner(code)  # warmup
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        runner(code)
        timings.append(time.perf_counter() - start)
    return min(timings)


def main() -> int:
    baseline_path = REPO / "BENCH_vm.json"
    baseline = json.loads(baseline_path.read_text())
    by_name = {m["name"]: m for m in baseline["measurements"]}

    # The two fastest workloads by the committed -O2 run time.
    o2_times = {
        name: by_name[f"vm/S/O2/{name}"]["best_s"]
        for name in VM_WORKLOADS
        if f"vm/S/O2/{name}" in by_name
    }
    if len(o2_times) < 2:
        print(f"perf-smoke: {baseline_path.name} has no vm/S/O2 measurements; "
              "re-record with `python benchmarks/bench_vm.py --json`")
        return 1
    fastest = sorted(o2_times, key=o2_times.get)[:2]

    committed_opt = geomean(
        [by_name[f"speedup/{name}"]["o2_vs_o0"] for name in fastest]
    )
    committed_rvm = geomean(
        [by_name[f"speedup/{name}"]["rvm_vs_o2"] for name in fastest]
    )

    opt_ratios = []
    rvm_ratios = []
    for name in fastest:
        term_b, check, _ = VM_WORKLOADS[name]
        code_o0 = compile_term(term_b, opt_level=0)
        code_o2 = compile_term(term_b, opt_level=2)
        rcode_o2 = compile_registers(code_o2)
        outcome = run_code(code_o2)
        assert outcome.is_value and check(outcome.python_value()), name
        outcome = run_rcode(rcode_o2)
        assert outcome.is_value and check(outcome.python_value()), f"{name} (rvm)"
        best_o2 = _best(code_o2)
        opt_ratio = _best(code_o0) / best_o2
        rvm_ratio = best_o2 / _best(rcode_o2, runner=run_rcode)
        opt_ratios.append(opt_ratio)
        rvm_ratios.append(rvm_ratio)
        print(f"perf-smoke: {name}: -O2 over -O0 now {opt_ratio:.2f}x "
              f"(committed {by_name[f'speedup/{name}']['o2_vs_o0']:.2f}x), "
              f"rvm over -O2 now {rvm_ratio:.2f}x "
              f"(committed {by_name[f'speedup/{name}']['rvm_vs_o2']:.2f}x)")

    status = 0
    for label, current, committed in (
        ("-O2 over -O0", geomean(opt_ratios), committed_opt),
        ("rvm over -O2", geomean(rvm_ratios), committed_rvm),
    ):
        floor = committed * (1 - SLIP_TOLERANCE)
        verdict = "ok" if current >= floor else "REGRESSION"
        print(f"perf-smoke: {label} geomean {current:.2f}x vs committed "
              f"{committed:.2f}x (floor {floor:.2f}x): {verdict}")
        if current < floor:
            status = 1
    status |= trace_overhead_gate(by_name, fastest)
    status |= erasure_ceiling_gate()
    status |= regalloc_gate()
    status |= lower_gate()
    return status


def regalloc_gate() -> int:
    """Gate: register conversion may not grow against the compile work it
    follows.

    Both sides are timed in this process on the same programs — the shipped
    examples, translated to λS once — so the ratio is machine-stable like
    the speedups above: lower+optimize (the register pipeline's shared
    ``-O2`` passes, :func:`repro.compiler.opt.optimize`) against converting
    their output with ``compile_registers``.  Best of ``3 * REPEAT`` passes
    over the whole set each.
    """
    from repro.compiler.lower import lower_program
    from repro.compiler.opt import optimize
    from repro.surface.interp import compile_source
    from repro.translate import b_to_c, c_to_s

    programs = sorted((REPO / "examples" / "programs").glob("*.grad"))
    terms = [c_to_s(b_to_c(compile_source(path.read_text())[0])) for path in programs]

    def lower_and_optimize(terms: list) -> list:
        return [optimize(lower_program(term), 2) for term in terms]

    def convert(codes: list) -> list:
        return [compile_registers(code) for code in codes]

    front = _best(terms, runner=lower_and_optimize, repeat=3 * REPEAT)
    regalloc = _best(lower_and_optimize(terms), runner=convert, repeat=3 * REPEAT)
    ratio = regalloc / front
    ceiling = REGALLOC_RATIO * (1 + SLIP_TOLERANCE)
    if ratio <= ceiling:
        print(f"perf-smoke: regalloc over lower+optimize {ratio:.2f}x "
              f"(recorded {REGALLOC_RATIO:.2f}x, ceiling {ceiling:.2f}x): ok")
        return 0
    print(f"perf-smoke: regalloc REGRESSION: register conversion takes {ratio:.2f}x "
          f"lower+optimize on the same programs (recorded {REGALLOC_RATIO:.2f}x, "
          f"ceiling {ceiling:.2f}x)")
    return 1


def lower_gate() -> int:
    """Gate: lowering a λB term must stay cheaper than the translations it
    replaced.

    Both sides are timed in this process on the same programs, the shipped
    examples' elaborated λB terms: ``lower_term`` against
    ``lower_program(c_to_s(b_to_c(term)))``, which produces the same code.
    Passes alternate between the two sides, so a slow stretch of a shared
    host falls on both; best of ``3 * REPEAT`` passes over the whole set
    each.
    """
    from repro.compiler.lower import lower_program, lower_term
    from repro.surface.interp import compile_source
    from repro.translate import b_to_c, c_to_s

    programs = sorted((REPO / "examples" / "programs").glob("*.grad"))
    terms = [compile_source(path.read_text())[0] for path in programs]

    def direct() -> None:
        for term in terms:
            lower_term(term)

    def translated() -> None:
        for term in terms:
            lower_program(c_to_s(b_to_c(term)))

    best = interleaved_best({"direct": direct, "translated": translated}, 3 * REPEAT)
    ratio = best["direct"] / best["translated"]
    ceiling = LOWER_RATIO * (1 + SLIP_TOLERANCE)
    if ratio <= ceiling:
        print(f"perf-smoke: lower over translate+lower {ratio:.2f}x "
              f"(recorded {LOWER_RATIO:.2f}x, ceiling {ceiling:.2f}x): ok")
        return 0
    print(f"perf-smoke: lower REGRESSION: lowering λB takes {ratio:.2f}x "
          f"translating to λS and lowering that (recorded {LOWER_RATIO:.2f}x, "
          f"ceiling {ceiling:.2f}x)")
    return 1


def erasure_ceiling_gate() -> int:
    """Gate: Erasure is the speed ceiling — Natural must pay for enforcement.

    On the boundary-heavy workloads (where mediation actually runs), the
    erasure backend elides every mediator at ``-O1+``; if it is not at least
    as fast as the Natural (coercion) backend in geomean, either the elision
    broke or the Natural backend got a free lunch that should be
    investigated.  Measured live on this box across both engines — speedup
    ratios, like the gates above, are machine-stable.
    """
    from bench_mediators import ENGINE_WORKLOADS

    from repro.machine import run_on_machine

    ratios = []
    for name, term, boundary_heavy, _ in ENGINE_WORKLOADS:
        if not boundary_heavy:
            continue
        code_natural = compile_term(term, semantics="coercion")
        code_erased = compile_term(term, semantics="erasure")
        vm_ratio = _best(code_natural) / _best(code_erased)
        machine_ratio = _best(term, runner=lambda t: run_on_machine(t, "S")) / _best(
            term, runner=lambda t: run_on_machine(t, "S", semantics="erasure"))
        ratios.extend([vm_ratio, machine_ratio])
        print(f"perf-smoke: erasure ceiling on {name}: vm {vm_ratio:.2f}x, "
              f"machine {machine_ratio:.2f}x")

    ceiling = geomean(ratios)
    verdict = "ok" if ceiling >= 1.0 else "REGRESSION"
    print(f"perf-smoke: erasure over coercion geomean {ceiling:.2f}x "
          f"(floor 1.00x): {verdict}")
    return 0 if ceiling >= 1.0 else 1


def trace_overhead_gate(by_name: dict, fastest: list[str]) -> int:
    """Gate: untraced runs may not pay for the observability hooks.

    Every mediator lifecycle site in the vm/rvm dispatch loops now carries
    an ``if tracer is not None`` hook; with no tracer active that test must
    cost ~nothing.  Wall clock is not comparable across machines, so each
    run time is taken relative to bench_vm's :func:`calibration_loop`,
    fixed pure-Python work that no compiler or VM change moves, timed in
    turn with the run so that both see the same host, and the ratio is the
    median over fresh interpreters (:func:`calibrated_ratios`).
    ``BENCH_vm.json``'s ``calibrate/<workload>`` rows hold the same
    measurement from when the baseline was recorded, and the slowdown

        (run_now / loop_now) / (run_recorded / loop_recorded)

    is geomeaned per engine over the two fastest workloads.  Each engine is
    gated at ``TRACE_OVERHEAD_TOLERANCE``, so a failure names the dispatch
    loop that slowed.  An enabled-tracing run (ring buffer sink) is also
    measured, informationally — it is allowed to cost.
    """
    from repro.obs import RingBufferSink, tracing

    recorded = {name: by_name.get(f"calibrate/{name}") for name in fastest}
    if None in recorded.values():
        print("perf-smoke: BENCH_vm.json has no calibrate/* rows; re-record with "
              "`python benchmarks/bench_vm.py --json`")
        return 1
    now = calibrated_ratios(fastest)
    hosts = [now[name]["loop_s"] / recorded[name]["loop_s"] for name in fastest]
    slowdowns = {
        engine: [now[name][f"{engine}_over_loop"] / recorded[name][f"{engine}_over_loop"]
                 for name in fastest]
        for engine in ("vm", "rvm")
    }

    status = 0
    ceiling = 1 + TRACE_OVERHEAD_TOLERANCE
    for engine, values in slowdowns.items():
        slowdown = geomean(values)
        verdict = "ok" if slowdown <= ceiling else "REGRESSION"
        print(f"perf-smoke: {engine} disabled-tracing slowdown geomean {slowdown:.3f}x "
              f"(calibration {geomean(hosts):.2f}x, ceiling {ceiling:.2f}x): {verdict}")
        if slowdown > ceiling:
            status = 1

    # Informational: what tracing costs when it is actually on.
    name = fastest[0]
    rcode = compile_registers(compile_term(VM_WORKLOADS[name][0], opt_level=2))
    untraced = _best(rcode, runner=run_rcode)
    with tracing(RingBufferSink()):
        traced = _best(rcode, runner=run_rcode)
    print(f"perf-smoke: enabled-tracing (ring buffer) overhead on {name}: "
          f"{traced / untraced:.2f}x (informational)")
    return status


if __name__ == "__main__":
    sys.exit(main())
