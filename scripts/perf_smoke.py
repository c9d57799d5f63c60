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
the register dispatch core — exit non-zero and fail the build.

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

from bench_vm import VM_WORKLOADS, geomean  # noqa: E402

from repro.compiler import compile_registers, compile_term, run_code, run_rcode  # noqa: E402

SLIP_TOLERANCE = 0.25
REPEAT = 5

#: The observability hooks' budget: with no tracer active, the vm/rvm hot
#: loops may not be more than 2% slower than the committed baseline.
TRACE_OVERHEAD_TOLERANCE = 0.02


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
    return status


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
    cost ~nothing.  Wall clock is not comparable across machines, so the
    current run times are normalized by a *compile-time calibration ratio*:
    compilation has no hooks at all, so ``compile_now / compile_committed``
    measures only how this box compares to the one that recorded the
    baseline.  The calibrated slowdown

        (run_now / run_committed) / (compile_now / compile_committed)

    is geomeaned over {vm -O2, rvm -O2} × the two fastest workloads and
    gated at ``TRACE_OVERHEAD_TOLERANCE``.  An enabled-tracing run (ring
    buffer sink) is also measured, informationally — it is allowed to cost.
    """
    from repro.obs import RingBufferSink, tracing

    calib_names = [n for n in VM_WORKLOADS if f"compile/{n}" in by_name]
    if not calib_names:
        print("perf-smoke: no compile/* baseline entries; skipping trace gate")
        return 0

    def compile_all() -> None:
        for name in calib_names:
            compile_term(VM_WORKLOADS[name][0], opt_level=2)

    compile_all()  # warmup
    timings = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        compile_all()
        timings.append(time.perf_counter() - start)
    compile_now = min(timings)
    compile_committed = sum(by_name[f"compile/{n}"]["best_s"] for n in calib_names)
    calibration = compile_now / compile_committed

    slowdowns = []
    for name in fastest:
        term_b = VM_WORKLOADS[name][0]
        code_o2 = compile_term(term_b, opt_level=2)
        rcode_o2 = compile_registers(code_o2)
        for label, code, runner in (
            (f"vm/S/O2/{name}", code_o2, run_code),
            (f"rvm/S/O2/{name}", rcode_o2, run_rcode),
        ):
            committed = by_name.get(label)
            if committed is None:
                continue
            now = _best(code, runner=runner)
            slowdowns.append((now / committed["best_s"]) / calibration)

    if not slowdowns:
        print("perf-smoke: no vm/rvm O2 baseline entries; skipping trace gate")
        return 0
    slowdown = geomean(slowdowns)
    ceiling = 1 + TRACE_OVERHEAD_TOLERANCE
    verdict = "ok" if slowdown <= ceiling else "REGRESSION"
    print(f"perf-smoke: disabled-tracing slowdown geomean {slowdown:.3f}x "
          f"(calibration {calibration:.2f}x, ceiling {ceiling:.2f}x): {verdict}")

    # Informational: what tracing costs when it is actually on.
    name = fastest[0]
    rcode = compile_registers(compile_term(VM_WORKLOADS[name][0], opt_level=2))
    untraced = _best(rcode, runner=run_rcode)
    with tracing(RingBufferSink()):
        traced = _best(rcode, runner=run_rcode)
    print(f"perf-smoke: enabled-tracing (ring buffer) overhead on {name}: "
          f"{traced / untraced:.2f}x (informational)")
    return 0 if slowdown <= ceiling else 1


if __name__ == "__main__":
    sys.exit(main())
