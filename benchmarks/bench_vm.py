"""Experiment: the bytecode VM versus the CEK machine — and the optimizer
versus its own ``-O0`` baseline.

The compiler PR's claim: lowering elaborated λS terms to a flat bytecode —
coercions pre-interned, variables resolved to frame slots, dispatch on small
ints — beats the tree-walking CEK machine while preserving the λS space
guarantee.  The optimizer PR's claim on top: moving mediator work to compile
time (identity elision, static pre-composition with ``#``/``∘``) and
caching mediator work per instruction site (inline mediator caches) buys
≥ 1.5× again over the unoptimized VM on the boundary/tail workloads.  This suite quantifies all three axes:

* **time** — for each workload it times the λS CEK machine, the ``-O0`` VM,
  the ``-O2`` VM, and the ``-O2`` **register VM** (packed-stream dispatch
  over the register IR) on the same program (compilation excluded; measured
  separately) and records the speedups.  Acceptance bars: VM ≥ 1.5× over
  the machine per boundary workload (the PR-2 bar, still enforced),
  ``-O2`` ≥ 1.5× **geomean** over ``-O0`` across the boundary/tail
  workloads (the optimizer bar), and the register VM ≥ 2× geomean over the
  ``-O2`` stack VM on the same boundary/tail workloads (the register-IR
  bar).
* **ablation** — every workload × optimization level (O0/O1/O2) × mediator
  backend (coercion/threesome) × VM (stack/register), so the artifact shows
  where the win comes from: O1 is the static mediator work, O2 adds inline
  caches (and, on the register VM, register-pair fusion), the register
  rows isolate what dropping the operand stack and the instruction objects
  buys on top.
* **space** — ``max_pending_mediators`` stays constant (≤ 1, composed never
  stacked) on the boundary tail loops at every level; the optimizer may
  only *shrink* the footprint (an elided identity never runs); the register
  VM reproduces the stack VM's footprint exactly.
* **calibration** — per workload, the ``-O2`` stack and register run
  times over that of :func:`calibration_loop`, fixed pure-Python work
  timed in turn with them, and register conversion of the shipped example
  programs measured the same way (``calibrate/regalloc``);
  ``scripts/perf_smoke.py`` gates these ratios.

Standalone usage (writes the ``BENCH_vm.json`` artifact)::

    python benchmarks/bench_vm.py --json
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

import pytest

import harness

from repro.compiler import compile_registers, compile_term, run_code, run_rcode
from repro.gen.programs import (
    even_odd_boundary,
    even_odd_expected,
    fib_boundary,
    fib_expected,
    let_chain_boundary,
    tail_countdown_boundary,
    typed_loop_untyped_step,
)
from repro.machine import run_on_machine
from repro.semantics import NATURAL_SEMANTICS_NAMES

#: name -> (λB term, correctness check, is a tail-loop/boundary workload)
VM_WORKLOADS = {
    "even_odd_400": (even_odd_boundary(400), lambda v: v is even_odd_expected(400), True),
    "typed_loop_300": (typed_loop_untyped_step(300), lambda v: v == 0, True),
    "tail_countdown_400": (tail_countdown_boundary(400), lambda v: v is True, True),
    "let_chain_200": (let_chain_boundary(200), lambda v: v == 200, False),
    "fib_12": (fib_boundary(12), lambda v: v == fib_expected(12), False),
}

SPEEDUP_TARGET = 1.5
OPT_SPEEDUP_TARGET = 1.5  # -O2 vs -O0, geomean over boundary/tail workloads
RVM_SPEEDUP_TARGET = 2.0  # rvm vs -O2 stack VM, geomean over boundary/tail

OPT_LEVELS = (0, 1, 2)

#: Countdown length of :func:`calibration_loop` (~0.4 ms on a 2-vCPU host).
CALIBRATION_STEPS = 3000

#: Interleaved rounds of :func:`calibration_loop` and the runs per process.
CALIBRATION_ROUNDS = 200

#: Fresh interpreters each ``calibrate/*`` ratio is the median over: a run's
#: time relative to the loop moves by a few percent from one process to the
#: next, more than ``scripts/perf_smoke.py``'s tolerance.
CALIBRATION_PROCESSES = 5

#: The programs ``calibrate/regalloc`` converts to register code.
EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"


def geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def calibration_loop(steps: int = CALIBRATION_STEPS) -> int:
    """Fixed pure-Python work that no change to the compiler or the VMs
    moves: a two-instruction register machine counting ``steps`` down,
    shaped like a dispatch loop (fetch, decode, compare, branch).  Returns
    the instructions it executed.  Run times are recorded and gated as
    multiples of its time (:func:`calibrated_ratios`), which cancels how
    fast the host is."""
    program = ((0, 0, 1), (1, 0, 0), (2, 0, 0))  # r0 -= 1; if r0: goto 0; halt
    regs = [steps]
    pc = executed = 0
    while True:
        op, register, operand = program[pc]
        executed += 1
        if op == 0:
            regs[register] -= operand
            pc += 1
        elif op == 1:
            pc = operand if regs[register] else pc + 1
        else:
            return executed


def interleaved_best(runners: dict, rounds: int) -> dict:
    """Best time of each of ``runners`` (name → no-argument callable) over
    ``rounds`` rounds that call every runner once, in turn, so a slow
    stretch of a shared host falls on all of them; one warmup call each."""
    best = dict.fromkeys(runners, float("inf"))
    for runner in runners.values():
        runner()
    for _ in range(rounds):
        for name, runner in runners.items():
            start = time.perf_counter()
            runner()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def calibrated_ratios(names) -> dict:
    """Per workload in ``names``: ``vm_over_loop`` and ``rvm_over_loop``,
    the best time of its ``-O2`` stack and register runs over the best time
    of :func:`calibration_loop`, timed in turn (:func:`interleaved_best`),
    and ``loop_s``; each the median over ``CALIBRATION_PROCESSES`` fresh
    interpreters that time that workload alone.  Recorded as the
    ``calibrate/*`` rows, and measured again the same way by
    ``scripts/perf_smoke.py``."""
    names = list(names)
    return dict(zip(names, _medians_over_processes(_calibrated_here, names)))


def calibrated_regalloc() -> dict:
    """``regalloc_over_loop``: the best time of ``compile_registers`` over
    the shipped example programs' ``-O2`` code, as the register pipeline
    hands it over, over the best time of :func:`calibration_loop`, timed in
    turn; and ``loop_s``.  Each is the median over
    ``CALIBRATION_PROCESSES`` fresh interpreters.  Recorded as the
    ``calibrate/regalloc`` row, and measured again the same way by
    ``scripts/perf_smoke.py``'s regalloc gate."""
    return _medians_over_processes(_regalloc_here, [None])[0]


def _medians_over_processes(sample, args: list) -> list[dict]:
    """Per argument, the median of each key of ``sample(arg)`` over
    ``CALIBRATION_PROCESSES`` fresh interpreters, one sample each."""
    runs = CALIBRATION_PROCESSES
    context = multiprocessing.get_context("spawn")
    with context.Pool(1, maxtasksperchild=1) as pool:
        samples = pool.map(sample, [arg for arg in args for _ in range(runs)], chunksize=1)
    by_arg = [samples[i * runs:(i + 1) * runs] for i in range(len(args))]
    return [{key: statistics.median(one[key] for one in mine) for key in mine[0]}
            for mine in by_arg]


def _calibrated_here(name: str) -> dict:
    """One process's sample for :func:`calibrated_ratios`."""
    assert calibration_loop() == 2 * CALIBRATION_STEPS + 1
    code_o2 = compile_term(VM_WORKLOADS[name][0], opt_level=2)
    rcode_o2 = compile_registers(code_o2)
    best = interleaved_best({
        "loop": calibration_loop,
        "vm": lambda: run_code(code_o2),
        "rvm": lambda: run_rcode(rcode_o2),
    }, CALIBRATION_ROUNDS)
    return {"vm_over_loop": best["vm"] / best["loop"],
            "rvm_over_loop": best["rvm"] / best["loop"], "loop_s": best["loop"]}


def _regalloc_here(_arg) -> dict:
    """One process's sample for :func:`calibrated_regalloc`."""
    from repro.compiler.lower import lower_for
    from repro.compiler.opt import optimize
    from repro.surface.interp import compile_source

    assert calibration_loop() == 2 * CALIBRATION_STEPS + 1
    codes = []
    for path in sorted(EXAMPLES.glob("*.grad")):
        code = lower_for(compile_source(path.read_text())[0], "coercion")
        optimize(code, 2)
        codes.append(code)

    def convert() -> None:
        for code in codes:
            compile_registers(code)

    best = interleaved_best({"loop": calibration_loop, "regalloc": convert}, CALIBRATION_ROUNDS)
    return {"regalloc_over_loop": best["regalloc"] / best["loop"], "loop_s": best["loop"]}


def build_suite(repeat: int) -> harness.Suite:
    suite = harness.Suite("vm", repeat)
    opt_ratios_boundary: list[float] = []
    rvm_ratios_boundary: list[float] = []
    for name, (term_b, check, boundary) in VM_WORKLOADS.items():
        suite.measure(
            f"compile/{name}",
            lambda term_b=term_b: compile_term(term_b),
            workload=name, stage="compile",
        )
        code_o0 = compile_term(term_b, opt_level=0)
        code_o2 = compile_term(term_b, opt_level=2)
        suite.measure(
            f"compile/registers/{name}",
            lambda code_o2=code_o2: compile_registers(code_o2),
            workload=name, stage="regalloc",
        )
        rcode_o2 = compile_registers(code_o2)
        machine = suite.measure(
            f"machine/S/{name}",
            lambda term_b=term_b: run_on_machine(term_b, "S"),
            check=lambda outcome, check=check: outcome.is_value and check(outcome.python_value()),
            engine="machine", workload=name,
        )
        stats_box: dict = {}

        def vm_check(outcome, check=check, stats_box=stats_box, key="stats"):
            stats_box[key] = outcome.stats  # reuse the warmup run's stats
            return outcome.is_value and check(outcome.python_value())

        vm_o0 = suite.measure(
            f"vm/S/O0/{name}",
            lambda code=code_o0: run_code(code),
            check=lambda outcome: vm_check(outcome, key="o0"),
            engine="vm", opt_level=0, workload=name,
        )
        vm_o2 = suite.measure(
            f"vm/S/O2/{name}",
            lambda code=code_o2: run_code(code),
            check=lambda outcome: vm_check(outcome, key="o2"),
            engine="vm", opt_level=2, workload=name,
        )
        rvm_o2 = suite.measure(
            f"rvm/S/O2/{name}",
            lambda rcode=rcode_o2: run_rcode(rcode),
            check=lambda outcome: vm_check(outcome, key="rvm"),
            engine="rvm", opt_level=2, workload=name,
        )
        opt_ratio = vm_o0.best_s / vm_o2.best_s
        rvm_ratio = vm_o2.best_s / rvm_o2.best_s
        if boundary:
            opt_ratios_boundary.append(opt_ratio)
            rvm_ratios_boundary.append(rvm_ratio)
        suite.record(
            f"speedup/{name}",
            vm_vs_machine=round(machine.best_s / vm_o2.best_s, 2),
            o2_vs_o0=round(opt_ratio, 2),
            rvm_vs_o2=round(rvm_ratio, 2),
            tail_loop_or_boundary=boundary,
            meets_target=machine.best_s / vm_o2.best_s >= SPEEDUP_TARGET,
            workload=name,
        )
        stats_o0, stats_o2 = stats_box["o0"], stats_box["o2"]
        stats_rvm = stats_box["rvm"]
        assert stats_o2["max_pending_mediators"] <= stats_o0["max_pending_mediators"], (
            f"{name}: -O2 grew the pending-mediator footprint"
        )
        assert stats_rvm["max_pending_mediators"] == stats_o2["max_pending_mediators"], (
            f"{name}: the register VM changed the pending-mediator footprint"
        )
        suite.record(
            f"space/{name}",
            max_pending_mediators=stats_o2["max_pending_mediators"],
            max_pending_size=stats_o2["max_pending_size"],
            max_kont_depth=stats_o2["max_kont_depth"],
            vm_instructions=stats_o2["steps"],
            vm_instructions_o0=stats_o0["steps"],
            rvm_instructions=stats_rvm["steps"],
            max_pending_mediators_o0=stats_o0["max_pending_mediators"],
            max_pending_mediators_rvm=stats_rvm["max_pending_mediators"],
            workload=name,
        )

    # The optimizer acceptance bar: -O2 over -O0, geomean on boundary/tail.
    opt_geomean = geomean(opt_ratios_boundary)
    suite.record(
        "speedup/opt_geomean_boundary",
        o2_vs_o0_geomean=round(opt_geomean, 3),
        target=OPT_SPEEDUP_TARGET,
        meets_target=opt_geomean >= OPT_SPEEDUP_TARGET,
        workloads=[n for n, (_, _, b) in VM_WORKLOADS.items() if b],
    )

    # The register-IR acceptance bar: rvm over the -O2 stack VM, geomean on
    # the same boundary/tail workloads.
    rvm_geomean = geomean(rvm_ratios_boundary)
    suite.record(
        "speedup/rvm_geomean_boundary",
        rvm_vs_o2_geomean=round(rvm_geomean, 3),
        target=RVM_SPEEDUP_TARGET,
        meets_target=rvm_geomean >= RVM_SPEEDUP_TARGET,
        workloads=[n for n, (_, _, b) in VM_WORKLOADS.items() if b],
    )

    for name, ratios in calibrated_ratios(VM_WORKLOADS).items():
        suite.record(f"calibrate/{name}", **ratios, rounds=CALIBRATION_ROUNDS,
                     processes=CALIBRATION_PROCESSES, workload=name)
    suite.record("calibrate/regalloc", **calibrated_regalloc(), rounds=CALIBRATION_ROUNDS,
                 processes=CALIBRATION_PROCESSES,
                 programs=len(list(EXAMPLES.glob("*.grad"))))

    # Ablation: every workload × opt level × mediator backend × VM.
    for name, (term_b, check, boundary) in VM_WORKLOADS.items():
        for semantics in NATURAL_SEMANTICS_NAMES:
            for level in OPT_LEVELS:
                code = compile_term(term_b, semantics=semantics, opt_level=level)
                suite.measure(
                    f"ablation/{name}/{semantics}/O{level}",
                    lambda code=code: run_code(code),
                    check=lambda outcome, check=check: (
                        outcome.is_value and check(outcome.python_value())
                    ),
                    workload=name, semantics=semantics, opt_level=level,
                    tail_loop_or_boundary=boundary,
                )
                rcode = compile_registers(code)
                suite.measure(
                    f"ablation/{name}/{semantics}/rvm/O{level}",
                    lambda rcode=rcode: run_rcode(rcode),
                    check=lambda outcome, check=check: (
                        outcome.is_value and check(outcome.python_value())
                    ),
                    workload=name, semantics=semantics, opt_level=level,
                    engine="rvm", tail_loop_or_boundary=boundary,
                )
    return suite


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/bench_vm.py)
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="vm-throughput")
@pytest.mark.parametrize("opt_level", [0, 2], ids=["O0", "O2"])
@pytest.mark.parametrize("name", sorted(VM_WORKLOADS))
def test_vm_throughput(benchmark, name, opt_level):
    term_b, check, _ = VM_WORKLOADS[name]
    code = compile_term(term_b, opt_level=opt_level)

    def run():
        return run_code(code)

    outcome = benchmark(run)
    assert outcome.is_value and check(outcome.python_value())
    benchmark.extra_info["workload"] = name
    benchmark.extra_info["opt_level"] = opt_level
    benchmark.extra_info["vm_instructions"] = outcome.stats["steps"]
    benchmark.extra_info["max_pending_mediators"] = outcome.stats["max_pending_mediators"]


@pytest.mark.benchmark(group="rvm-throughput")
@pytest.mark.parametrize("name", sorted(VM_WORKLOADS))
def test_rvm_throughput(benchmark, name):
    term_b, check, _ = VM_WORKLOADS[name]
    rcode = compile_registers(compile_term(term_b, opt_level=2))

    def run():
        return run_rcode(rcode)

    outcome = benchmark(run)
    assert outcome.is_value and check(outcome.python_value())
    benchmark.extra_info["workload"] = name
    benchmark.extra_info["rvm_instructions"] = outcome.stats["steps"]
    benchmark.extra_info["max_pending_mediators"] = outcome.stats["max_pending_mediators"]


@pytest.mark.benchmark(group="vm-compile")
@pytest.mark.parametrize("name", sorted(VM_WORKLOADS))
def test_compile_throughput(benchmark, name):
    term_b, _, _ = VM_WORKLOADS[name]
    code = benchmark(lambda: compile_term(term_b))
    assert code.instructions
    benchmark.extra_info["workload"] = name


if __name__ == "__main__":
    sys.exit(harness.main("vm", build_suite))
