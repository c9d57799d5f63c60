"""Experiment: the bytecode VM versus the CEK machine — and the optimizer
versus its own ``-O0`` baseline.

The compiler PR's claim: lowering elaborated λS terms to a flat bytecode —
coercions pre-interned, variables resolved to frame slots, dispatch on small
ints — beats the tree-walking CEK machine while preserving the λS space
guarantee.  The optimizer PR's claim on top: moving mediator work to compile
time (identity elision, static pre-composition with ``#``/``∘``) and
shrinking the dispatch stream (peephole superinstructions, inline mediator
caches) buys ≥ 1.5× again over the unoptimized VM on the boundary/tail
workloads.  This suite quantifies all three axes:

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
  where the win comes from: O1 is the static mediator work, O2 adds fusion
  + inline caches, the register rows isolate what dropping the operand
  stack and the instruction objects buys on top.
* **space** — ``max_pending_mediators`` stays constant (≤ 1, composed never
  stacked) on the boundary tail loops at every level; the optimizer may
  only *shrink* the footprint (an elided identity never runs); the register
  VM reproduces the stack VM's footprint exactly.

Standalone usage (writes the ``BENCH_vm.json`` artifact)::

    python benchmarks/bench_vm.py --json
"""

from __future__ import annotations

import math
import sys

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


def geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


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
