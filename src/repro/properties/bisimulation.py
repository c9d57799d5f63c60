"""Executable bisimulation checks between the calculi (Propositions 11 and 16).

* λB ↔ λC (Proposition 11) is a **lockstep** bisimulation: one step on one
  side corresponds to exactly one step on the other, and the translation
  ``|·|BC`` of the λB reduct is *syntactically* the λC reduct.  The checker
  runs both machines side by side and verifies this at every step.

* λC ↔ λS (Proposition 16) is **not** lockstep — one λC step may correspond
  to zero or more λS steps and vice versa.  The checker verifies the
  observable consequences: both sides produce the same outcome (value /
  blame-with-the-same-label / timeout), related values erase to α-equivalent
  terms, and the λS side never holds two adjacent coercions in evaluation
  position after a merge opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.terms import Blame, Coerce, Term, alpha_equal, erase, subterms
from ..translate.b_to_c import term_to_lambda_c
from ..translate.c_to_s import term_to_lambda_s
from .calculi import CALCULI, LAMBDA_B, LAMBDA_C, LAMBDA_S


@dataclass(frozen=True)
class BisimulationReport:
    ok: bool
    steps_left: int
    steps_right: int
    reason: str = ""
    left_term: Term | None = None
    right_term: Term | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


# ---------------------------------------------------------------------------
# λB ↔ λC: lockstep (Proposition 11)
# ---------------------------------------------------------------------------


def check_lockstep_b_c(term_b: Term, fuel: int = 5_000) -> BisimulationReport:
    """Run λB and λC side by side, checking the lockstep correspondence."""
    current_b = term_b
    current_c = term_to_lambda_c(term_b)

    for steps in range(fuel):
        translated = term_to_lambda_c(current_b) if not isinstance(current_b, Blame) else current_b
        if not alpha_equal(translated, current_c):
            return BisimulationReport(
                False, steps, steps,
                "translation of the λB state differs from the λC state",
                current_b, current_c,
            )

        b_is_value = LAMBDA_B.is_value(current_b)
        c_is_value = LAMBDA_C.is_value(current_c)
        b_is_blame = isinstance(current_b, Blame)
        c_is_blame = isinstance(current_c, Blame)

        if b_is_value != c_is_value:
            return BisimulationReport(
                False, steps, steps, "value on one side but not the other", current_b, current_c
            )
        if b_is_blame != c_is_blame:
            return BisimulationReport(
                False, steps, steps, "blame on one side but not the other", current_b, current_c
            )
        if b_is_blame and current_b.label != current_c.label:
            return BisimulationReport(
                False, steps, steps, "blame labels differ", current_b, current_c
            )
        if b_is_value or b_is_blame:
            return BisimulationReport(True, steps, steps)

        next_b = LAMBDA_B.step(current_b)
        next_c = LAMBDA_C.step(current_c)
        if next_b is None or next_c is None:
            return BisimulationReport(
                False, steps, steps, "one side stopped while the other still steps",
                current_b, current_c,
            )
        current_b, current_c = next_b, next_c

    return BisimulationReport(True, fuel, fuel, "fuel exhausted (no violation observed)")


# ---------------------------------------------------------------------------
# λC ↔ λS: outcome bisimulation (Proposition 16)
# ---------------------------------------------------------------------------


def max_adjacent_merged_coercions(term: Term) -> int:
    """The longest chain of immediately nested coercion applications in a λS term."""
    def chain(t: Term) -> int:
        if isinstance(t, Coerce):
            return 1 + chain(t.subject)
        return 0

    return max((chain(t) for t in subterms(term)), default=0)


def check_outcomes_c_s(term_c: Term, fuel: int = 50_000) -> BisimulationReport:
    """Check that a λC term and its λS translation agree observationally.

    Also verifies the space-efficiency invariant: along the λS trace, the
    longest chain of stacked coercion applications never exceeds
    ``2·static + 1``, where ``static`` is the nesting already present in the
    translated program.  The transient worst case arises when a ``let`` or β
    step dissolves a binder and fuses three previously separated chains: the
    coercions above the redex (≤ static), the coercions around the
    substituted variable (≤ static), and the value's own coercion layer
    (≤ 1, by the λS value grammar).  The merge rule then fires with priority
    until the chain is a single coercion, before any other redex runs, so
    the bound is invariant along the whole trace.  In λC, by contrast, this
    chain is unbounded — that contrast is measured by
    ``benchmarks/bench_space.py``.
    """
    term_s = term_to_lambda_s(term_c)

    outcome_c = LAMBDA_C.run(term_c, fuel)
    steps_c = outcome_c.steps
    static_bound = 2 * max(max_adjacent_merged_coercions(term_s), 1) + 1

    # Walk the λS trace explicitly so we can check the merge invariant.
    current = term_s
    steps_s = 0
    outcome_s_kind = "timeout"
    outcome_s_value = None
    outcome_s_label = None
    for steps_s in range(fuel + 1):
        if isinstance(current, Blame):
            outcome_s_kind, outcome_s_label = "blame", current.label
            break
        if LAMBDA_S.is_value(current):
            outcome_s_kind, outcome_s_value = "value", current
            break
        if max_adjacent_merged_coercions(current) > static_bound:
            return BisimulationReport(
                False, steps_c, steps_s,
                f"λS state stacks more than {static_bound} coercions", term_c, current,
            )
        nxt = LAMBDA_S.step(current)
        if nxt is None:
            return BisimulationReport(
                False, steps_c, steps_s, "λS term is stuck", term_c, current
            )
        current = nxt

    if outcome_c.is_timeout or outcome_s_kind == "timeout":
        ok = outcome_c.is_timeout and outcome_s_kind == "timeout"
        return BisimulationReport(ok, steps_c, steps_s,
                                  "" if ok else "one side timed out, the other finished",
                                  term_c, current)

    if outcome_c.is_blame or outcome_s_kind == "blame":
        if not (outcome_c.is_blame and outcome_s_kind == "blame"):
            return BisimulationReport(
                False, steps_c, steps_s, "blame on one side only", term_c, current
            )
        if outcome_c.label != outcome_s_label:
            return BisimulationReport(
                False, steps_c, steps_s,
                f"blame labels differ: {outcome_c.label} vs {outcome_s_label}",
                term_c, current,
            )
        return BisimulationReport(True, steps_c, steps_s)

    # Both values: they must erase to α-equivalent underlying terms.
    if not alpha_equal(erase(outcome_c.term), erase(outcome_s_value)):
        return BisimulationReport(
            False, steps_c, steps_s, "values erase to different terms",
            outcome_c.term, outcome_s_value,
        )
    return BisimulationReport(True, steps_c, steps_s)


def check_outcomes_b_c_s(term_b: Term, fuel: int = 50_000) -> BisimulationReport:
    """End-to-end agreement of all three calculi on a λB program."""
    lockstep = check_lockstep_b_c(term_b, min(fuel, 5_000))
    if not lockstep.ok:
        return lockstep
    return check_outcomes_c_s(term_to_lambda_c(term_b), fuel)


# ---------------------------------------------------------------------------
# Engine ↔ oracle: the CEK machine against the substitution reducers
# ---------------------------------------------------------------------------


def reducer_value_to_python(term: Term) -> object:
    """Project a substitution-reducer value to a Python observable.

    Mirrors :func:`repro.machine.values.machine_value_to_python`: constants
    project to themselves, pairs componentwise, functions to the opaque
    ``"<function>"`` marker, and mediator wrappers (casts/coercions) are
    looked through via erasure.
    """
    from ..core.terms import Const, Lam, Fix, Pair, erase

    stripped = erase(term)

    def project(t: Term) -> object:
        if isinstance(t, Const):
            return t.value
        if isinstance(t, Pair):
            return (project(t.left), project(t.right))
        if isinstance(t, (Lam, Fix)):
            return "<function>"
        return str(t)

    return project(stripped)


def check_engine_oracle(
    term_b: Term,
    calculus: str = "S",
    machine_fuel: int = 2_000_000,
    subst_fuel: int = 100_000,
    strict_timeouts: bool = False,
) -> BisimulationReport:
    """Check the production engine against the reference oracle on one program.

    Runs the λB program on the CEK machine of the chosen calculus and on the
    corresponding paper-faithful substitution reducer, and compares the
    observable outcome: the projected value, the blame label, or timeout.
    The two fuel budgets are measured in different units (machine steps
    versus reduction steps); when exactly one side exhausts its fuel the
    comparison is inconclusive and reported as ok unless ``strict_timeouts``.
    """
    from ..machine import run_on_machine
    from ..translate import b_to_c, b_to_s

    calculus = calculus.upper()
    machine_outcome = run_on_machine(term_b, calculus, machine_fuel)

    if calculus == "B":
        oracle_term = term_b
    elif calculus == "C":
        oracle_term = b_to_c(term_b)
    elif calculus == "S":
        oracle_term = b_to_s(term_b)
    else:
        raise ValueError(f"unknown calculus {calculus!r}")
    oracle_outcome = CALCULI[calculus].run(oracle_term, subst_fuel)

    steps_m = (machine_outcome.stats or {}).get("steps", 0)
    return _compare_outcomes(
        machine_outcome, oracle_outcome, steps_m, oracle_outcome.steps,
        "engine", "oracle", term_b, strict_timeouts,
        project_right=lambda outcome: reducer_value_to_python(outcome.term),
        right_term=oracle_term,
    )


def check_engine_oracle_all(term_b: Term, **kwargs) -> BisimulationReport:
    """Engine/oracle agreement on all three calculi; first failure wins."""
    for calculus in ("B", "C", "S"):
        report = check_engine_oracle(term_b, calculus, **kwargs)
        if not report.ok:
            return report
    return report


# ---------------------------------------------------------------------------
# VM ↔ oracles: the bytecode VM against the CEK machine and the reducers
# ---------------------------------------------------------------------------


def check_vm_oracle(
    term_b: Term,
    vm_fuel: int = 10_000_000,
    machine_fuel: int = 2_000_000,
    subst_fuel: int = 100_000,
    strict_timeouts: bool = False,
    check_subst: bool = True,
    check_rvm: bool = True,
) -> BisimulationReport:
    """Check the bytecode VMs against their oracles on one λB program.

    Exactly as PR 1 kept the substitution reducers as the machine's oracle,
    the CEK machine is the VM's oracle: the program is compiled to bytecode
    and run on the VM, run on the λS CEK machine, and (unless
    ``check_subst=False``) run on the λS substitution reducer; all
    observables must agree — the projected value, the blame *label*, or
    timeout.  As in :func:`check_engine_oracle`, the fuels are in different
    units, so a timeout on only one side is inconclusive rather than a
    failure unless ``strict_timeouts``.

    The register VM (``repro.compiler.rvm``) is under the same oracle
    (unless ``check_rvm=False``): the same program register-compiled must
    agree with the stack VM at ``-O2`` *and* at ``-O0``, and — when neither
    run times out — must reproduce the stack VM's pending-mediator
    footprint exactly: register allocation moves operands out of the
    operand stack, never a mediator out of its single pending slot.  (The
    two VMs' step units differ — a register instruction does the work of
    about two stack instructions — so one-sided timeouts between them are
    always inconclusive.)

    Additionally sanity-checks the VM's space accounting: the run must never
    report more pending coercions than live frames
    (``max_pending_mediators ≤ max_kont_depth + 1``).  This is a structural
    invariant of the one-pending-slot-per-frame design; the sharper,
    workload-scaling guarantee — a pending footprint *constant in the
    iteration count* on boundary tail loops — is asserted by
    ``tests/test_compiler.py`` (two sizes compared) and recorded per
    workload by ``benchmarks/bench_vm.py``.

    The optimizer is under the same oracle: the program is run at ``-O0``
    (the raw lowered stream) and at ``-O2`` (elision, pre-composition,
    superinstructions, inline caches) and the two must agree on the
    projected value, the blame label, and timeouts; on top of the outcome,
    ``-O2`` may only *shrink* the pending-mediator footprint (a statically
    elided identity is one fewer pending mediator, never one more).
    """
    from ..compiler import run_on_vm
    from ..machine import run_on_machine

    vm_outcome = run_on_vm(term_b, vm_fuel)  # the default -O2
    machine_outcome = run_on_machine(term_b, "S", machine_fuel)

    steps_vm = (vm_outcome.stats or {}).get("steps", 0)
    steps_m = (machine_outcome.stats or {}).get("steps", 0)

    stats = vm_outcome.stats or {}
    if stats.get("max_pending_mediators", 0) > stats.get("max_kont_depth", 0) + 1:
        return BisimulationReport(
            False, steps_vm, steps_m,
            f"VM stacked pending coercions: {stats['max_pending_mediators']} pending "
            f"across {stats['max_kont_depth'] + 1} frames",
            term_b, None,
        )

    # -O0 against -O2 (same engine, same step unit per instruction, but the
    # fused stream takes fewer steps — so a one-sided timeout is *expected*
    # near the fuel limit and always inconclusive, even when the caller
    # asked for strict timeouts against the other oracles; this matches
    # check_mediator_oracle's -O0/-O2 comparison).
    unopt_outcome = run_on_vm(term_b, vm_fuel, opt_level=0)
    steps_unopt = (unopt_outcome.stats or {}).get("steps", 0)
    report = _compare_outcomes(vm_outcome, unopt_outcome, steps_vm, steps_unopt,
                               "VM/-O2", "VM/-O0", term_b, strict_timeouts=False)
    if not report.ok:
        return report
    pending_o2 = stats.get("max_pending_mediators", 0)
    pending_o0 = (unopt_outcome.stats or {}).get("max_pending_mediators", 0)
    if pending_o2 > pending_o0:
        return BisimulationReport(
            False, steps_vm, steps_unopt,
            f"-O2 grew the pending-mediator footprint: {pending_o2} vs -O0's {pending_o0}",
            term_b, None,
        )

    if check_rvm:
        from ..compiler import run_on_rvm

        for level, stack_outcome in ((2, vm_outcome), (0, unopt_outcome)):
            rvm_outcome = run_on_rvm(term_b, vm_fuel, opt_level=level)
            steps_r = (rvm_outcome.stats or {}).get("steps", 0)
            steps_s = (stack_outcome.stats or {}).get("steps", 0)
            report = _compare_outcomes(
                rvm_outcome, stack_outcome, steps_r, steps_s,
                f"rVM/-O{level}", f"VM/-O{level}", term_b, strict_timeouts=False,
            )
            if not report.ok:
                return report
            if not (rvm_outcome.is_timeout or stack_outcome.is_timeout):
                rstats = rvm_outcome.stats or {}
                sstats = stack_outcome.stats or {}
                for key in ("max_pending_mediators", "max_pending_size"):
                    if rstats.get(key, 0) != sstats.get(key, 0):
                        return BisimulationReport(
                            False, steps_r, steps_s,
                            f"register VM changed the space profile at -O{level}: "
                            f"{key} {rstats.get(key, 0)} vs stack VM's {sstats.get(key, 0)}",
                            term_b, None,
                        )

    report = _compare_outcomes(vm_outcome, machine_outcome, steps_vm, steps_m,
                               "VM", "machine", term_b, strict_timeouts)
    if not report.ok or not check_subst:
        return report

    oracle_outcome = CALCULI["S"].run(
        term_to_lambda_s(term_to_lambda_c(term_b)), subst_fuel
    )
    return _compare_outcomes(
        vm_outcome, oracle_outcome, steps_vm, oracle_outcome.steps,
        "VM", "subst", term_b, strict_timeouts,
        project_right=lambda outcome: reducer_value_to_python(outcome.term),
    )


# ---------------------------------------------------------------------------
# Mediator backends: coercions (#) against threesomes (∘) on machine and VM
# ---------------------------------------------------------------------------


def check_mediator_oracle(
    term_b: Term,
    machine_fuel: int = 2_000_000,
    vm_fuel: int = 10_000_000,
    check_vm: bool = True,
    check_rvm: bool = True,
) -> BisimulationReport:
    """Check the threesome mediator backend against the coercion backend.

    The paper's §6.1 claims threesomes and space-efficient coercions are two
    presentations of the same thing; this check makes the claim executable on
    one λB program.  It runs the λS CEK machine and (unless
    ``check_vm=False``) the bytecode VM under **both** pending-mediator
    representations and requires agreement of every observable:

    * the outcome — projected value, blame *label*, or timeout.  Within one
      engine the two backends take identical step counts (the representation
      changes only what a pending mediator *is*, not when one is pushed or
      merged), so timeouts are compared strictly;
    * the space profile — ``max_pending_mediators`` must be equal backend to
      backend: composing with ``∘`` must collapse pending mediators exactly
      where ``#`` does (on boundary tail loops both stay at 1, the λS space
      guarantee).

    The VM half also runs each backend at ``-O0`` against the default
    ``-O2``: outcomes must agree and the optimized footprint may only
    shrink — the optimizer's rewrites (identity elision, static
    pre-composition, fusion, inline caches) are mediator-representation
    independent and this is where that is enforced.

    The register VM (unless ``check_rvm=False``) is held to the same
    standard: both backends register-compiled must agree with each other
    (strictly — within the rvm the two backends take identical dispatch
    counts, exactly as within the stack VM) and with the stack VM's
    coercion backend, with equal pending-mediator footprints throughout.

    Beyond the two Natural backends, every remaining entry of the
    enforcement-semantics registry (``transient``, ``erasure``) is checked
    against the Natural baseline on each engine of the matrix —
    {machine, VM, rVM} × {coercion, threesome, transient, erasure} — under
    the registry's capability flags:

    * a backend with ``blames=False`` (Erasure) must **never** end in blame,
      on any program.  It may instead crash with a dynamic type error
      (:class:`~repro.core.errors.EvaluationError`) — but only on programs
      where Natural did *not* produce a value: the guard the backend elides
      (or, for Transient, checks only shallowly) is exactly what would have
      intercepted the fault as blame;
    * on blame-free programs (Natural produced a value) every backend must
      produce the *same* value — in particular Natural-vs-Transient
      divergence is confined to blame labels/occurrence: when Natural
      blames, Transient may blame a different label, produce a value (a
      deep check Transient drops by design), or time out, but when Natural
      has a value Transient must have that value;
    * a ``space_bounded`` backend must preserve the structural
      one-pending-slot-per-frame invariant
      (``max_pending_mediators ≤ max_kont_depth + 1``), and each backend's
      ``-O2`` footprint may only shrink against its own ``-O0``.  (The
      exact footprint may differ from Natural's: Transient keeps a
      residual tag check where ``#`` statically cancels an injection
      against its projection.)

    One-sided timeouts against a different backend are always inconclusive
    here (Transient and Erasure do strictly less mediation work, so their
    step counts differ from Natural's by design).
    """
    from ..compiler import run_on_vm
    from ..machine import run_on_machine

    def pending(outcome) -> int:
        return (outcome.stats or {}).get("max_pending_mediators", 0)

    def steps(outcome) -> int:
        return (outcome.stats or {}).get("steps", 0)

    coercion_m = run_on_machine(term_b, "S", machine_fuel, semantics="coercion")
    threesome_m = run_on_machine(term_b, "S", machine_fuel, semantics="threesome")
    report = _compare_outcomes(
        coercion_m, threesome_m, steps(coercion_m), steps(threesome_m),
        "machine/coercion", "machine/threesome", term_b, strict_timeouts=True,
    )
    if not report.ok:
        return report
    if pending(coercion_m) != pending(threesome_m):
        return BisimulationReport(
            False, steps(coercion_m), steps(threesome_m),
            f"machine pending-mediator footprints differ: "
            f"coercion {pending(coercion_m)} vs threesome {pending(threesome_m)}",
            term_b, None,
        )
    if not check_vm:
        return report

    coercion_v = run_on_vm(term_b, vm_fuel, semantics="coercion")
    threesome_v = run_on_vm(term_b, vm_fuel, semantics="threesome")
    report = _compare_outcomes(
        coercion_v, threesome_v, steps(coercion_v), steps(threesome_v),
        "VM/coercion", "VM/threesome", term_b, strict_timeouts=True,
    )
    if not report.ok:
        return report
    if pending(coercion_v) != pending(threesome_v):
        return BisimulationReport(
            False, steps(coercion_v), steps(threesome_v),
            f"VM pending-mediator footprints differ: "
            f"coercion {pending(coercion_v)} vs threesome {pending(threesome_v)}",
            term_b, None,
        )
    # -O0 against -O2, per backend (the optimized stream takes fewer steps,
    # so a one-sided timeout is inconclusive rather than a failure).
    for backend, optimized in (("coercion", coercion_v), ("threesome", threesome_v)):
        unopt = run_on_vm(term_b, vm_fuel, semantics=backend, opt_level=0)
        report = _compare_outcomes(
            optimized, unopt, steps(optimized), steps(unopt),
            f"VM/{backend}/-O2", f"VM/{backend}/-O0", term_b, strict_timeouts=False,
        )
        if not report.ok:
            return report
        if pending(optimized) > pending(unopt):
            return BisimulationReport(
                False, steps(optimized), steps(unopt),
                f"VM/{backend} -O2 grew the pending-mediator footprint: "
                f"{pending(optimized)} vs -O0's {pending(unopt)}",
                term_b, None,
            )
    if check_rvm:
        from ..compiler import run_on_rvm

        coercion_r = run_on_rvm(term_b, vm_fuel, semantics="coercion")
        threesome_r = run_on_rvm(term_b, vm_fuel, semantics="threesome")
        report = _compare_outcomes(
            coercion_r, threesome_r, steps(coercion_r), steps(threesome_r),
            "rVM/coercion", "rVM/threesome", term_b, strict_timeouts=True,
        )
        if not report.ok:
            return report
        if pending(coercion_r) != pending(threesome_r):
            return BisimulationReport(
                False, steps(coercion_r), steps(threesome_r),
                f"register VM pending-mediator footprints differ: "
                f"coercion {pending(coercion_r)} vs threesome {pending(threesome_r)}",
                term_b, None,
            )
        # Register against stack, per backend (different step units, so
        # one-sided timeouts are inconclusive; footprints compare only when
        # both sides finished).
        for backend, rvm_o, vm_o in (("coercion", coercion_r, coercion_v),
                                     ("threesome", threesome_r, threesome_v)):
            report = _compare_outcomes(
                rvm_o, vm_o, steps(rvm_o), steps(vm_o),
                f"rVM/{backend}", f"VM/{backend}", term_b, strict_timeouts=False,
            )
            if not report.ok:
                return report
            if not (rvm_o.is_timeout or vm_o.is_timeout) and pending(rvm_o) != pending(vm_o):
                return BisimulationReport(
                    False, steps(rvm_o), steps(vm_o),
                    f"register VM changed the {backend} backend's footprint: "
                    f"{pending(rvm_o)} vs stack VM's {pending(vm_o)}",
                    term_b, None,
                )
    # Cross-engine: the threesome VM against the coercion machine (different
    # step units, so a one-sided timeout is inconclusive as usual).
    report = _compare_outcomes(
        threesome_v, coercion_m, steps(threesome_v), steps(coercion_m),
        "VM/threesome", "machine/coercion", term_b, strict_timeouts=False,
    )
    if not report.ok:
        return report

    # The non-Natural registry entries, against the Natural (coercion)
    # baseline per engine.  Run lazily per engine so check_vm/check_rvm
    # gate the matrix exactly as they gate the Natural half above.
    from ..core.errors import EvaluationError
    from ..semantics import SEMANTICS

    def run_lenient(thunk):
        # Transient drops deep obligations and Erasure drops everything, so
        # a fault Natural would intercept as blame can surface as a dynamic
        # type error instead.  Capture it; check_against_natural decides
        # whether it was within the backend's contract.
        try:
            return thunk()
        except EvaluationError as exc:
            return exc

    def check_against_natural(sem, outcome, natural, name, natural_name):
        if isinstance(outcome, EvaluationError):
            if natural.is_value:
                return BisimulationReport(
                    False, 0, steps(natural),
                    f"{name} crashed with a dynamic type error ({outcome}) on "
                    f"a blame-free program ({natural_name} produced "
                    f"{natural.python_value()!r})", term_b, None,
                )
            return None  # Natural blamed/timed out: the elided guard's fault
        if not sem.blames and outcome.is_blame:
            return BisimulationReport(
                False, steps(outcome), steps(natural),
                f"{name} blamed {outcome.label} but the {sem.name} semantics "
                f"never blames", term_b, None,
            )
        if natural.is_value:
            if outcome.is_blame:
                return BisimulationReport(
                    False, steps(outcome), steps(natural),
                    f"{name} blamed {outcome.label} on a blame-free program "
                    f"({natural_name} produced {natural.python_value()!r})",
                    term_b, None,
                )
            if outcome.is_value and outcome.python_value() != natural.python_value():
                return BisimulationReport(
                    False, steps(outcome), steps(natural),
                    f"values diverge: {name} produced {outcome.python_value()!r}, "
                    f"{natural_name} produced {natural.python_value()!r}",
                    term_b, None,
                )
        # Natural blamed or timed out: divergence in label, occurrence, or
        # termination is within the backend's contract.  Space: the exact
        # footprint may differ from Natural's (Transient keeps a residual
        # tag check where ``#`` statically cancels an injection against its
        # projection), but a space-bounded backend must preserve the
        # structural one-pending-slot-per-frame invariant.
        stats_o = outcome.stats or {}
        if (sem.space_bounded and stats_o.get("max_pending_mediators", 0)
                > stats_o.get("max_kont_depth", 0) + 1):
            return BisimulationReport(
                False, steps(outcome), steps(natural),
                f"{name} stacked pending mediators: "
                f"{stats_o['max_pending_mediators']} pending across "
                f"{stats_o.get('max_kont_depth', 0) + 1} frames",
                term_b, None,
            )
        return None

    for backend in ("transient", "erasure"):
        sem = SEMANTICS[backend]
        outcome_m = run_lenient(
            lambda: run_on_machine(term_b, "S", machine_fuel, semantics=backend))
        failure = check_against_natural(sem, outcome_m, coercion_m,
                                        f"machine/{backend}", "machine/coercion")
        if failure is not None:
            return failure
        if not check_vm:
            continue
        outcome_v = run_lenient(
            lambda: run_on_vm(term_b, vm_fuel, semantics=backend))
        failure = check_against_natural(sem, outcome_v, coercion_v,
                                        f"VM/{backend}", "VM/coercion")
        if failure is not None:
            return failure
        # The backend against itself across opt levels: -O0 against -O2
        # (one-sided timeouts inconclusive; the footprint may only shrink).
        # When either level crashed with a dynamic type error, each level is
        # held to the Natural baseline on its own instead — elision moves
        # *where* an unguarded fault surfaces, so levels are not compared.
        unopt = run_lenient(
            lambda: run_on_vm(term_b, vm_fuel, semantics=backend, opt_level=0))
        failure = check_against_natural(sem, unopt, coercion_v,
                                        f"VM/{backend}/-O0", "VM/coercion")
        if failure is not None:
            return failure
        errored_v = isinstance(outcome_v, EvaluationError) or isinstance(
            unopt, EvaluationError)
        if not errored_v:
            report = _compare_outcomes(
                outcome_v, unopt, steps(outcome_v), steps(unopt),
                f"VM/{backend}/-O2", f"VM/{backend}/-O0", term_b,
                strict_timeouts=False,
            )
            if not report.ok:
                return report
            if pending(outcome_v) > pending(unopt):
                return BisimulationReport(
                    False, steps(outcome_v), steps(unopt),
                    f"VM/{backend} -O2 grew the pending-mediator footprint: "
                    f"{pending(outcome_v)} vs -O0's {pending(unopt)}",
                    term_b, None,
                )
        if check_rvm:
            from ..compiler import run_on_rvm

            outcome_r = run_lenient(
                lambda: run_on_rvm(term_b, vm_fuel, semantics=backend))
            failure = check_against_natural(sem, outcome_r, coercion_r,
                                            f"rVM/{backend}", "rVM/coercion")
            if failure is not None:
                return failure
            # Register against stack within the backend (different step
            # units; footprints compare only when both sides finished).
            if errored_v or isinstance(outcome_r, EvaluationError):
                continue
            report = _compare_outcomes(
                outcome_r, outcome_v, steps(outcome_r), steps(outcome_v),
                f"rVM/{backend}", f"VM/{backend}", term_b, strict_timeouts=False,
            )
            if not report.ok:
                return report
            if (not (outcome_r.is_timeout or outcome_v.is_timeout)
                    and pending(outcome_r) != pending(outcome_v)):
                return BisimulationReport(
                    False, steps(outcome_r), steps(outcome_v),
                    f"register VM changed the {backend} backend's footprint: "
                    f"{pending(outcome_r)} vs stack VM's {pending(outcome_v)}",
                    term_b, None,
                )
    return report


def _compare_outcomes(left, right, steps_l, steps_r, name_l, name_r, term_b,
                      strict_timeouts, project_right=None,
                      right_term: Term | None = None) -> BisimulationReport:
    """Compare two outcomes observably (timeout / blame label / value).

    Works for both :class:`MachineOutcome`-shaped results (the default
    projection is ``python_value()``) and, on the right, reducer
    ``Outcome``\\ s (pass a projection over ``outcome.term``).  Failure
    reports carry ``term_b`` and, when given, the right side's translated
    term for debugging.
    """
    if left.is_timeout or right.is_timeout:
        if left.is_timeout and right.is_timeout:
            return BisimulationReport(True, steps_l, steps_r)
        return BisimulationReport(
            not strict_timeouts, steps_l, steps_r,
            "inconclusive: one side exhausted its fuel", term_b, right_term,
        )
    if left.is_blame or right.is_blame:
        if not (left.is_blame and right.is_blame):
            return BisimulationReport(
                False, steps_l, steps_r,
                f"{name_l} and {name_r} disagree on blame", term_b, right_term,
            )
        if left.label != right.label:
            return BisimulationReport(
                False, steps_l, steps_r,
                f"blame labels differ: {name_l} {left.label} vs {name_r} {right.label}",
                term_b, right_term,
            )
        return BisimulationReport(True, steps_l, steps_r)
    value_l = left.python_value()
    value_r = project_right(right) if project_right else right.python_value()
    if value_l != value_r:
        return BisimulationReport(
            False, steps_l, steps_r,
            f"values differ: {name_l} {value_l!r} vs {name_r} {value_r!r}",
            term_b, right_term,
        )
    return BisimulationReport(True, steps_l, steps_r)
