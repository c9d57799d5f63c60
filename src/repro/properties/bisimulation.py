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

* The engines are held to these results through :func:`repro.api.run`:
  :func:`check_engine_oracle` runs the CEK machine against the substitution
  reducers, and :func:`check_oracle_matrix` runs every engine × semantics ×
  ``-O`` cell once and applies each of its agreement rules once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import EvaluationError
from ..core.terms import Blame, Coerce, Term, alpha_equal, erase, subterms
from ..semantics import NATURAL_SEMANTICS_NAMES, SEMANTICS, SEMANTICS_NAMES
from ..translate.b_to_c import term_to_lambda_c
from ..translate.c_to_s import term_to_lambda_s
from .calculi import LAMBDA_B, LAMBDA_C, LAMBDA_S


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
# Engines ↔ oracles, through the entry point every front end uses
# ---------------------------------------------------------------------------


def _kind(run) -> str:
    """A run's outcome kind, or ``"error"`` for the
    :class:`~repro.core.errors.EvaluationError` it raised."""
    return "error" if isinstance(run, EvaluationError) else run.kind


def _disagreement(left, right, strict_timeouts: bool = False) -> str | None:
    """Why two runs differ observably, or ``None`` when they agree.

    A run is a :class:`~repro.api.RunResult` or the ``EvaluationError`` it
    raised.  Runs compare by kind, then by blame label or projected value.
    Fuel is counted in each engine's own step unit, so a timeout on one
    side only is inconclusive, and passes, unless ``strict_timeouts``.
    """
    left_kind, right_kind = _kind(left), _kind(right)
    if left_kind != right_kind:
        if "timeout" in (left_kind, right_kind) and not strict_timeouts:
            return None
        return f"{left_kind} vs {right_kind}"
    if left_kind == "blame" and left.blame_label != right.blame_label:
        return f"blame labels differ: {left.blame_label} vs {right.blame_label}"
    if left_kind == "value" and left.value != right.value:
        return f"values differ: {left.value!r} vs {right.value!r}"
    return None


def check_engine_oracle(
    term_b: Term,
    calculus: str = "S",
    machine_fuel: int = 2_000_000,
    subst_fuel: int = 100_000,
    strict_timeouts: bool = False,
) -> BisimulationReport:
    """Check the CEK machine against the substitution reducer of one calculus.

    Runs the λB program through :func:`repro.api.run` on the machine and on
    the paper-faithful reducer of ``calculus``, and compares the observable
    outcomes: the projected value, the blame label, or timeout.  The two
    fuels are in different units (machine transitions against reduction
    steps), so a timeout on one side only passes unless ``strict_timeouts``.
    """
    from ..api import run

    machine = run(term_b, engine="machine", calculus=calculus, fuel=machine_fuel)
    oracle = run(term_b, engine="subst", calculus=calculus, fuel=subst_fuel)
    reason = _disagreement(machine, oracle, strict_timeouts)
    if reason is None:
        return BisimulationReport(True, machine.steps, oracle.steps)
    return BisimulationReport(False, machine.steps, oracle.steps,
                              f"machine vs subst: {reason}", term_b)


def check_engine_oracle_all(term_b: Term, **kwargs) -> BisimulationReport:
    """Engine/oracle agreement on all three calculi; first failure wins."""
    for calculus in ("B", "C", "S"):
        report = check_engine_oracle(term_b, calculus, **kwargs)
        if not report.ok:
            return report
    return report


#: The compiled engines, and the ``-O`` levels the matrix runs them at.  The
#: first is the reference the others and the substitution reducer are
#: compared with; dropping an engine is dropping its entry.
COMPILED_ENGINES = ("vm", "rvm")
LEVELS = (2, 0)

#: Where semantics meet: the CEK machine (no level) and each compiled
#: engine at each level.
PLACES = (("machine", None), *((e, level) for e in COMPILED_ENGINES for level in LEVELS))

#: The Natural semantics every other semantics is held against.
BASELINE = NATURAL_SEMANTICS_NAMES[0]

#: Every cell of the matrix, ``(engine, semantics, level)``: each place
#: under every registered semantics, and the λS substitution reducer, which
#: reduces coercion terms only.
CELLS = (
    *((engine, sem, level) for engine, level in PLACES for sem in SEMANTICS_NAMES),
    ("subst", BASELINE, None),
)

#: The cells the report's steps come from, which rule 6 compares.
_REFERENCE_CELLS = ((COMPILED_ENGINES[0], BASELINE, 2), ("machine", BASELINE, None))


def check_oracle_matrix(
    term_b: Term,
    machine_fuel: int = 2_000_000,
    vm_fuel: int = 10_000_000,
    subst_fuel: int = 100_000,
) -> BisimulationReport:
    """Hold every engine × semantics × ``-O`` cell to the paper's results.

    Each of the :data:`CELLS` runs once through :func:`repro.api.run`, the
    entry point of the CLI, serve, batch and the experiment; an
    :class:`~repro.core.errors.EvaluationError` is kept as that cell's
    outcome.  Each rule is then applied once, over the cells:

    1. Every cell of a ``space_bounded`` semantics keeps one pending
       mediator per frame: ``max_pending_mediators ≤ max_kont_depth + 1``.
    2. Within each compiled engine, each semantics at ``-O2`` agrees with
       itself at ``-O0``, and its ``max_pending_mediators`` is no larger:
       the optimizer only elides and pre-composes mediators.  A one-sided
       timeout is inconclusive, and a pair where either cell raised is
       skipped (elision moves where an unguarded fault surfaces).
    3. At each level and semantics, every other compiled engine agrees
       with the first (``rvm`` with ``vm``).  When both finish, their
       ``max_pending_mediators`` and ``max_pending_size`` are equal:
       register allocation moves operands, never a mediator.
    4. In each place the Natural semantics agree strictly, a one-sided
       timeout included, with equal ``max_pending_mediators``: threesomes
       are coercions in another representation (§6.1).
    5. In each place every other semantics meets its registry flags against
       the Natural :data:`BASELINE`: it never blames when ``blames`` is
       false, and where the baseline gives a value it gives the same value,
       with no blame and no ``EvaluationError``.  Where the baseline blames,
       the fault may surface in any way the guards it drops allow.
    6. Every Natural compiled cell agrees with the machine, and the first
       compiled engine's ``coercion/-O2`` cell with the λS substitution
       reducer.  One-sided timeouts are inconclusive.

    Rule 1 is the structural half of the space guarantee; the engines'
    tests assert the pending footprint *constant in the iteration count* on
    boundary tail loops.  The report carries the steps of that
    ``coercion/-O2`` cell and of the machine's, and the first broken rule
    as its reason.
    """
    from ..api import run

    fuels = {"machine": machine_fuel, "vm": vm_fuel, "rvm": vm_fuel, "subst": subst_fuel}
    cells = {}
    for engine, semantics, level in CELLS:
        try:
            # A level of None leaves the tree engines at the default.
            cell = run(term_b, engine=engine, semantics=semantics, opt_level=level,
                       fuel=fuels[engine])
        except EvaluationError as exc:
            cell = exc
        cells[engine, semantics, level] = cell
    steps = [getattr(cells[key], "steps", 0) for key in _REFERENCE_CELLS]
    for reason in _broken_rules(cells):
        return BisimulationReport(False, *steps, reason, term_b)
    return BisimulationReport(True, *steps)


def _cell_name(key) -> str:
    engine, semantics, level = key
    return f"{engine}/{semantics}" + ("" if level is None else f"/-O{level}")


def _broken_rules(cells):
    """Yield why each rule of :func:`check_oracle_matrix` breaks, in order."""

    def pending(key, name="max_pending_mediators"):
        return (cells[key].space_stats or {}).get(name, 0)

    def ran(key):
        return _kind(cells[key]) != "error"

    def finished(key):
        return _kind(cells[key]) in ("value", "blame")

    def differ(left, right, strict=False):
        reason = _disagreement(cells[left], cells[right], strict)
        return reason and f"{_cell_name(left)} vs {_cell_name(right)}: {reason}"

    for key in cells:  # 1
        if SEMANTICS[key[1]].space_bounded and ran(key):
            depth = pending(key, "max_kont_depth")
            if pending(key) > depth + 1:
                yield (f"{_cell_name(key)} stacked pending mediators: "
                       f"{pending(key)} across {depth + 1} frames")
    for engine in COMPILED_ENGINES:  # 2
        for sem in SEMANTICS_NAMES:
            o2, o0 = (engine, sem, 2), (engine, sem, 0)
            if not (ran(o2) and ran(o0)) or cells[o2].is_timeout != cells[o0].is_timeout:
                continue
            if reason := differ(o2, o0):
                yield reason
            elif pending(o2) > pending(o0):
                yield (f"{_cell_name(o2)} grew the pending-mediator footprint: "
                       f"{pending(o2)} vs -O0's {pending(o0)}")
    for engine in COMPILED_ENGINES[1:]:  # 3
        for sem in SEMANTICS_NAMES:
            for level in LEVELS:
                key, ref = (engine, sem, level), (COMPILED_ENGINES[0], sem, level)
                if reason := differ(key, ref):
                    yield reason
                elif finished(key) and finished(ref):
                    for name in ("max_pending_mediators", "max_pending_size"):
                        if pending(key, name) != pending(ref, name):
                            yield (f"{_cell_name(key)} vs {_cell_name(ref)}: {name} "
                                   f"{pending(key, name)} vs {pending(ref, name)}")
    for engine, level in PLACES:  # 4
        base = (engine, BASELINE, level)
        for sem in NATURAL_SEMANTICS_NAMES[1:]:
            key = (engine, sem, level)
            if reason := differ(key, base, strict=True):
                yield reason
            elif ran(key) and ran(base) and pending(key) != pending(base):
                yield (f"{_cell_name(key)} vs {_cell_name(base)}: pending-mediator "
                       f"footprints differ: {pending(key)} vs {pending(base)}")
    for engine, level in PLACES:  # 5
        base = (engine, BASELINE, level)
        for sem in SEMANTICS.values():
            if sem.natural:
                continue
            key = (engine, sem.name, level)
            kind = _kind(cells[key])
            if kind == "blame" and not sem.blames:
                yield f"{_cell_name(key)} blamed, but {sem.name} never blames"
            elif _kind(cells[base]) == "value" and kind != "timeout":
                if reason := differ(key, base):
                    yield f"{reason}, on a program {_cell_name(base)} runs without blame"
    for engine in COMPILED_ENGINES:  # 6
        for sem in NATURAL_SEMANTICS_NAMES:
            for level in LEVELS:
                if reason := differ((engine, sem, level), ("machine", sem, None)):
                    yield reason
    if reason := differ(_REFERENCE_CELLS[0], ("subst", BASELINE, None)):
        yield reason
