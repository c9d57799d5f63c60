"""A CEK-style abstract machine shared by the three calculi.

The machine is the implementation-level counterpart of the small-step
semantics (cf. Siek & Garcia 2012): environments and closures instead of
substitution, and an explicit continuation whose pending cast/coercion frames
make the space behaviour of gradually typed programs directly measurable.

The machine is generic over a :class:`repro.machine.policy.MediationPolicy`;
instantiating it with the λB, λC, or λS policy yields the three machines.
The single policy-controlled difference that matters for space is whether a
newly pushed pending mediator is merged (``#``) into one already at the top
of the continuation — only the λS machine does this.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import EvaluationError
from ..core.labels import Label
from ..core.ops import op_spec
from ..core.terms import (
    App,
    Blame,
    Cast,
    Coerce,
    Const,
    Fix,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Term,
    Var,
)
from ..obs.trace import current_tracer
from .frames import (
    Frame,
    KAppArg,
    KAppFun,
    KCallWith,
    KFix,
    KFst,
    KIf,
    KLet,
    KMediate,
    KOp,
    KPairLeft,
    KPairRight,
    KSnd,
)
from .policy import MachineBlame, MediationPolicy
from .profiler import MachineStats
from .values import (
    Environment,
    MachineValue,
    MClosure,
    MConst,
    MFixWrap,
    MPair,
    MProxy,
    machine_value_to_python,
)

from ..core.fuel import DEFAULT_MACHINE_FUEL


@dataclass(frozen=True)
class MachineOutcome:
    """The result of a machine run: a value, blame, or fuel exhaustion."""

    kind: str
    value: MachineValue | None = None
    label: Label | None = None
    stats: dict | None = None

    @property
    def is_value(self) -> bool:
        return self.kind == "value"

    @property
    def is_blame(self) -> bool:
        return self.kind == "blame"

    @property
    def is_timeout(self) -> bool:
        return self.kind == "timeout"

    def python_value(self) -> object:
        if not self.is_value:
            raise EvaluationError(f"machine outcome is {self.kind}, not a value")
        return machine_value_to_python(self.value)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_value:
            return f"value {self.python_value()!r}"
        if self.is_blame:
            return f"blame {self.label}"
        return "timeout"


class CEKMachine:
    """The shared machine driver.

    Use :data:`repro.machine.MACHINE_B`, :data:`MACHINE_C`, or
    :data:`MACHINE_S`, or build one from a custom policy.
    """

    def __init__(self, policy: MediationPolicy):
        self.policy = policy

    # -- public API ---------------------------------------------------------

    def run(self, term: Term, fuel: int = DEFAULT_MACHINE_FUEL) -> MachineOutcome:
        """Run a closed term to an outcome, collecting space statistics."""
        stats = MachineStats()
        policy = self.policy
        # The observability hook: fetched once per run; every hook below is
        # behind one `is not None` test, so untraced runs pay ~nothing.  The
        # tracer never mutates `stats`, so traced outcomes are bit-identical.
        tracer = current_tracer()
        if tracer is not None:
            tracer.run_start("machine", policy)
        env = Environment.empty()
        kont: list[Frame] = []

        control: Term | None = term
        value: MachineValue | None = None
        mode_eval = True

        try:
            for _ in range(fuel):
                stats.steps += 1
                stats.note_depth(len(kont))

                if mode_eval:
                    term_now = control
                    if isinstance(term_now, Const):
                        value, mode_eval = MConst(term_now.value, term_now.type), False
                    elif isinstance(term_now, Var):
                        value, mode_eval = env.lookup(term_now.name), False
                    elif isinstance(term_now, Lam):
                        value, mode_eval = (
                            MClosure(term_now.param, term_now.param_type, term_now.body, env),
                            False,
                        )
                    elif isinstance(term_now, Blame):
                        snapshot = stats.snapshot()
                        if tracer is not None:
                            tracer.blame(stats.steps, term_now.label)
                            tracer.run_end("blame", snapshot)
                        return MachineOutcome("blame", label=term_now.label, stats=snapshot)
                    elif isinstance(term_now, Op):
                        if not term_now.args:
                            spec = op_spec(term_now.op)
                            value, mode_eval = MConst(spec.apply(()), spec.result_type), False
                        else:
                            kont.append(
                                KOp(term_now.op, (), tuple(term_now.args[1:]), env)
                            )
                            control = term_now.args[0]
                    elif isinstance(term_now, App):
                        kont.append(KAppFun(term_now.arg, env))
                        control = term_now.fun
                    elif isinstance(term_now, If):
                        kont.append(KIf(term_now.then_branch, term_now.else_branch, env))
                        control = term_now.cond
                    elif isinstance(term_now, Let):
                        kont.append(KLet(term_now.name, term_now.body, env))
                        control = term_now.bound
                    elif isinstance(term_now, Fix):
                        kont.append(KFix(term_now.fun_type))
                        control = term_now.fun
                    elif isinstance(term_now, Pair):
                        kont.append(KPairLeft(term_now.right, env))
                        control = term_now.left
                    elif isinstance(term_now, Fst):
                        kont.append(KFst())
                        control = term_now.arg
                    elif isinstance(term_now, Snd):
                        kont.append(KSnd())
                        control = term_now.arg
                    elif isinstance(term_now, (Cast, Coerce)):
                        if not policy.is_mediation_node(term_now):
                            raise EvaluationError(
                                f"the λ{policy.name} machine cannot interpret {term_now!r}"
                            )
                        self._push_mediator(kont, policy.term_mediator(term_now), stats, tracer)
                        control = term_now.subject
                    else:
                        raise EvaluationError(f"unknown term node: {term_now!r}")
                    continue

                # Apply mode: feed `value` to the top continuation frame.
                if not kont:
                    snapshot = stats.snapshot()
                    if tracer is not None:
                        tracer.run_end("value", snapshot)
                    return MachineOutcome("value", value=value, stats=snapshot)
                frame = kont.pop()

                if isinstance(frame, KMediate):
                    stats.pop_mediator(policy.size(frame.mediator))
                    stats.mediator_applications += 1
                    if tracer is not None:
                        tracer.collapse(stats.steps, frame.mediator,
                                        stats.pending_mediators, stats.pending_size)
                    value = policy.apply(value, frame.mediator)
                elif isinstance(frame, KAppFun):
                    kont.append(KAppArg(value))
                    control, env, mode_eval = frame.arg, frame.env, True
                elif isinstance(frame, KAppArg):
                    result = self._apply_function(frame.fun, value, kont, stats, tracer)
                    if result is not None:
                        control, env, mode_eval = result
                elif isinstance(frame, KCallWith):
                    result = self._apply_function(value, frame.arg, kont, stats, tracer)
                    if result is not None:
                        control, env, mode_eval = result
                elif isinstance(frame, KOp):
                    done = frame.done + (value,)
                    if frame.remaining:
                        kont.append(KOp(frame.op, done, frame.remaining[1:], frame.env))
                        control, env, mode_eval = frame.remaining[0], frame.env, True
                    else:
                        value = self._apply_op(frame.op, done)
                elif isinstance(frame, KIf):
                    if not isinstance(value, MConst) or not isinstance(value.value, bool):
                        raise EvaluationError(f"if-condition is not a boolean: {value!r}")
                    control = frame.then_branch if value.value else frame.else_branch
                    env, mode_eval = frame.env, True
                elif isinstance(frame, KLet):
                    control = frame.body
                    env, mode_eval = frame.env.extend(frame.name, value), True
                elif isinstance(frame, KFix):
                    wrapper = MFixWrap(value, frame.fun_type)
                    result = self._apply_function(value, wrapper, kont, stats, tracer)
                    if result is not None:
                        control, env, mode_eval = result
                elif isinstance(frame, KPairLeft):
                    kont.append(KPairRight(value))
                    control, env, mode_eval = frame.right, frame.env, True
                elif isinstance(frame, KPairRight):
                    value = MPair(frame.left, value)
                elif isinstance(frame, KFst):
                    value = self._project(value, first=True)
                elif isinstance(frame, KSnd):
                    value = self._project(value, first=False)
                else:  # pragma: no cover - defensive
                    raise EvaluationError(f"unknown continuation frame: {frame!r}")
        except MachineBlame as blame:
            snapshot = stats.snapshot()
            if tracer is not None:
                tracer.blame(stats.steps, blame.label)
                tracer.run_end("blame", snapshot)
            return MachineOutcome("blame", label=blame.label, stats=snapshot)

        snapshot = stats.snapshot()
        if tracer is not None:
            tracer.run_end("timeout", snapshot)
        return MachineOutcome("timeout", stats=snapshot)

    # -- helpers --------------------------------------------------------------

    def _push_mediator(self, kont: list[Frame], mediator: object,
                       stats: MachineStats, tracer=None) -> None:
        policy = self.policy
        if (
            policy.merges_pending_mediators
            and kont
            and isinstance(kont[-1], KMediate)
        ):
            existing = kont[-1].mediator
            merged = policy.compose(mediator, existing)
            stats.replace_mediator(policy.size(existing), policy.size(merged))
            kont[-1] = KMediate(merged)
            if tracer is not None:
                tracer.merge(stats.steps, mediator, existing, merged,
                             stats.pending_mediators, stats.pending_size)
            return
        kont.append(KMediate(mediator))
        stats.push_mediator(policy.size(mediator))
        if tracer is not None:
            tracer.install(stats.steps, mediator,
                           stats.pending_mediators, stats.pending_size)

    def _apply_function(
        self,
        fun: MachineValue,
        arg: MachineValue,
        kont: list[Frame],
        stats: MachineStats,
        tracer=None,
    ) -> tuple[Term, Environment, bool] | None:
        """Apply ``fun`` to ``arg``; returns a new (control, env, eval-mode) triple
        when evaluation should continue with a term, or ``None`` when the caller
        should stay in apply mode (never happens currently — kept for clarity)."""
        policy = self.policy
        # Unwrap proxy layers: coerce the argument, defer the result coercion.
        while isinstance(fun, MProxy) and policy.is_fun_proxy(fun.mediator):
            dom, cod = policy.fun_parts(fun.mediator)
            stats.mediator_applications += 1
            if tracer is not None:
                tracer.apply(stats.steps, dom)
            arg = policy.apply(arg, dom)
            self._push_mediator(kont, cod, stats, tracer)
            fun = fun.under
        if isinstance(fun, MClosure):
            return fun.body, fun.env.extend(fun.param, arg), True
        if isinstance(fun, MFixWrap):
            # (fix V) W  →  (V (fix-wrapper)) W
            kont.append(KCallWith(arg))
            return self._apply_function(fun.functional, MFixWrap(fun.functional, fun.fun_type), kont, stats, tracer)
        raise EvaluationError(f"application of a non-function value: {fun!r}")

    def _apply_op(self, op: str, operands: tuple[MachineValue, ...]) -> MachineValue:
        spec = op_spec(op)
        raw = []
        for operand in operands:
            if not isinstance(operand, MConst):
                raise EvaluationError(f"operator {op!r} applied to a non-constant: {operand!r}")
            raw.append(operand.value)
        return MConst(spec.apply(raw), spec.result_type)

    def _project(self, value: MachineValue, first: bool) -> MachineValue:
        policy = self.policy
        if isinstance(value, MPair):
            return value.left if first else value.right
        if isinstance(value, MProxy) and policy.is_prod_proxy(value.mediator):
            left, right = policy.prod_parts(value.mediator)
            part = left if first else right
            return policy.apply(self._project(value.under, first), part)
        raise EvaluationError(f"projection of a non-pair value: {value!r}")
