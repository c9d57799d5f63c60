"""The register VM — the packed-stream dispatch core for λS.

Executes the register IR of :mod:`repro.compiler.regalloc`: one Python-level
loop over flat word streams.  Same observable semantics as the stack VM
(:mod:`repro.compiler.vm`) — same mediator backends, same blame, same
single ``pending`` slot per frame, same inline mediator caches — with the
per-instruction Python-object overhead cut four ways:

* **no operand stack.**  Values live in a frame-local register file (a flat
  list built by one list display: the captured values, the argument, then
  the code object's ``rest`` template, which holds the constants the code
  reads pinned at the top); instructions read operands
  by plain index — ``regs[w]`` — and write one destination.  The stack
  VM's ``append``/``pop`` traffic, and every ``LOAD``/``PUSH_CONST``/
  ``STORE`` dispatch that only fed it, is gone.
* **no instruction objects.**  The loop reads opcode and operand words
  straight out of a localized tuple of ints (``RCode.stream``); there is
  no per-instruction tuple to index and unpack.
* **structural and peephole fusion.**  A primitive reads its inputs and
  writes its destination in one instruction, a compare feeding a branch is
  one ``BR_PRIM``, and at ``-O2`` the hottest adjacent pairs are single
  fused instructions (``COMPOSE;COERCE``, ``PRIM2;TAILCALL``, …) — a
  boundary tail loop runs in ~3 dispatches per iteration against the
  ``-O2`` stack VM's ~5 plus cheaper dispatches.
* **no accounting calls.**  The space-profile counters
  (:class:`~repro.machine.profiler.MachineStats`) are kept in loop-local
  integers and stored back on exit, so the per-iteration mediator
  bookkeeping is integer arithmetic instead of method calls.

The mediation discipline itself is ported *verbatim* from the stack VM —
the same ``COMPOSE``-into-the-slot merge, the same ``TAILCALL`` frame
reuse, the same proxy unwrap at call sites, the same per-site inline
caches keyed on interned mediator identity (allocated at ``-O2``, absent
below; a fused pair's halves cache at ``pc`` and ``pc+1``) — so
``max_pending_mediators == 1`` on boundary tail loops holds with the same
accounting, and ``check_oracle_matrix`` compares the two engines' space
profiles directly.  One allocation the stack VM makes
is skipped rather than ported: unrolling ``fix`` reuses the (immutable,
field-equal) ``MFixWrap`` being applied as the wrapper it passes on,
instead of building a fresh one per iteration.

The interpreter's shared instruction cores (coerce, compose, primitive,
call, return) are deliberately *copied* into each fused handler rather
than factored into functions — a Python call per instruction would cost
more than the fused dispatch saves.  The base handlers hold the canonical
copies; keep the fused copies textually identical to them.
"""

from __future__ import annotations

from ..core.errors import EvaluationError
from ..core.fuel import DEFAULT_VM_FUEL
from ..core.ops import operand_type_error
from ..core.terms import Term
from ..machine.cek import MachineOutcome
from ..machine.policy import MachineBlame
from ..machine.profiler import MachineStats
from ..machine.values import MConst, MFixWrap, MFunctionValue, MPair, MProxy
from ..obs.trace import current_tracer
from .bytecode import CodeObject
from .opt import DEFAULT_OPT_LEVEL
from .regalloc import (
    R_BLAME,
    R_BR_FALSE,
    R_BR_PRIM1,
    R_BR_PRIM2,
    R_CALL,
    R_CLOSURE,
    R_CLOSURE_BR_PRIM1,
    R_CLOSURE_RETURN,
    R_COERCE,
    R_COERCE_BR_PRIM1,
    R_COERCE_CALL,
    R_COERCE_COERCE,
    R_COERCE_TAILCALL,
    R_COMPOSE,
    R_COMPOSE_COERCE,
    R_COMPOSE_PRIM2,
    R_FIX,
    R_FST,
    R_JUMP,
    R_MOVE,
    R_MOVE_PRIM2,
    R_PAIR,
    R_PRIM1,
    R_PRIM2,
    R_PRIM2_CALL,
    R_PRIM2_RETURN,
    R_PRIM2_TAILCALL,
    R_PRIMN,
    R_RETURN,
    R_SND,
    R_TAILCALL,
    RCode,
    compile_registers,
)
from ..semantics import policy_for
from .vm import _make_fix_apply_code, _pool_tables, _project


class RClosure(MFunctionValue):
    """A compiled function: its register code plus the captured free values."""

    __slots__ = ("code", "free")

    def __init__(self, code: RCode, free: tuple):
        self.code = code
        self.free = free

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<rvm-closure {self.code.name}>"


def _make_fix_rcode(opt_level: int) -> RCode:
    """The fix-unrolling step as register code (``CALL r3, r0, r1;
    TAILCALL r3, r2`` — registers ``[V, wrap, arg, tmp]``), converted from
    the stack VM's fix-apply stack code so the two engines unroll
    identically.  ``opt_level=2`` gives the call sites inline-cache cells."""
    stack_code = _make_fix_apply_code()
    stack_code.opt_level = opt_level
    return compile_registers(stack_code)


_RFIX_APPLY = _make_fix_rcode(0)
_RFIX_APPLY_O2 = _make_fix_rcode(2)


def _fix_rcode_o2_for_run() -> RCode:
    """A clone of the ``-O2`` fix stub with *fresh* inline-cache cells —
    the cells are run state (they feed ``cache_hits``/``cache_misses``), so
    a process-global stub would leak them across runs; see the stack VM's
    ``_fix_apply_o2_for_run``."""
    template = _RFIX_APPLY_O2
    return RCode(
        template.name, template.words, template.pool, template.n_free,
        template.n_regs, template.const_regs, template.param,
        template.local_names, opt_level=template.opt_level,
    )


class RVM:
    """Executes one register-compiled program.  Stateless between runs."""

    def run(
        self,
        code: RCode,
        fuel: int = DEFAULT_VM_FUEL,
        opcode_counts: dict | None = None,
    ) -> MachineOutcome:
        stats = MachineStats()
        counts = opcode_counts
        if counts is not None:
            stats.opcode_counts = counts
        pool = code.pool
        consts = pool.consts
        coercions = pool.coercions
        labels = pool.labels
        prims = pool.prims
        rcodes = pool.rcodes

        policy = policy_for(pool.semantics)
        # The observability hook: fetched once per run, tested with one
        # `is not None` at mediator lifecycle sites only — never on the
        # per-dispatch path — so untraced runs pay ~nothing and traced
        # outcomes stay bit-identical (the tracer reads, never writes).
        tracer = current_tracer()
        if tracer is not None:
            tracer.run_start("rvm", policy)
        apply_co = policy.apply
        co_size = policy.size
        classify = policy.classify
        compose_pending = policy.compose
        is_fun_proxy = policy.is_fun_proxy
        fun_parts = policy.fun_parts

        # MachineStats counters as loop locals; stored back via _store_stats.
        applications = 0
        hits = 0
        misses = 0
        kd_max = 0  # max_kont_depth
        pm = 0  # pending_mediators (always 0 or 1: one slot per live frame)
        ps = 0  # pending_size
        pm_max = 0
        ps_max = 0
        merges = 0

        # Opcode numbers as loop locals: every test in the chain below is a
        # LOAD_FAST instead of a global lookup.  The family bands (see
        # regalloc's numbering) are caught by range tests.
        COERCE_BR_PRIM1 = R_COERCE_BR_PRIM1
        COMPOSE_COERCE = R_COMPOSE_COERCE
        CLOSURE_BR_PRIM1 = R_CLOSURE_BR_PRIM1
        COMPOSE_PRIM2 = R_COMPOSE_PRIM2
        BR_PRIM2 = R_BR_PRIM2
        PRIM2 = R_PRIM2
        MOVE_PRIM2 = R_MOVE_PRIM2
        BR_PRIM1 = R_BR_PRIM1
        BR_FALSE = R_BR_FALSE
        MOVE = R_MOVE
        JUMP = R_JUMP
        CLOSURE = R_CLOSURE
        PRIM1 = R_PRIM1
        FIX = R_FIX
        PAIR = R_PAIR
        FST = R_FST
        SND = R_SND
        PRIMN = R_PRIMN
        BLAME = R_BLAME
        COMPOSE = R_COMPOSE
        TAILCALL = R_TAILCALL
        CALL = R_CALL
        RETURN = R_RETURN
        COERCE = R_COERCE

        frames: list = []  # caller frames: (stream, pc, regs, pending, caches, dst)
        stream = code.stream
        pc = 0
        regs: list = [None] * (code.n_free + 1) + [*code.rest]
        pending = None  # the frame's single pending result coercion
        caches = code.caches  # per-site inline-cache cells (None below -O2)
        stats.inline_caches = caches is not None
        co_actions, co_sizes = _pool_tables(pool, policy)
        fix_code = _fix_rcode_o2_for_run() if caches is not None else _RFIX_APPLY
        fix_stream = fix_code.stream
        # (fix V)'s unrolling is deterministic — the language is pure — so
        # the closure it produces is memoized per wrapper identity the first
        # time it returns, and later applications of the same wrapper jump
        # straight to it, skipping the unrolling call entirely.  The wrapper
        # is kept in the value to hold its id.  The profile maxima are
        # unaffected: the first unrolling already set them.
        unrolled: dict = {}

        try:
            for executed in range(fuel):
                op = stream[pc]
                if counts is not None:
                    counts[op] = counts.get(op, 0) + 1

                if op == COERCE_BR_PRIM1:
                    # [op, dst, src, co, prim, a, target]  (fused ⇒ -O2)
                    value = regs[stream[pc + 2]]
                    applications += 1
                    if value.__class__ is MProxy:
                        cell = caches[pc]
                        mediator = value.mediator
                        if cell is not None and mediator is cell[0]:
                            hits += 1
                            composed = cell[1]
                            act = cell[2]
                        else:
                            misses += 1
                            composed = compose_pending(mediator, coercions[stream[pc + 3]])
                            act = classify(composed)
                            caches[pc] = [mediator, composed, act]
                        if tracer is not None:
                            tracer.absorb(executed + 1, coercions[stream[pc + 3]],
                                          mediator, composed, pm, ps)
                        if act == 1:  # ACT_WRAP
                            value = MProxy(value.under, composed)
                        elif act == 0:  # ACT_IDENTITY
                            value = value.under
                        else:
                            value = apply_co(value.under, composed)
                    else:
                        coercion_index = stream[pc + 3]
                        act = co_actions[coercion_index]
                        if tracer is not None:
                            tracer.apply(executed + 1, coercions[coercion_index])
                        if act == 1:
                            value = MProxy(value, coercions[coercion_index])
                        elif act != 0:
                            value = apply_co(value, coercions[coercion_index])
                    regs[stream[pc + 1]] = value
                    a = regs[stream[pc + 5]]
                    fn, _arity, result_type, name = prims[stream[pc + 4]]
                    if a.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant: {a!r}"
                        )
                    try:
                        cond = fn(a.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    if cond is False:
                        pc = stream[pc + 6]
                    elif cond is True:
                        pc += 7
                    else:
                        raise EvaluationError(
                            f"if-condition is not a boolean: {MConst(cond, result_type)!r}"
                        )
                elif op == COMPOSE_COERCE:
                    # [op, co1, dst, src, co2]  (fused ⇒ -O2)
                    coercion = coercions[stream[pc + 1]]
                    if pending is None:
                        pending = coercion
                        pm += 1
                        ps += co_sizes[stream[pc + 1]]
                        if pm > pm_max:
                            pm_max = pm
                        if ps > ps_max:
                            ps_max = ps
                        if tracer is not None:
                            tracer.install(executed + 1, coercion, pm, ps)
                    else:
                        cell = caches[pc]
                        if cell is not None and pending is cell[0]:
                            hits += 1
                            ps += cell[3] - cell[2]
                            merges += 1
                            if ps > ps_max:
                                ps_max = ps
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, cell[1], pm, ps)
                            pending = cell[1]
                        else:
                            misses += 1
                            merged = compose_pending(coercion, pending)
                            size_in = co_size(pending)
                            size_merged = co_size(merged)
                            ps += size_merged - size_in
                            merges += 1
                            if ps > ps_max:
                                ps_max = ps
                            caches[pc] = [pending, merged, size_in, size_merged]
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, merged, pm, ps)
                            pending = merged
                    value = regs[stream[pc + 3]]
                    applications += 1
                    if value.__class__ is MProxy:
                        cell = caches[pc + 1]
                        mediator = value.mediator
                        if cell is not None and mediator is cell[0]:
                            hits += 1
                            composed = cell[1]
                            act = cell[2]
                        else:
                            misses += 1
                            composed = compose_pending(mediator, coercions[stream[pc + 4]])
                            act = classify(composed)
                            caches[pc + 1] = [mediator, composed, act]
                        if tracer is not None:
                            tracer.absorb(executed + 1, coercions[stream[pc + 4]],
                                          mediator, composed, pm, ps)
                        if act == 1:  # ACT_WRAP
                            value = MProxy(value.under, composed)
                        elif act == 0:  # ACT_IDENTITY
                            value = value.under
                        else:
                            value = apply_co(value.under, composed)
                    else:
                        coercion_index = stream[pc + 4]
                        act = co_actions[coercion_index]
                        if tracer is not None:
                            tracer.apply(executed + 1, coercions[coercion_index])
                        if act == 1:
                            value = MProxy(value, coercions[coercion_index])
                        elif act != 0:
                            value = apply_co(value, coercions[coercion_index])
                    regs[stream[pc + 2]] = value
                    pc += 5
                elif op > 19:
                    # The family bands: calls 20–25, returns 26–28,
                    # coerces 29–30 — each shares one instruction core.
                    if op < 26:
                        # ---- call family: prefix work, then the call core
                        if op == TAILCALL:
                            # [op, fun, arg]
                            fun = regs[stream[pc + 1]]
                            arg = regs[stream[pc + 2]]
                            if stream is fix_stream:
                                # the unrolling tail call: `fun` is (V wrap),
                                # regs[1] the wrapper — memoize the unrolling
                                unrolled[id(regs[1])] = (regs[1], fun)
                            tail = True
                            site = pc
                        elif op == CALL:
                            # [op, dst, fun, arg]
                            fun = regs[stream[pc + 2]]
                            arg = regs[stream[pc + 3]]
                            tail = False
                            site = pc
                            rpc = pc + 4
                            rdst = stream[pc + 1]
                        elif op == R_PRIM2_TAILCALL:
                            # [op, dst, prim, a, b, fun, arg]  (fused ⇒ -O2)
                            a = regs[stream[pc + 3]]
                            b = regs[stream[pc + 4]]
                            fn, _arity, result_type, name = prims[stream[pc + 2]]
                            if a.__class__ is not MConst or b.__class__ is not MConst:
                                raise EvaluationError(
                                    f"operator {name!r} applied to a non-constant"
                                )
                            try:
                                result = fn(a.value, b.value)
                            except TypeError as exc:
                                raise operand_type_error(name, exc) from exc
                            regs[stream[pc + 1]] = MConst(result, result_type)
                            fun = regs[stream[pc + 5]]
                            arg = regs[stream[pc + 6]]
                            tail = True
                            site = pc + 1
                        elif op == R_COERCE_TAILCALL:
                            # [op, dst, src, co, fun, arg]  (fused ⇒ -O2)
                            value = regs[stream[pc + 2]]
                            applications += 1
                            if value.__class__ is MProxy:
                                cell = caches[pc]
                                mediator = value.mediator
                                if cell is not None and mediator is cell[0]:
                                    hits += 1
                                    composed = cell[1]
                                    act = cell[2]
                                else:
                                    misses += 1
                                    composed = compose_pending(
                                        mediator, coercions[stream[pc + 3]]
                                    )
                                    act = classify(composed)
                                    caches[pc] = [mediator, composed, act]
                                if tracer is not None:
                                    tracer.absorb(executed + 1, coercions[stream[pc + 3]],
                                                  mediator, composed, pm, ps)
                                if act == 1:  # ACT_WRAP
                                    value = MProxy(value.under, composed)
                                elif act == 0:  # ACT_IDENTITY
                                    value = value.under
                                else:
                                    value = apply_co(value.under, composed)
                            else:
                                coercion_index = stream[pc + 3]
                                act = co_actions[coercion_index]
                                if tracer is not None:
                                    tracer.apply(executed + 1, coercions[coercion_index])
                                if act == 1:
                                    value = MProxy(value, coercions[coercion_index])
                                elif act != 0:
                                    value = apply_co(value, coercions[coercion_index])
                            regs[stream[pc + 1]] = value
                            fun = regs[stream[pc + 4]]
                            arg = regs[stream[pc + 5]]
                            tail = True
                            site = pc + 1
                        elif op == R_COERCE_CALL:
                            # [op, dst1, src, co, dst2, fun, arg]  (fused ⇒ -O2)
                            value = regs[stream[pc + 2]]
                            applications += 1
                            if value.__class__ is MProxy:
                                cell = caches[pc]
                                mediator = value.mediator
                                if cell is not None and mediator is cell[0]:
                                    hits += 1
                                    composed = cell[1]
                                    act = cell[2]
                                else:
                                    misses += 1
                                    composed = compose_pending(
                                        mediator, coercions[stream[pc + 3]]
                                    )
                                    act = classify(composed)
                                    caches[pc] = [mediator, composed, act]
                                if tracer is not None:
                                    tracer.absorb(executed + 1, coercions[stream[pc + 3]],
                                                  mediator, composed, pm, ps)
                                if act == 1:  # ACT_WRAP
                                    value = MProxy(value.under, composed)
                                elif act == 0:  # ACT_IDENTITY
                                    value = value.under
                                else:
                                    value = apply_co(value.under, composed)
                            else:
                                coercion_index = stream[pc + 3]
                                act = co_actions[coercion_index]
                                if tracer is not None:
                                    tracer.apply(executed + 1, coercions[coercion_index])
                                if act == 1:
                                    value = MProxy(value, coercions[coercion_index])
                                elif act != 0:
                                    value = apply_co(value, coercions[coercion_index])
                            regs[stream[pc + 1]] = value
                            fun = regs[stream[pc + 5]]
                            arg = regs[stream[pc + 6]]
                            tail = False
                            site = pc + 1
                            rpc = pc + 7
                            rdst = stream[pc + 4]
                        else:  # R_PRIM2_CALL
                            # [op, dst1, prim, a, b, dst2, fun, arg]  (fused ⇒ -O2)
                            a = regs[stream[pc + 3]]
                            b = regs[stream[pc + 4]]
                            fn, _arity, result_type, name = prims[stream[pc + 2]]
                            if a.__class__ is not MConst or b.__class__ is not MConst:
                                raise EvaluationError(
                                    f"operator {name!r} applied to a non-constant"
                                )
                            try:
                                result = fn(a.value, b.value)
                            except TypeError as exc:
                                raise operand_type_error(name, exc) from exc
                            regs[stream[pc + 1]] = MConst(result, result_type)
                            fun = regs[stream[pc + 6]]
                            arg = regs[stream[pc + 7]]
                            tail = False
                            site = pc + 1
                            rpc = pc + 8
                            rdst = stream[pc + 5]
                        # ---- the call core (canonical copy)
                        result_co = None
                        if fun.__class__ is MFixWrap:
                            memo = unrolled.get(id(fun))
                            if memo is not None:
                                fun = memo[1]
                        if fun.__class__ is MProxy:
                            # Unwrap proxy layers: coerce the argument now,
                            # defer the result coercion into a pending slot.
                            cell = caches[site] if caches is not None else None
                            if cell is not None and fun.mediator is cell[0]:
                                # Cache hit: dom/cod and the dom action
                                # resolved by one pointer compare.
                                applications += 1
                                hits += 1
                                dom = cell[1]
                                act = cell[3]
                                if tracer is not None:
                                    tracer.apply(executed + 1, dom)
                                if act == 1:  # ACT_WRAP
                                    if arg.__class__ is MProxy:
                                        arg = apply_co(arg, dom)
                                    else:
                                        arg = MProxy(arg, dom)
                                elif act != 0:  # not ACT_IDENTITY
                                    arg = apply_co(arg, dom)
                                result_co = cell[2]
                                fun = fun.under
                            else:
                                first = caches is not None
                                if first:
                                    misses += 1
                                while fun.__class__ is MProxy:
                                    mediator = fun.mediator
                                    if not is_fun_proxy(mediator):
                                        break
                                    applications += 1
                                    dom, cod = fun_parts(mediator)
                                    if tracer is not None:
                                        tracer.apply(executed + 1, dom)
                                    if first:
                                        caches[site] = [
                                            mediator, dom, cod, classify(dom),
                                            None, None, None, 0, 0,
                                        ]
                                        first = False
                                    arg = apply_co(arg, dom)
                                    result_co = (
                                        cod if result_co is None
                                        else compose_pending(cod, result_co)
                                    )
                                    fun = fun.under
                        if fun.__class__ is RClosure:
                            callee = fun.code
                            new_regs = [*fun.free, arg, *callee.rest]
                        elif fun.__class__ is MFixWrap:
                            # (fix V) W → (V wrap) W; `fun` doubles as the
                            # wrapper (immutable and field-equal to a fresh
                            # one), saving an allocation per unrolling.
                            callee = fix_code
                            new_regs = [fun.functional, fun, arg, None]
                        else:
                            raise EvaluationError(
                                f"application of a non-function value: {fun!r}"
                            )
                        if not tail:
                            frames.append((stream, rpc, regs, pending, caches, rdst))
                            depth = len(frames)
                            if depth > kd_max:
                                kd_max = depth
                            pending = result_co
                            if result_co is not None:
                                pm += 1
                                ps += co_size(result_co)
                                if pm > pm_max:
                                    pm_max = pm
                                if ps > ps_max:
                                    ps_max = ps
                                if tracer is not None:
                                    tracer.install(executed + 1, result_co, pm, ps)
                        else:  # reuse the frame, keep the pending slot
                            if result_co is not None:
                                if pending is None:
                                    pending = result_co
                                    pm += 1
                                    ps += co_size(result_co)
                                    if pm > pm_max:
                                        pm_max = pm
                                    if ps > ps_max:
                                        ps_max = ps
                                    if tracer is not None:
                                        tracer.install(executed + 1, result_co, pm, ps)
                                else:
                                    cell = caches[site] if caches is not None else None
                                    if (
                                        cell is not None
                                        and result_co is cell[4]
                                        and pending is cell[5]
                                    ):
                                        hits += 1
                                        ps += cell[8] - cell[7]
                                        merges += 1
                                        if ps > ps_max:
                                            ps_max = ps
                                        if tracer is not None:
                                            tracer.merge(executed + 1, result_co,
                                                         pending, cell[6], pm, ps)
                                        pending = cell[6]
                                    else:
                                        if cell is not None:
                                            misses += 1
                                        merged = compose_pending(result_co, pending)
                                        size_in = co_size(pending)
                                        size_merged = co_size(merged)
                                        ps += size_merged - size_in
                                        merges += 1
                                        if ps > ps_max:
                                            ps_max = ps
                                        if cell is not None:
                                            cell[4] = result_co
                                            cell[5] = pending
                                            cell[6] = merged
                                            cell[7] = size_in
                                            cell[8] = size_merged
                                        if tracer is not None:
                                            tracer.merge(executed + 1, result_co,
                                                         pending, merged, pm, ps)
                                        pending = merged
                        stream = callee.stream
                        pc = 0
                        regs = new_regs
                        caches = callee.caches
                    elif op < 29:
                        # ---- return family: prefix work, then the return core
                        if op == RETURN:
                            # [op, src]
                            value = regs[stream[pc + 1]]
                            site = pc
                        elif op == R_PRIM2_RETURN:
                            # [op, dst, prim, a, b, src]  (fused ⇒ -O2)
                            a = regs[stream[pc + 3]]
                            b = regs[stream[pc + 4]]
                            fn, _arity, result_type, name = prims[stream[pc + 2]]
                            if a.__class__ is not MConst or b.__class__ is not MConst:
                                raise EvaluationError(
                                    f"operator {name!r} applied to a non-constant"
                                )
                            try:
                                result = fn(a.value, b.value)
                            except TypeError as exc:
                                raise operand_type_error(name, exc) from exc
                            regs[stream[pc + 1]] = MConst(result, result_type)
                            value = regs[stream[pc + 5]]
                            site = pc + 1
                        else:  # R_CLOSURE_RETURN
                            # [op, dst, code, n, srcs…, src]  (fused ⇒ -O2)
                            n_free = stream[pc + 3]
                            if n_free == 1:
                                free = (regs[stream[pc + 4]],)
                            elif n_free == 2:
                                free = (regs[stream[pc + 4]], regs[stream[pc + 5]])
                            elif n_free == 3:
                                free = (regs[stream[pc + 4]], regs[stream[pc + 5]],
                                        regs[stream[pc + 6]])
                            elif n_free:
                                base = pc + 4
                                free = tuple([regs[stream[base + k]] for k in range(n_free)])
                            else:
                                free = ()
                            regs[stream[pc + 1]] = RClosure(rcodes[stream[pc + 2]], free)
                            value = regs[stream[pc + 4 + n_free]]
                            site = pc + 1
                        # ---- the return core (canonical copy)
                        if pending is not None:
                            applications += 1
                            if caches is not None and value.__class__ is not MProxy:
                                cell = caches[site]
                                if cell is not None and pending is cell[0]:
                                    hits += 1
                                    act = cell[1]
                                    pm -= 1
                                    ps -= cell[2]
                                else:
                                    misses += 1
                                    act = classify(pending)
                                    size = co_size(pending)
                                    caches[site] = [pending, act, size]
                                    pm -= 1
                                    ps -= size
                                if tracer is not None:
                                    tracer.collapse(executed + 1, pending, pm, ps)
                                if act == 1:  # ACT_WRAP
                                    value = MProxy(value, pending)
                                elif act != 0:
                                    value = apply_co(value, pending)
                            else:
                                pm -= 1
                                ps -= co_size(pending)
                                if tracer is not None:
                                    tracer.collapse(executed + 1, pending, pm, ps)
                                value = apply_co(value, pending)
                        if not frames:
                            stats.steps = executed + 1
                            _store_stats(
                                stats, kd_max, pm_max, ps_max, merges,
                                applications, hits, misses,
                            )
                            snapshot = stats.snapshot()
                            if tracer is not None:
                                tracer.run_end("value", snapshot)
                            return MachineOutcome(
                                "value", value=value, stats=snapshot
                            )
                        stream, pc, regs, pending, caches, dst = frames.pop()
                        regs[dst] = value
                    else:
                        # ---- coerce family (29 COERCE, 30 COERCE_COERCE)
                        # [op, dst, src, co(, dst2, src2, co2)]
                        value = regs[stream[pc + 2]]
                        applications += 1
                        if caches is not None:
                            # (canonical copy of the -O2 coerce core)
                            if value.__class__ is MProxy:
                                cell = caches[pc]
                                mediator = value.mediator
                                if cell is not None and mediator is cell[0]:
                                    hits += 1
                                    composed = cell[1]
                                    act = cell[2]
                                else:
                                    misses += 1
                                    composed = compose_pending(
                                        mediator, coercions[stream[pc + 3]]
                                    )
                                    act = classify(composed)
                                    caches[pc] = [mediator, composed, act]
                                if tracer is not None:
                                    tracer.absorb(executed + 1, coercions[stream[pc + 3]],
                                                  mediator, composed, pm, ps)
                                if act == 1:  # ACT_WRAP
                                    value = MProxy(value.under, composed)
                                elif act == 0:  # ACT_IDENTITY
                                    value = value.under
                                else:
                                    value = apply_co(value.under, composed)
                            else:
                                coercion_index = stream[pc + 3]
                                act = co_actions[coercion_index]
                                if tracer is not None:
                                    tracer.apply(executed + 1, coercions[coercion_index])
                                if act == 1:
                                    value = MProxy(value, coercions[coercion_index])
                                elif act != 0:
                                    value = apply_co(value, coercions[coercion_index])
                        else:
                            if tracer is not None:
                                tracer.apply(executed + 1, coercions[stream[pc + 3]])
                            value = apply_co(value, coercions[stream[pc + 3]])
                        regs[stream[pc + 1]] = value
                        if op == COERCE:
                            pc += 4
                        else:  # R_COERCE_COERCE second half  (fused ⇒ -O2)
                            value = regs[stream[pc + 5]]
                            applications += 1
                            if value.__class__ is MProxy:
                                cell = caches[pc + 1]
                                mediator = value.mediator
                                if cell is not None and mediator is cell[0]:
                                    hits += 1
                                    composed = cell[1]
                                    act = cell[2]
                                else:
                                    misses += 1
                                    composed = compose_pending(
                                        mediator, coercions[stream[pc + 6]]
                                    )
                                    act = classify(composed)
                                    caches[pc + 1] = [mediator, composed, act]
                                if tracer is not None:
                                    tracer.absorb(executed + 1, coercions[stream[pc + 6]],
                                                  mediator, composed, pm, ps)
                                if act == 1:  # ACT_WRAP
                                    value = MProxy(value.under, composed)
                                elif act == 0:  # ACT_IDENTITY
                                    value = value.under
                                else:
                                    value = apply_co(value.under, composed)
                            else:
                                coercion_index = stream[pc + 6]
                                act = co_actions[coercion_index]
                                if tracer is not None:
                                    tracer.apply(executed + 1, coercions[coercion_index])
                                if act == 1:
                                    value = MProxy(value, coercions[coercion_index])
                                elif act != 0:
                                    value = apply_co(value, coercions[coercion_index])
                            regs[stream[pc + 4]] = value
                            pc += 7
                elif op == CLOSURE_BR_PRIM1:
                    # [op, dst, code, n, srcs…, prim, a, target]  (fused ⇒ -O2)
                    n_free = stream[pc + 3]
                    if n_free == 1:
                        free = (regs[stream[pc + 4]],)
                    elif n_free == 2:
                        free = (regs[stream[pc + 4]], regs[stream[pc + 5]])
                    elif n_free == 3:
                        free = (regs[stream[pc + 4]], regs[stream[pc + 5]],
                                regs[stream[pc + 6]])
                    elif n_free:
                        base = pc + 4
                        free = tuple([regs[stream[base + k]] for k in range(n_free)])
                    else:
                        free = ()
                    regs[stream[pc + 1]] = RClosure(rcodes[stream[pc + 2]], free)
                    base = pc + 4 + n_free
                    a = regs[stream[base + 1]]
                    fn, _arity, result_type, name = prims[stream[base]]
                    if a.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant: {a!r}"
                        )
                    try:
                        cond = fn(a.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    if cond is False:
                        pc = stream[base + 2]
                    elif cond is True:
                        pc = base + 3
                    else:
                        raise EvaluationError(
                            f"if-condition is not a boolean: {MConst(cond, result_type)!r}"
                        )
                elif op == COMPOSE_PRIM2:
                    # [op, co, dst, prim, a, b]  (fused ⇒ -O2)
                    coercion = coercions[stream[pc + 1]]
                    if pending is None:
                        pending = coercion
                        pm += 1
                        ps += co_sizes[stream[pc + 1]]
                        if pm > pm_max:
                            pm_max = pm
                        if ps > ps_max:
                            ps_max = ps
                        if tracer is not None:
                            tracer.install(executed + 1, coercion, pm, ps)
                    else:
                        cell = caches[pc]
                        if cell is not None and pending is cell[0]:
                            hits += 1
                            ps += cell[3] - cell[2]
                            merges += 1
                            if ps > ps_max:
                                ps_max = ps
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, cell[1], pm, ps)
                            pending = cell[1]
                        else:
                            misses += 1
                            merged = compose_pending(coercion, pending)
                            size_in = co_size(pending)
                            size_merged = co_size(merged)
                            ps += size_merged - size_in
                            merges += 1
                            if ps > ps_max:
                                ps_max = ps
                            caches[pc] = [pending, merged, size_in, size_merged]
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, merged, pm, ps)
                            pending = merged
                    a = regs[stream[pc + 4]]
                    b = regs[stream[pc + 5]]
                    fn, _arity, result_type, name = prims[stream[pc + 3]]
                    if a.__class__ is not MConst or b.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant"
                        )
                    try:
                        result = fn(a.value, b.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    regs[stream[pc + 2]] = MConst(result, result_type)
                    pc += 6
                elif op == BR_PRIM2:
                    # [op, prim, a, b, target]
                    a = regs[stream[pc + 2]]
                    b = regs[stream[pc + 3]]
                    fn, _arity, result_type, name = prims[stream[pc + 1]]
                    if a.__class__ is not MConst or b.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant"
                        )
                    try:
                        cond = fn(a.value, b.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    if cond is False:
                        pc = stream[pc + 4]
                    elif cond is True:
                        pc += 5
                    else:
                        raise EvaluationError(
                            f"if-condition is not a boolean: {MConst(cond, result_type)!r}"
                        )
                elif op == PRIM2:
                    # [op, dst, prim, a, b]  — the canonical prim2 core
                    a = regs[stream[pc + 3]]
                    b = regs[stream[pc + 4]]
                    fn, _arity, result_type, name = prims[stream[pc + 2]]
                    if a.__class__ is not MConst or b.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant"
                        )
                    try:
                        result = fn(a.value, b.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    regs[stream[pc + 1]] = MConst(result, result_type)
                    pc += 5
                elif op == MOVE_PRIM2:
                    # [op, dst1, src1, dst2, prim, a, b]  (fused ⇒ -O2)
                    regs[stream[pc + 1]] = regs[stream[pc + 2]]
                    a = regs[stream[pc + 5]]
                    b = regs[stream[pc + 6]]
                    fn, _arity, result_type, name = prims[stream[pc + 4]]
                    if a.__class__ is not MConst or b.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant"
                        )
                    try:
                        result = fn(a.value, b.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    regs[stream[pc + 3]] = MConst(result, result_type)
                    pc += 7
                elif op == BR_PRIM1:
                    # [op, prim, a, target]
                    a = regs[stream[pc + 2]]
                    fn, _arity, result_type, name = prims[stream[pc + 1]]
                    if a.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant: {a!r}"
                        )
                    try:
                        cond = fn(a.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    if cond is False:
                        pc = stream[pc + 3]
                    elif cond is True:
                        pc += 4
                    else:
                        raise EvaluationError(
                            f"if-condition is not a boolean: {MConst(cond, result_type)!r}"
                        )
                elif op == BR_FALSE:
                    # [op, src, target]
                    cond = regs[stream[pc + 1]]
                    if cond.__class__ is not MConst or not isinstance(cond.value, bool):
                        raise EvaluationError(f"if-condition is not a boolean: {cond!r}")
                    if cond.value:
                        pc += 3
                    else:
                        pc = stream[pc + 2]
                elif op == MOVE:
                    regs[stream[pc + 1]] = regs[stream[pc + 2]]
                    pc += 3
                elif op == JUMP:
                    pc = stream[pc + 1]
                elif op == CLOSURE:
                    # [op, dst, code, n, srcs…]  — the canonical closure core
                    n_free = stream[pc + 3]
                    if n_free == 1:
                        free = (regs[stream[pc + 4]],)
                    elif n_free == 2:
                        free = (regs[stream[pc + 4]], regs[stream[pc + 5]])
                    elif n_free == 3:
                        free = (regs[stream[pc + 4]], regs[stream[pc + 5]],
                                regs[stream[pc + 6]])
                    elif n_free:
                        base = pc + 4
                        free = tuple([regs[stream[base + k]] for k in range(n_free)])
                    else:
                        free = ()
                    regs[stream[pc + 1]] = RClosure(rcodes[stream[pc + 2]], free)
                    pc += 4 + n_free
                elif op == COMPOSE:
                    # [op, co]  — the canonical compose core (+ -O0 fallback)
                    coercion = coercions[stream[pc + 1]]
                    if pending is None:
                        pending = coercion
                        pm += 1
                        ps += co_sizes[stream[pc + 1]]
                        if pm > pm_max:
                            pm_max = pm
                        if ps > ps_max:
                            ps_max = ps
                        if tracer is not None:
                            tracer.install(executed + 1, coercion, pm, ps)
                    elif caches is not None:
                        cell = caches[pc]
                        if cell is not None and pending is cell[0]:
                            hits += 1
                            ps += cell[3] - cell[2]
                            merges += 1
                            if ps > ps_max:
                                ps_max = ps
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, cell[1], pm, ps)
                            pending = cell[1]
                        else:
                            misses += 1
                            merged = compose_pending(coercion, pending)
                            size_in = co_size(pending)
                            size_merged = co_size(merged)
                            ps += size_merged - size_in
                            merges += 1
                            if ps > ps_max:
                                ps_max = ps
                            caches[pc] = [pending, merged, size_in, size_merged]
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, merged, pm, ps)
                            pending = merged
                    else:
                        merged = compose_pending(coercion, pending)
                        ps += co_size(merged) - co_size(pending)
                        merges += 1
                        if ps > ps_max:
                            ps_max = ps
                        if tracer is not None:
                            tracer.merge(executed + 1, coercion, pending, merged, pm, ps)
                        pending = merged
                    pc += 2
                elif op == PRIM1:
                    # [op, dst, prim, a]
                    a = regs[stream[pc + 3]]
                    fn, _arity, result_type, name = prims[stream[pc + 2]]
                    if a.__class__ is not MConst:
                        raise EvaluationError(
                            f"operator {name!r} applied to a non-constant: {a!r}"
                        )
                    try:
                        result = fn(a.value)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    regs[stream[pc + 1]] = MConst(result, result_type)
                    pc += 4
                elif op == FIX:
                    # [op, dst, src, type-const]
                    regs[stream[pc + 1]] = MFixWrap(
                        regs[stream[pc + 2]], consts[stream[pc + 3]]
                    )
                    pc += 4
                elif op == PAIR:
                    # [op, dst, left, right]
                    regs[stream[pc + 1]] = MPair(
                        regs[stream[pc + 2]], regs[stream[pc + 3]]
                    )
                    pc += 4
                elif op == FST or op == SND:
                    # [op, dst, src]
                    regs[stream[pc + 1]] = _project(
                        regs[stream[pc + 2]], op == FST, policy
                    )
                    pc += 3
                elif op == PRIMN:
                    # [op, dst, prim, n, srcs…]
                    fn, _arity, result_type, name = prims[stream[pc + 2]]
                    n = stream[pc + 3]
                    raw = []
                    base = pc + 4
                    for k in range(n):
                        operand_value = regs[stream[base + k]]
                        if operand_value.__class__ is not MConst:
                            raise EvaluationError(
                                f"operator {name!r} applied to a non-constant"
                            )
                        raw.append(operand_value.value)
                    try:
                        result = fn(*raw)
                    except TypeError as exc:
                        raise operand_type_error(name, exc) from exc
                    regs[stream[pc + 1]] = MConst(result, result_type)
                    pc += 4 + n
                elif op == BLAME:
                    raise MachineBlame(labels[stream[pc + 1]])
                else:  # pragma: no cover - defensive
                    raise EvaluationError(f"unknown register opcode: {op}")
        except MachineBlame as blame:
            stats.steps = executed + 1
            _store_stats(stats, kd_max, pm_max, ps_max, merges, applications, hits, misses)
            snapshot = stats.snapshot()
            if tracer is not None:
                tracer.blame(executed + 1, blame.label)
                tracer.run_end("blame", snapshot)
            return MachineOutcome("blame", label=blame.label, stats=snapshot)

        stats.steps = fuel
        _store_stats(stats, kd_max, pm_max, ps_max, merges, applications, hits, misses)
        snapshot = stats.snapshot()
        if tracer is not None:
            tracer.run_end("timeout", snapshot)
        return MachineOutcome("timeout", stats=snapshot)


def _store_stats(
    stats: MachineStats,
    kd_max: int,
    pm_max: int,
    ps_max: int,
    merges: int,
    applications: int,
    hits: int,
    misses: int,
) -> None:
    """Store the loop-local counters back into the shared stats object."""
    stats.max_kont_depth = kd_max
    stats.max_pending_mediators = pm_max
    stats.max_pending_size = ps_max
    stats.merges = merges
    stats.mediator_applications = applications
    stats.cache_hits = hits
    stats.cache_misses = misses


#: The shared, stateless register VM instance.
THE_RVM = RVM()


def compile_register_program(
    term_b: Term | CodeObject, semantics: str = "coercion", opt_level: int = DEFAULT_OPT_LEVEL,
    metrics=None,
) -> RCode:
    """The register pipeline: lower the λB term (or take the lowering
    :func:`~repro.compiler.lower.lower_term` returned for it, untouched),
    map it to ``semantics``, run the shared optimizer passes
    (:func:`repro.compiler.opt.optimize` — the stream the stack VM runs,
    without its stack cache cells), then convert.

    Returns the register code, ready for :func:`run_rcode`; the stack code
    the conversion read is dropped.  ``metrics`` gets the ``lower``,
    ``optimize`` and ``regalloc`` phase timers.
    """
    from ..obs.metrics import phase
    from . import regalloc
    from .lower import lower_for
    from .opt import optimize

    code = lower_for(term_b, semantics, metrics)
    with phase(metrics, "optimize"):
        optimize(code, opt_level)
    with phase(metrics, "regalloc"):
        # Looked up at call time, so a wrapper of the converter sees it.
        return regalloc.compile_registers(code)


def run_rcode(
    code: RCode, fuel: int = DEFAULT_VM_FUEL, opcode_counts: dict | None = None
) -> MachineOutcome:
    """Run already register-compiled code on the shared RVM instance."""
    return THE_RVM.run(code, fuel, opcode_counts=opcode_counts)
