"""The coercion-aware bytecode VM — the fast λS engine.

One Python-level loop executes the flat instruction stream produced by
:mod:`repro.compiler.lower` (and reshaped by :mod:`repro.compiler.opt`).
Dispatch is an integer comparison chain ordered by dynamic frequency (the
closest Python gets to threaded code); every operand is a pool index
resolved at compile time, so the hot loop touches no term, type, or name
structure at all.  Compare the CEK machine, which pays an ``isinstance``
ladder over AST nodes plus an environment-dictionary copy per binding on
every step.

Space efficiency lives in one slot per call frame: ``pending``, the single
canonical coercion to apply to the frame's eventual result.

* ``COMPOSE s`` merges ``s`` into the live frame's slot with the memoised
  ``#`` — it never pushes a frame;
* ``TAILCALL`` reuses the frame (the slot survives, composed);
* unwrapping a function proxy folds the proxy's codomain coercion into the
  same discipline: ``CALL`` seeds the callee's slot, ``TAILCALL`` composes
  into the caller's.

So at any instant each frame holds at most one pending coercion — composed,
never stacked — and a boundary-crossing tail loop runs with
``max_pending_mediators == 1`` no matter how many iterations it makes.  The
shared :class:`~repro.machine.profiler.MachineStats` accounting makes this
directly comparable with the CEK machine's numbers (and is asserted by
``tests/test_compiler.py`` and ``benchmarks/bench_vm.py``).

**One instruction stream.**  The VM runs the stream that lowering and the
shared passes of :func:`repro.compiler.opt.optimize` produce, at every
level.  This module's :func:`optimize` — the optimizer :func:`compile_term`
runs — adds nothing to it; what the stack VM's ``-O2`` adds is the inline
caches below.  Register conversion reads the same stream.

**Inline mediator caches.**  At ``-O2`` every instruction site owns a cache
cell (``CodeObject.caches``, allocated by :func:`optimize`), and the
mediator opcodes become monomorphic inline caches keyed on *interned
mediator identity*: a boundary tail loop re-applies and re-merges the same
canonical mediators every iteration, so after the first trip each
``COERCE``/``COMPOSE``/proxy-unwrap/``RETURN`` does a pointer compare plus
a cached result instead of a policy isinstance ladder and a
memo-dictionary lookup.  Cache layout per site kind:

* ``COERCE`` sites: ``[proxy_mediator, composed, action]`` for proxied
  subjects; non-proxy subjects use the pool-parallel action table (the
  mediator is fixed per site);
* ``COMPOSE`` sites: ``[pending_in, merged, size_in, size_merged]``;
* call sites: ``[fun_mediator, dom, cod, dom_action, result_co, pending_in,
  merged, size_in, size_merged]`` (unwrap cache + the tail-merge cache);
* ``RETURN`` sites: ``[pending, action, size]``.

Actions are the ``ACT_*`` codes of :mod:`repro.machine.policy`; anything
but identity/wrap falls back to the policy's ``apply`` (which raises blame
exactly as before).  A cache never changes observables — it short-circuits
computations whose results are memoised on the same identities anyway.

The VM executes λS only; ``compile_term`` lowers each cast of a λB program
through ``|·|BS`` where it finds it.

The enforcement *semantics* is pluggable (the
:data:`~repro.semantics.SEMANTICS` registry, selected by the constant
pool's ``semantics`` field): Natural via canonical coercions merged with the
memoised ``#`` (the default), Natural via threesomes merged with ``∘``
(``compile_term(term, "threesome")``), Transient's shallow tag
checks, or Erasure's no-ops.  Every backend is a
:class:`~repro.machine.policy.MediationPolicy` shared with the CEK machine,
so the space discipline above is representation-independent — asserted end
to end by ``check_oracle_matrix`` (which also runs ``-O0`` against
``-O2`` per backend).
"""

from __future__ import annotations

from ..core.errors import EvaluationError
from ..core.fuel import DEFAULT_VM_FUEL
from ..core.ops import operand_type_error
from ..core.terms import Term
from ..machine.cek import MachineOutcome
from ..machine.policy import MachineBlame, MediationPolicy
from ..machine.profiler import MachineStats
from ..machine.values import MConst, MFixWrap, MFunctionValue, MPair, MProxy
from ..obs.trace import current_tracer
from .bytecode import (
    BLAME,
    CALL,
    COERCE,
    COMPOSE,
    FST,
    JUMP,
    JUMP_IF_FALSE,
    LOAD,
    MAKE_CLOSURE,
    MAKE_FIX,
    PAIR,
    PRIM,
    PUSH_CONST,
    RETURN,
    SND,
    STORE,
    TAILCALL,
    CodeObject,
    ConstantPool,
    all_code_objects,
)
from ..semantics import policy_for
from . import opt
from .opt import DEFAULT_OPT_LEVEL

# ---------------------------------------------------------------------------
# -O2: inline-cache cells
# ---------------------------------------------------------------------------


def optimize(code: CodeObject, level: int = DEFAULT_OPT_LEVEL) -> CodeObject:
    """The stack VM's optimizer, in place: the shared passes of
    :func:`repro.compiler.opt.optimize`, then at ``-O2`` one inline-cache
    cell per instruction site.  The instruction stream is the shared
    passes' output, unchanged."""
    opt.optimize(code, level)
    if level >= 2:
        for obj in all_code_objects(code):
            obj.caches = [None] * len(obj.instructions)
    return code


class VMClosure(MFunctionValue):
    """A compiled function: its code object plus the captured free values."""

    __slots__ = ("code", "free")

    def __init__(self, code: CodeObject, free: tuple):
        self.code = code
        self.free = free

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<vm-closure {self.code.name}>"


def _make_fix_apply_code() -> CodeObject:
    """The built-in unrolling step ``(fix V) W → (V (fix V-wrapper)) W``.

    Locals: ``[functional, wrapper, argument]``.  The final ``TAILCALL``
    reuses the frame, so fix unrolling itself costs no stack.
    """
    instructions = [(LOAD, 0), (LOAD, 1), (CALL, 0), (LOAD, 2), (TAILCALL, 0)]
    return CodeObject("<fix-apply>", instructions, ConstantPool(), 0, 3, None, ("V", "wrap", "arg"))


_FIX_APPLY = _make_fix_apply_code()
#: The same unrolling step at ``-O2``, with inline-cache cells — picked when
#: the running program itself carries inline caches, so fix loops profit
#: from them too while ``-O0`` runs stay cache-free.
_FIX_APPLY_O2 = optimize(_make_fix_apply_code(), 2)


def _fix_apply_o2_for_run() -> CodeObject:
    """A clone of the ``-O2`` fix-apply stub with *fresh* inline-cache cells.

    The stub itself is immutable and shared, but its cache cells are run
    state: they fill against runtime mediator identities and feed the run's
    ``cache_hits``/``cache_misses``.  Sharing them process-wide would make
    those counters depend on whatever program ran earlier."""
    template = _FIX_APPLY_O2
    code = CodeObject(
        template.name, template.instructions, template.pool, template.n_free,
        template.n_locals, template.param, template.local_names,
    )
    code.opt_level = template.opt_level
    code.caches = [None] * len(template.instructions)
    return code


def _project(value, first: bool, policy: MediationPolicy):
    """Project a pair (or pair proxy) — mirrors the CEK machine's ``_project``."""
    if isinstance(value, MPair):
        return value.left if first else value.right
    if isinstance(value, MProxy) and policy.is_prod_proxy(value.mediator):
        left, right = policy.prod_parts(value.mediator)
        part = left if first else right
        return policy.apply(_project(value.under, first, policy), part)
    raise EvaluationError(f"projection of a non-pair value: {value!r}")


def _pool_tables(pool: ConstantPool, policy: MediationPolicy) -> tuple[list, list]:
    """Pool-parallel ``(actions, sizes)`` of the mediator entries, cached.

    The action of applying a pool mediator to a non-proxy value is fixed per
    entry, so the hot loop can answer it with a list index instead of the
    policy's isinstance ladder.  Recomputed if the pool grew (it never does
    after optimization, but the guard keeps staleness impossible).
    """
    tables = getattr(pool, "_vm_tables", None)
    if tables is None or len(tables[0]) != len(pool.coercions):
        tables = (
            [policy.classify(c) for c in pool.coercions],
            [policy.size(c) for c in pool.coercions],
        )
        pool._vm_tables = tables
    return tables


class VM:
    """Executes one compiled program.  Stateless between runs; reusable."""

    def run(
        self,
        code: CodeObject,
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
        codes = pool.codes

        # The pool declares which enforcement semantics its entries use;
        # hoist that backend's policy methods into loop locals.
        policy = policy_for(pool.semantics)
        # The observability hook: fetched once per run, tested with a single
        # `is not None` at mediator lifecycle sites only — never on the
        # per-dispatch path — so untraced runs pay ~nothing and the tracer
        # (which never touches `stats`) cannot perturb outcomes.
        tracer = current_tracer()
        if tracer is not None:
            tracer.run_start("vm", policy)
        apply_co = policy.apply
        co_size = policy.size
        classify = policy.classify
        compose_pending = policy.compose
        is_fun_proxy = policy.is_fun_proxy
        fun_parts = policy.fun_parts
        applications = 0
        hits = 0  # inline mediator-cache consults resolved by pointer compare
        misses = 0

        stack: list = []  # the operand stack, shared across frames
        frames: list = []  # saved caller frames: (insns, pc, locals, pending, caches)
        insns = code.instructions
        pc = 0
        locals_: list = [None] * code.n_locals
        pending = None  # the frame's single pending result coercion
        caches = code.caches  # per-site inline-cache cells (None below -O2)
        stats.inline_caches = caches is not None
        if caches is not None:
            co_actions, co_sizes = _pool_tables(pool, policy)
            fix_code = _fix_apply_o2_for_run()
        else:
            co_actions = co_sizes = ()
            fix_code = _FIX_APPLY

        try:
            for executed in range(fuel):
                op, operand = insns[pc]
                if counts is not None:
                    counts[op] = counts.get(op, 0) + 1
                pc += 1

                if op == LOAD:
                    stack.append(locals_[operand])
                elif op == CALL or op == TAILCALL:
                    arg = stack.pop()
                    tail = op == TAILCALL
                    fun = stack.pop()
                    result_co = None
                    # Unwrap proxy layers: coerce the argument now, defer the
                    # result coercion into a pending slot.
                    if fun.__class__ is MProxy:
                        cell = caches[pc - 1] if caches is not None else None
                        if cell is not None and fun.mediator is cell[0]:
                            # Inline-cache hit: dom/cod and the dom action
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
                                    caches[pc - 1] = [
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
                    if fun.__class__ is VMClosure:
                        callee = fun.code
                        new_locals = list(fun.free)
                        new_locals.append(arg)
                        extra = callee.n_locals - len(new_locals)
                        if extra:
                            new_locals.extend([None] * extra)
                    elif fun.__class__ is MFixWrap:
                        functional = fun.functional
                        callee = fix_code
                        new_locals = [functional, MFixWrap(functional, fun.fun_type), arg]
                    else:
                        raise EvaluationError(f"application of a non-function value: {fun!r}")
                    if not tail:
                        frames.append((insns, pc, locals_, pending, caches))
                        stats.note_depth(len(frames))
                        pending = result_co
                        if result_co is not None:
                            stats.push_mediator(co_size(result_co))
                            if tracer is not None:
                                tracer.install(executed + 1, result_co,
                                               stats.pending_mediators,
                                               stats.pending_size)
                    else:  # reuse the frame, keep the pending slot
                        if result_co is not None:
                            if pending is None:
                                pending = result_co
                                stats.push_mediator(co_size(result_co))
                                if tracer is not None:
                                    tracer.install(executed + 1, result_co,
                                                   stats.pending_mediators,
                                                   stats.pending_size)
                            else:
                                cell = caches[pc - 1] if caches is not None else None
                                if (
                                    cell is not None
                                    and result_co is cell[4]
                                    and pending is cell[5]
                                ):
                                    hits += 1
                                    stats.replace_mediator(cell[7], cell[8])
                                    if tracer is not None:
                                        tracer.merge(executed + 1, result_co,
                                                     pending, cell[6],
                                                     stats.pending_mediators,
                                                     stats.pending_size)
                                    pending = cell[6]
                                else:
                                    if cell is not None:
                                        misses += 1
                                    merged = compose_pending(result_co, pending)
                                    size_in = co_size(pending)
                                    size_merged = co_size(merged)
                                    stats.replace_mediator(size_in, size_merged)
                                    if cell is not None:
                                        cell[4] = result_co
                                        cell[5] = pending
                                        cell[6] = merged
                                        cell[7] = size_in
                                        cell[8] = size_merged
                                    if tracer is not None:
                                        tracer.merge(executed + 1, result_co,
                                                     pending, merged,
                                                     stats.pending_mediators,
                                                     stats.pending_size)
                                    pending = merged
                    insns = callee.instructions
                    pc = 0
                    locals_ = new_locals
                    caches = callee.caches
                elif op == PUSH_CONST:
                    stack.append(consts[operand])
                elif op == COERCE:
                    value = stack[-1]
                    applications += 1
                    if caches is not None:
                        if value.__class__ is MProxy:
                            cell = caches[pc - 1]
                            mediator = value.mediator
                            if cell is not None and mediator is cell[0]:
                                hits += 1
                                composed = cell[1]
                                act = cell[2]
                            else:
                                misses += 1
                                composed = compose_pending(mediator, coercions[operand])
                                act = classify(composed)
                                caches[pc - 1] = [mediator, composed, act]
                            if tracer is not None:
                                tracer.absorb(executed + 1, coercions[operand],
                                              mediator, composed,
                                              stats.pending_mediators,
                                              stats.pending_size)
                            if act == 1:  # ACT_WRAP
                                value = MProxy(value.under, composed)
                            elif act == 0:  # ACT_IDENTITY
                                value = value.under
                            else:
                                value = apply_co(value.under, composed)
                        else:
                            if tracer is not None:
                                tracer.apply(executed + 1, coercions[operand])
                            act = co_actions[operand]
                            if act == 1:
                                value = MProxy(value, coercions[operand])
                            elif act != 0:
                                value = apply_co(value, coercions[operand])
                    else:
                        if tracer is not None:
                            tracer.apply(executed + 1, coercions[operand])
                        value = apply_co(value, coercions[operand])
                    stack[-1] = value
                elif op == PRIM:
                    fn, arity, result_type, name = prims[operand]
                    if arity == 1:
                        a = stack[-1]
                        if a.__class__ is not MConst:
                            raise EvaluationError(
                                f"operator {name!r} applied to a non-constant: {a!r}"
                            )
                        try:
                            result = fn(a.value)
                        except TypeError as exc:
                            raise operand_type_error(name, exc) from exc
                        stack[-1] = MConst(result, result_type)
                    elif arity == 2:
                        b = stack.pop()
                        a = stack[-1]
                        if a.__class__ is not MConst or b.__class__ is not MConst:
                            raise EvaluationError(
                                f"operator {name!r} applied to a non-constant"
                            )
                        try:
                            result = fn(a.value, b.value)
                        except TypeError as exc:
                            raise operand_type_error(name, exc) from exc
                        stack[-1] = MConst(result, result_type)
                    else:
                        raw = []
                        for operand_value in reversed([stack.pop() for _ in range(arity)]):
                            if operand_value.__class__ is not MConst:
                                raise EvaluationError(
                                    f"operator {name!r} applied to a non-constant"
                                )
                            raw.append(operand_value.value)
                        try:
                            result = fn(*raw)
                        except TypeError as exc:
                            raise operand_type_error(name, exc) from exc
                        stack.append(MConst(result, result_type))
                elif op == JUMP_IF_FALSE:
                    cond = stack.pop()
                    if cond.__class__ is not MConst or not isinstance(cond.value, bool):
                        raise EvaluationError(f"if-condition is not a boolean: {cond!r}")
                    if not cond.value:
                        pc = operand
                elif op == JUMP:
                    pc = operand
                elif op == COMPOSE:
                    coercion = coercions[operand]
                    if pending is None:
                        pending = coercion
                        stats.push_mediator(
                            co_sizes[operand] if caches is not None else co_size(coercion)
                        )
                        if tracer is not None:
                            tracer.install(executed + 1, coercion,
                                           stats.pending_mediators, stats.pending_size)
                    elif caches is not None:
                        cell = caches[pc - 1]
                        if cell is not None and pending is cell[0]:
                            hits += 1
                            stats.replace_mediator(cell[2], cell[3])
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, cell[1],
                                             stats.pending_mediators, stats.pending_size)
                            pending = cell[1]
                        else:
                            misses += 1
                            merged = compose_pending(coercion, pending)
                            size_in = co_size(pending)
                            size_merged = co_size(merged)
                            stats.replace_mediator(size_in, size_merged)
                            caches[pc - 1] = [pending, merged, size_in, size_merged]
                            if tracer is not None:
                                tracer.merge(executed + 1, coercion, pending, merged,
                                             stats.pending_mediators, stats.pending_size)
                            pending = merged
                    else:
                        merged = compose_pending(coercion, pending)
                        stats.replace_mediator(co_size(pending), co_size(merged))
                        if tracer is not None:
                            tracer.merge(executed + 1, coercion, pending, merged,
                                         stats.pending_mediators, stats.pending_size)
                        pending = merged
                elif op == RETURN:
                    value = stack.pop()
                    if pending is not None:
                        applications += 1
                        if caches is not None and value.__class__ is not MProxy:
                            cell = caches[pc - 1]
                            if cell is not None and pending is cell[0]:
                                hits += 1
                                act = cell[1]
                                stats.pop_mediator(cell[2])
                            else:
                                misses += 1
                                act = classify(pending)
                                size = co_size(pending)
                                caches[pc - 1] = [pending, act, size]
                                stats.pop_mediator(size)
                            if tracer is not None:
                                tracer.collapse(executed + 1, pending,
                                                stats.pending_mediators,
                                                stats.pending_size)
                            if act == 1:  # ACT_WRAP
                                value = MProxy(value, pending)
                            elif act != 0:
                                value = apply_co(value, pending)
                        else:
                            stats.pop_mediator(co_size(pending))
                            if tracer is not None:
                                tracer.collapse(executed + 1, pending,
                                                stats.pending_mediators,
                                                stats.pending_size)
                            value = apply_co(value, pending)
                    if not frames:
                        stats.steps = executed + 1
                        stats.mediator_applications = applications
                        stats.cache_hits = hits
                        stats.cache_misses = misses
                        snapshot = stats.snapshot()
                        if tracer is not None:
                            tracer.run_end("value", snapshot)
                        return MachineOutcome("value", value=value, stats=snapshot)
                    insns, pc, locals_, pending, caches = frames.pop()
                    stack.append(value)
                elif op == STORE:
                    locals_[operand] = stack.pop()
                elif op == MAKE_CLOSURE:
                    child = codes[operand]
                    n_free = child.n_free
                    if n_free:
                        free = tuple(stack[-n_free:])
                        del stack[-n_free:]
                    else:
                        free = ()
                    stack.append(VMClosure(child, free))
                elif op == MAKE_FIX:
                    stack.append(MFixWrap(stack.pop(), consts[operand]))
                elif op == PAIR:
                    right = stack.pop()
                    stack[-1] = MPair(stack[-1], right)
                elif op == FST:
                    stack[-1] = _project(stack[-1], True, policy)
                elif op == SND:
                    stack[-1] = _project(stack[-1], False, policy)
                elif op == BLAME:
                    raise MachineBlame(labels[operand])
                else:  # pragma: no cover - defensive
                    raise EvaluationError(f"unknown opcode: {op}")
        except MachineBlame as blame:
            stats.steps = executed + 1
            stats.mediator_applications = applications
            stats.cache_hits = hits
            stats.cache_misses = misses
            snapshot = stats.snapshot()
            if tracer is not None:
                tracer.blame(executed + 1, blame.label)
                tracer.run_end("blame", snapshot)
            return MachineOutcome("blame", label=blame.label, stats=snapshot)

        stats.steps = fuel
        stats.mediator_applications = applications
        stats.cache_hits = hits
        stats.cache_misses = misses
        snapshot = stats.snapshot()
        if tracer is not None:
            tracer.run_end("timeout", snapshot)
        return MachineOutcome("timeout", stats=snapshot)


#: The shared, stateless VM instance.
THE_VM = VM()


def compile_term(
    term_b: Term | CodeObject, semantics: str = "coercion", opt_level: int = DEFAULT_OPT_LEVEL,
    metrics=None,
) -> CodeObject:
    """Compile an elaborated λB term: lower it (each cast through ``|·|BS``),
    map it to ``semantics``, optimize.  ``term_b`` may instead be a lowering
    :func:`~repro.compiler.lower.lower_term` returned, which is left
    untouched, so one lowering compiles under every semantics.

    ``semantics`` picks the enforcement semantics, and so the pool
    representation the VM will execute (any entry of the
    :data:`~repro.semantics.SEMANTICS` registry); ``opt_level`` is the
    ``-O`` level (0 none, 1 static
    mediator elision/pre-composition, 2 — the default — inline caches too;
    see :func:`optimize`).  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) gets the ``lower`` and
    ``optimize`` phase timers.
    """
    from ..obs.metrics import phase
    from .lower import lower_for

    code = lower_for(term_b, semantics, metrics)
    with phase(metrics, "optimize"):
        return optimize(code, opt_level)


def run_code(
    code: CodeObject, fuel: int = DEFAULT_VM_FUEL, opcode_counts: dict | None = None
) -> MachineOutcome:
    """Run an already-compiled program on the shared VM instance."""
    return THE_VM.run(code, fuel, opcode_counts=opcode_counts)
