"""The shared bytecode optimizer: static mediator work on the stack IR.

This stage sits between :mod:`repro.compiler.lower` and the two compiled
engines and moves mediator work out of the hot loop.  Its passes are the
ones both IRs need; ``optimize(code, level)`` (surfaced as
``-O``/``--opt-level``, ``-O2`` the default) runs them and records the level
on every code object:

``-O0``
    Nothing: the instruction stream exactly as lowered (the PR-2/PR-3
    baseline, kept runnable as the optimizer's own oracle).

``-O1`` and up — **static coercion elision and pre-composition.**
    The paper's point is that composition ``#`` is a *compile-time-friendly*
    operator: it is total, canonical, and associative.  So whatever the
    compiler can already see, it composes ahead of execution:

    * a ``COERCE``/``COMPOSE`` whose operand is (or normalizes to) the
      canonical identity at its type is dropped — applying it is a no-op on
      every machine value;
    * statically adjacent ``COERCE s₁; COERCE s₂`` become one
      ``COERCE (s₁ # s₂)``; adjacent ``COMPOSE s₁; COMPOSE s₂`` become one
      ``COMPOSE (s₂ # s₁)`` (a ``COMPOSE`` prepends to the pending slot, so
      the *later* instruction applies first).  Chains collapse to fixpoint,
      and a chain that normalizes to the identity disappears entirely.

    Both rewrites go through the pool's own mediator representation — the
    memoised ``#`` for canonical coercions, threesome composition ``∘`` for
    a threesome pool — so every backend is optimized by the same pass.

``-O2`` — **inline mediator caches (and register fusion), per engine.**
    What ``-O2`` adds belongs to the engine that runs the code, so it is
    not done here, and it never changes this pass's instruction stream:
    both engines start from the same stream at every level.  The stack
    VM's per-site inline-cache cells (``CodeObject.caches``) are added by
    :func:`repro.compiler.vm.optimize`, the optimizer ``vm.compile_term``
    runs.  The register pipeline converts this pass's output directly;
    :mod:`repro.compiler.regalloc` fuses register pairs and the register
    VM's code allocates its own cache cells.

Jumps are remapped across every rewrite.  The optimizer never changes
observables — values, blame labels, λS's space guarantee (a tail loop's
``max_pending_mediators`` stays 1; an elided identity can only *shrink*
the footprint) — which ``check_vm_oracle``/``check_mediator_oracle``
assert by running ``-O0`` against ``-O2`` on both mediator backends.
"""

from __future__ import annotations

from ..machine.policy import MediationPolicy
from ..semantics import policy_for
from .bytecode import COERCE, COMPOSE, JUMP, JUMP_IF_FALSE, CodeObject, all_code_objects

#: Optimization levels understood by ``optimize`` (and ``-O`` on the CLI).
OPT_LEVELS = (0, 1, 2)

#: The default level everywhere: full optimization.
DEFAULT_OPT_LEVEL = 2

_JUMPS = (JUMP, JUMP_IF_FALSE)


def _jump_targets(insns: list[tuple[int, int]]) -> set[int]:
    return {operand for op, operand in insns if op in _JUMPS}


def _remap_jumps(insns: list[tuple[int, int]], old2new: list[int]) -> list[tuple[int, int]]:
    return [
        (op, old2new[operand] if op in _JUMPS else operand) for op, operand in insns
    ]


# ---------------------------------------------------------------------------
# -O1: identity elision and static pre-composition
# ---------------------------------------------------------------------------


def _elide_and_precompose(code: CodeObject, policy: MediationPolicy) -> bool:
    """One rewrite pass over one code object; True if anything changed.

    Drops identity ``COERCE``/``COMPOSE`` and merges adjacent same-kind
    pairs through the backend's composition.  Deleted instructions remap to
    the next surviving one, so jumps into an elided site keep their meaning.
    """
    insns = code.instructions
    pool = code.pool
    targets = _jump_targets(insns)
    new: list[tuple[int, int]] = []
    old2new: list[int] = []
    changed = False
    i, n = 0, len(insns)
    while i < n:
        op, operand = insns[i]
        if op == COERCE or op == COMPOSE:
            mediator = pool.coercions[operand]
            if policy.is_identity(mediator):
                old2new.append(len(new))
                i += 1
                changed = True
                continue
            if i + 1 < n and insns[i + 1][0] == op and (i + 1) not in targets:
                other = pool.coercions[insns[i + 1][1]]
                # COERCE applies in stream order; COMPOSE prepends to the
                # pending slot, so the later instruction applies first.
                if op == COERCE:
                    merged = policy.compose(mediator, other)
                else:
                    merged = policy.compose(other, mediator)
                old2new.append(len(new))
                old2new.append(len(new))
                if not policy.is_identity(merged):
                    new.append((op, pool.add_canonical_mediator(merged)))
                i += 2
                changed = True
                continue
        old2new.append(len(new))
        new.append((op, operand))
        i += 1
    old2new.append(len(new))  # jumps may target the end of the stream
    if changed:
        code.instructions = _remap_jumps(new, old2new)
    return changed


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def optimize(code: CodeObject, level: int = DEFAULT_OPT_LEVEL) -> CodeObject:
    """Optimize a compiled program in place (entry + nested codes); returns it.

    ``level`` must be one of :data:`OPT_LEVELS`.  Level 0 leaves the
    instructions exactly as lowered; levels 1 and 2 run the same passes
    here and differ in what each engine adds on top at ``-O2``.  A code
    object with no ``COERCE`` or ``COMPOSE`` has nothing for the passes to
    rewrite and is only stamped with the level.
    """
    if level not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {level!r}; expected one of {OPT_LEVELS}")
    policy = policy_for(code.pool.semantics) if level else None
    for obj in all_code_objects(code):
        if policy is not None and any(op == COERCE or op == COMPOSE
                                      for op, _ in obj.instructions):
            while _elide_and_precompose(obj, policy):
                pass
        obj.opt_level = level
    return code
