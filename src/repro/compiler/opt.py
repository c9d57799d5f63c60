"""The bytecode optimizer: static mediator work + peephole superinstructions.

This stage sits between :mod:`repro.compiler.lower` and the VM and moves
work out of the hot loop, at three levels (``optimize(code, level)``,
surfaced as ``-O``/``--opt-level`` with ``-O2`` the default):

``-O0``
    Nothing: the instruction stream exactly as lowered (the PR-2/PR-3
    baseline, kept runnable as the optimizer's own oracle).

``-O1`` — **static coercion elision and pre-composition.**
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
    a threesome pool — so both backends are optimized by the same pass.

``-O2`` — **peephole superinstructions + inline mediator caches.**
    Statically adjacent pairs that a dynamic-frequency count over the
    ``bench_vm`` workloads showed hot are fused into the superinstructions of
    :data:`repro.compiler.bytecode.SUPERINSTRUCTIONS`, saving a dispatch
    and usually a stack round trip each.  ``-O2`` also allocates the
    per-site inline-cache cells (``CodeObject.caches``) that let the VM's
    mediator opcodes replace policy calls and memo-dictionary lookups with
    pointer compares on interned mediator identity (see
    :mod:`repro.compiler.vm`).

Jumps are remapped across every rewrite; a pair is never fused when its
second instruction is a jump target (control could enter between the
halves).  The optimizer never changes observables — values, blame labels,
λS's space guarantee (a tail loop's ``max_pending_mediators`` stays 1; an
elided identity can only *shrink* the footprint) — which
``check_vm_oracle``/``check_mediator_oracle`` assert by running ``-O0``
against ``-O2`` on both mediator backends.
"""

from __future__ import annotations

from ..machine.policy import MediationPolicy
from ..semantics import policy_for
from .bytecode import (
    COERCE,
    COMPOSE,
    FUSED_LIMIT,
    JUMP,
    JUMP_IF_FALSE,
    NO_OPERAND,
    PRIM_JUMP_IF_FALSE,
    PUSH_PRIM,
    SUPERINSTRUCTIONS,
    CodeObject,
    all_code_objects,
    pack_operands,
)

#: Optimization levels understood by ``optimize`` (and ``-O`` on the CLI).
OPT_LEVELS = (0, 1, 2)

#: The default level everywhere: full optimization.
DEFAULT_OPT_LEVEL = 2

#: ``(op1, op2) -> fused`` — the peephole table, inverted from the opcode
#: metadata so the two stay in sync by construction.
_FUSIONS: dict[tuple[int, int], int] = {
    pair: fused for fused, pair in SUPERINSTRUCTIONS.items()
}

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
# -O2: peephole superinstruction fusion
# ---------------------------------------------------------------------------


def _fusable(code: CodeObject, i: int, targets: set[int]) -> int | None:
    """The fused opcode for the pair at ``i``, or None."""
    insns = code.instructions
    op1, a = insns[i]
    op2, b = insns[i + 1]
    fused = _FUSIONS.get((op1, op2))
    if fused is None or (i + 1) in targets:
        return None
    # Both halves carry an operand: they must fit the packing.  (Remapped
    # jump targets only shrink, so checking the old values is safe.)
    if op1 not in NO_OPERAND and op2 not in NO_OPERAND:
        if a >= FUSED_LIMIT or b >= FUSED_LIMIT:
            return None
    # The fully inlined primitive superinstructions handle unary and binary
    # operators (the whole registry today); leave anything else unfused.
    if fused == PUSH_PRIM and code.pool.prims[b][1] > 2:
        return None
    if fused == PRIM_JUMP_IF_FALSE and code.pool.prims[a][1] > 2:
        return None
    return fused


def _fuse_superinstructions(code: CodeObject) -> None:
    insns = code.instructions
    targets = _jump_targets(insns)
    n = len(insns)

    # Phase 1: greedy left-to-right pairing decisions.
    decisions: list[tuple[int, int | None]] = []  # (old index, fused opcode | None)
    i = 0
    while i < n:
        fused = _fusable(code, i, targets) if i + 1 < n else None
        decisions.append((i, fused))
        i += 2 if fused is not None else 1

    # Phase 2: the old→new pc map (a fused pair's second half maps to the
    # fused instruction; no jump can target it — _fusable guaranteed that).
    old2new = [0] * (n + 1)
    for new_index, (old_index, fused) in enumerate(decisions):
        old2new[old_index] = new_index
        if fused is not None:
            old2new[old_index + 1] = new_index
    old2new[n] = len(decisions)

    # Phase 3: emit, remapping jump operands (packed or plain).
    new: list[tuple[int, int]] = []
    for old_index, fused in decisions:
        op1, a = insns[old_index]
        if op1 in _JUMPS:
            a = old2new[a]
        if fused is None:
            new.append((op1, a))
            continue
        op2, b = insns[old_index + 1]
        if op2 in _JUMPS:
            b = old2new[b]
        new.append((fused, pack_operands(op1, a, op2, b)))
    code.instructions = new


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def optimize(code: CodeObject, level: int = DEFAULT_OPT_LEVEL) -> CodeObject:
    """Optimize a compiled program in place (entry + nested codes); returns it.

    ``level`` is clamped to :data:`OPT_LEVELS`; level 0 returns the program
    untouched (and un-cached: exactly what the lowering pass produced).
    """
    if level not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {level!r}; expected one of {OPT_LEVELS}")
    code.opt_level = level
    if level == 0:
        return code
    policy = policy_for(code.pool.semantics)
    for obj in all_code_objects(code):
        while _elide_and_precompose(obj, policy):
            pass
        if level >= 2:
            _fuse_superinstructions(obj)
            obj.caches = [None] * len(obj.instructions)
        obj.opt_level = level
    return code
