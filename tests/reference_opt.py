"""The optimizer's identity elision and static pre-composition as they were
when the pass reran until nothing changed.  Kept as the oracle for the
one-sweep pass in ``test_opt.py``; it must not be used by the package.

``_elide_and_precompose`` and its two helpers are copied verbatim;
``optimize`` is the old driver with the level checks and the ``-O`` stamp
left out, since only the instruction streams and pools are compared.
"""

from __future__ import annotations

from repro.compiler.bytecode import (
    COERCE,
    COMPOSE,
    JUMP,
    JUMP_IF_FALSE,
    CodeObject,
    all_code_objects,
)
from repro.machine.policy import MediationPolicy
from repro.semantics import policy_for

_JUMPS = (JUMP, JUMP_IF_FALSE)


def _jump_targets(insns: list[tuple[int, int]]) -> set[int]:
    return {operand for op, operand in insns if op in _JUMPS}


def _remap_jumps(insns: list[tuple[int, int]], old2new: list[int]) -> list[tuple[int, int]]:
    return [
        (op, old2new[operand] if op in _JUMPS else operand) for op, operand in insns
    ]


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


def optimize(code: CodeObject) -> CodeObject:
    """Rerun the pass over every code object until it changes nothing."""
    policy = policy_for(code.pool.semantics)
    for obj in all_code_objects(code):
        while _elide_and_precompose(obj, policy):
            pass
    return code
