"""The enforcement-semantics registry: one source of truth for the backend axis.

The λS pipeline is parametric in *how* run-time enforcement happens — which
:class:`~repro.machine.policy.MediationPolicy` the machines execute, how a
canonical coercion is pre-interned into a constant pool, and what it can
promise (blame, the space bound, Natural observables).  Historically
that choice was a two-value string (``"coercion"``/``"threesome"``)
duplicated across per-module dispatch dicts; this package replaces all of
them with one registry keyed by semantics name:

``coercion``
    Natural enforcement via canonical space-efficient coercions merged with
    ``#`` — the paper's λS, and the certified default.
``threesome``
    Natural enforcement via threesomes ``⟨T ⇐P= S⟩`` merged with ``∘``
    (§6.1): observationally equal to ``coercion``, different representation.
``transient``
    Shallow ground-tag checks at use sites (:mod:`.transient`): space bound
    trivially preserved, blame may diverge from Natural by design.
``erasure``
    No enforcement at all (:mod:`.erasure`): never blames, all mediation
    elided at ``-O1``+ — the speed ceiling.

Consumers resolve through :func:`resolve` (or :func:`policy_for`); the
capability flags (``blames``, ``space_bounded``, ``natural``) drive the
oracle's expectations and the benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.errors import UsageError
from ..machine import MACHINE_S
from ..machine.cek import CEKMachine
from ..machine.policy import SPACE_POLICY, THREESOME_POLICY, MediationPolicy
from ..threesomes.runtime import threesome_of_coercion
from .erasure import ERASED, ERASURE_POLICY, ErasedMediator, ErasurePolicy
from .transient import (
    TRANSIENT_POLICY,
    TransientCheck,
    TransientPolicy,
    compose_transient,
    transient_of_coercion,
)


@dataclass(frozen=True)
class EnforcementSemantics:
    """One entry of the registry: everything the pipeline needs per backend.

    ``policy`` is the shared :class:`MediationPolicy` instance the machines,
    VMs, and optimizer all execute with (so ``is_identity``/``compose``
    agree by construction); ``machine`` is the CEK machine running it.
    ``pre_intern`` maps an *interned* canonical λS coercion to the node this
    backend pools (:meth:`ConstantPool.with_mediators` calls it once per
    coercion of a lowered program's pool, when the program is compiled for
    this backend).  ``name`` is also what ``.gradb`` headers record and what
    salts the compile-cache key.

    Capability flags: ``blames`` — can a run ever end in blame;
    ``space_bounded`` — does the backend preserve the constant
    pending-mediator footprint (``max_pending_mediators ≤ 1`` on boundary
    tail loops); ``natural`` — full Natural (λS) enforcement, observationally
    interchangeable with the paper's semantics.
    """

    name: str
    policy: MediationPolicy
    machine: CEKMachine
    pre_intern: Callable[[object], object]
    blames: bool
    space_bounded: bool
    natural: bool


def _pool_coercion(s: object) -> object:
    return s  # lowering pools interned canonical coercions already


def _pool_erased(s: object) -> object:
    return ERASED


#: The registry, in presentation order (CLI choices, benchmark sweeps, and
#: the README matrix all follow it).
SEMANTICS: dict[str, EnforcementSemantics] = {
    sem.name: sem
    for sem in (
        EnforcementSemantics(
            name="coercion",
            policy=SPACE_POLICY,
            machine=MACHINE_S,
            pre_intern=_pool_coercion,
            blames=True,
            space_bounded=True,
            natural=True,
        ),
        EnforcementSemantics(
            name="threesome",
            policy=THREESOME_POLICY,
            machine=CEKMachine(THREESOME_POLICY),
            pre_intern=threesome_of_coercion,
            blames=True,
            space_bounded=True,
            natural=True,
        ),
        EnforcementSemantics(
            name="transient",
            policy=TRANSIENT_POLICY,
            machine=CEKMachine(TRANSIENT_POLICY),
            pre_intern=transient_of_coercion,
            blames=True,
            space_bounded=True,
            natural=False,
        ),
        EnforcementSemantics(
            name="erasure",
            policy=ERASURE_POLICY,
            machine=CEKMachine(ERASURE_POLICY),
            pre_intern=_pool_erased,
            blames=False,
            space_bounded=True,
            natural=False,
        ),
    )
}

#: All semantics names, in registry order.
SEMANTICS_NAMES: tuple[str, ...] = tuple(SEMANTICS)

#: The Natural (λS-observable) subset: coercions and threesomes.
NATURAL_SEMANTICS_NAMES: tuple[str, ...] = tuple(
    name for name, sem in SEMANTICS.items() if sem.natural
)


def resolve(name: str) -> EnforcementSemantics:
    """The registry entry for ``name``, or a :class:`UsageError` listing them."""
    sem = SEMANTICS.get(name)
    if sem is None:
        raise UsageError(
            f"unknown semantics {name!r}; expected one of {SEMANTICS_NAMES}"
        )
    return sem


def policy_for(name: str) -> MediationPolicy:
    """The mediation policy executing semantics ``name`` (via :func:`resolve`)."""
    return resolve(name).policy


__all__ = [
    "ERASED",
    "ERASURE_POLICY",
    "EnforcementSemantics",
    "ErasedMediator",
    "ErasurePolicy",
    "NATURAL_SEMANTICS_NAMES",
    "SEMANTICS",
    "SEMANTICS_NAMES",
    "TRANSIENT_POLICY",
    "TransientCheck",
    "TransientPolicy",
    "compose_transient",
    "policy_for",
    "resolve",
    "transient_of_coercion",
]
