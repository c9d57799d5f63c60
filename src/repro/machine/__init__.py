"""CEK-style abstract machines with space profiling.

* :data:`MACHINE_B` — interprets λB terms (casts, no merging of pending casts);
* :data:`MACHINE_C` — interprets λC terms (coercions, no merging);
* :data:`MACHINE_S` — interprets λS terms (canonical coercions, pending
  coercions merged with ``#`` — the space-efficient implementation).

``run_on_machine(term, "S")`` translates a λB term as needed and runs it on
the requested machine, returning the outcome together with the space
statistics of the run.
"""

from __future__ import annotations

from ..core.errors import UsageError
from ..core.terms import Term
from ..translate import b_to_c, c_to_s
from .cek import DEFAULT_MACHINE_FUEL, CEKMachine, MachineOutcome
from .policy import (
    BLAME_POLICY,
    COERCION_POLICY,
    SPACE_POLICY,
    THREESOME_POLICY,
    BlamePolicy,
    CastMediator,
    CoercionPolicy,
    MediationPolicy,
    SpacePolicy,
    ThreesomePolicy,
)
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

MACHINE_B = CEKMachine(BLAME_POLICY)
MACHINE_C = CEKMachine(COERCION_POLICY)
MACHINE_S = CEKMachine(SPACE_POLICY)

MACHINES = {"B": MACHINE_B, "C": MACHINE_C, "S": MACHINE_S}


def run_on_machine(
    term_b: Term,
    calculus: str = "S",
    fuel: int = DEFAULT_MACHINE_FUEL,
    semantics: str = "coercion",
) -> MachineOutcome:
    """Run a λB term on the machine of the chosen calculus.

    The term is translated with ``|·|BC`` (and ``|·|CS``) as required; pass
    ``"B"`` to run the casts directly.  ``semantics`` names the enforcement
    semantics of the λS machine — any entry of the
    :data:`~repro.semantics.SEMANTICS` registry (``"coercion"`` the Natural
    default, ``"threesome"``, ``"transient"``, ``"erasure"``); λB and λC
    only have their native cast/coercion form.
    """
    from ..semantics import resolve

    calculus = calculus.upper()
    entry = resolve(semantics)
    if semantics != "coercion" and calculus != "S":
        raise UsageError(
            f"the {semantics!r} enforcement semantics implements λS only "
            f"(requested calculus {calculus!r})"
        )
    if calculus == "B":
        return MACHINE_B.run(term_b, fuel)
    term_c = b_to_c(term_b)
    if calculus == "C":
        return MACHINE_C.run(term_c, fuel)
    if calculus == "S":
        return entry.machine.run(c_to_s(term_c), fuel)
    raise ValueError(f"unknown calculus {calculus!r}; expected 'B', 'C', or 'S'")


__all__ = [
    "DEFAULT_MACHINE_FUEL",
    "CEKMachine",
    "MachineOutcome",
    "MachineStats",
    "BlamePolicy",
    "CoercionPolicy",
    "SpacePolicy",
    "ThreesomePolicy",
    "MediationPolicy",
    "CastMediator",
    "BLAME_POLICY",
    "COERCION_POLICY",
    "SPACE_POLICY",
    "THREESOME_POLICY",
    "MACHINE_B",
    "MACHINE_C",
    "MACHINE_S",
    "MACHINES",
    "run_on_machine",
    "Environment",
    "MachineValue",
    "MClosure",
    "MConst",
    "MFixWrap",
    "MPair",
    "MProxy",
    "machine_value_to_python",
]
