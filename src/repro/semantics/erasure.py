"""Erasure enforcement: all mediation compiled away — the speed ceiling.

Under Erasure the program runs as if every cast had been deleted: no checks,
no wrappers, no blame, ever.  Each ``Coerce`` node maps to the single no-op
token :data:`ERASED`, whose application is the identity and whose size is
zero; composition of two erased mediators is erased again.  Because the
policy reports *every* mediator as an identity, the ``-O1`` elision pass
removes every ``COERCE``/``COMPOSE`` instruction from erasure bytecode —
what remains is the raw computation, which is exactly the speed ceiling the
benchmarks compare the enforcing backends against.

On blame-free programs Erasure agrees with Natural on values (enforced by
``check_oracle_matrix`` and a hypothesis property); on programs Natural
blames, Erasure either produces a value or diverges — it can never exit
with blame.
"""

from __future__ import annotations

from ..core.terms import Coerce, Term
from ..lambda_s import coercions as co_s
from ..machine.policy import ACT_IDENTITY, MediationPolicy
from ..machine.values import MachineValue


class ErasedMediator:
    """The unique run-time mediator of the erasure backend (a no-op token)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "⟪erased⟫"


#: The one interned erasure mediator; every pool holds at most this entry.
ERASED = ErasedMediator()


class ErasurePolicy(MediationPolicy):
    """The λS machine/VM with enforcement erased (never blames)."""

    name = "S"
    mediator = "erasure"
    merges_pending_mediators = True

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Coerce) and isinstance(term.coercion, co_s.SpaceCoercion)

    def term_mediator(self, term: Term) -> ErasedMediator:
        assert isinstance(term, Coerce)
        return ERASED

    def is_fun_proxy(self, m: ErasedMediator) -> bool:
        return False

    def is_prod_proxy(self, m: ErasedMediator) -> bool:
        return False

    def fun_parts(self, m: ErasedMediator) -> tuple:
        raise AssertionError("erased mediators never form function proxies")

    def prod_parts(self, m: ErasedMediator) -> tuple:
        raise AssertionError("erased mediators never form pair proxies")

    def apply(self, value: MachineValue, m: ErasedMediator) -> MachineValue:
        return value

    def compose(self, first: ErasedMediator, second: ErasedMediator) -> ErasedMediator:
        return ERASED

    def size(self, m: ErasedMediator) -> int:
        return 0

    def is_identity(self, m: ErasedMediator) -> bool:
        return True

    def classify(self, m: ErasedMediator) -> int:
        return ACT_IDENTITY


ERASURE_POLICY = ErasurePolicy()
