"""The single source of truth for default fuel budgets.

Every engine bounds its run with *fuel* measured in its own step unit —
VM instructions, CEK machine transitions, small-step reductions — and each
used to declare its default budget in its own module.  That invited drift:
a CLI default, an engine default, and an oracle default disagreeing means
the same program "times out" after different amounts of work depending on
which entry point ran it.  All defaults now live here and are imported
everywhere (``repro.compiler.vm``, ``repro.machine.cek``,
``repro.api``, the reducers), so changing a budget is a one-line
edit with one observable meaning.

The budgets are deliberately different numbers: a VM instruction is much
cheaper than a machine transition, which is much cheaper than a substitution
step, so equal wall-clock patience corresponds to very different step
counts per engine.
"""

from __future__ import annotations

#: Bytecode-VM fuel, in VM instructions (the cheapest step unit).
DEFAULT_VM_FUEL = 20_000_000

#: Register-VM fuel, in register instructions.  One register instruction
#: does the work of roughly two stack instructions (operands ride in the
#: instruction; fused pairs are one dispatch), so the same budget buys the
#: rvm engine *more* program than the stack VM — deliberately: fuel bounds
#: patience, not work, and the two engines' timeouts should agree on the
#: programs the oracles compare.
DEFAULT_RVM_FUEL = 20_000_000

#: CEK-machine fuel, in machine transitions.
DEFAULT_MACHINE_FUEL = 5_000_000

#: Substitution-engine fuel used by the interp/CLI front end, in reduction
#: steps (the most expensive step unit — each step rebuilds terms).
DEFAULT_SUBST_FUEL = 200_000

#: Default fuel of the reducers' own ``run``/``trace`` entry points, used by
#: the property checkers that drive the reducers directly.
DEFAULT_REDUCTION_FUEL = 100_000
