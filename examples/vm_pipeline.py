"""The compiler pipeline, end to end: surface → λB → bytecode (each cast
lowered through |·|BS) → optimizer → VM.

Compiles the boundary-crossing tail loop, prints its disassembly at ``-O0``
(watch for ``COMPOSE`` + ``TAILCALL`` — the two-opcode space-efficiency
story) and at the default ``-O2`` (the ``COMPOSE`` chain pre-composes away;
the stream is ``-O1``'s, which the VM runs with inline mediator caches),
then runs it on both the VM and its oracle, the CEK machine, comparing
values and space statistics.

Run with ``python examples/vm_pipeline.py``.
"""

from __future__ import annotations

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import all_code_objects, compile_term, disassemble, run_code  # noqa: E402
from repro.gen.programs import tail_countdown_boundary  # noqa: E402
from repro.machine import run_on_machine  # noqa: E402

N = 500


def main() -> None:
    term = tail_countdown_boundary(N)

    code_o0 = compile_term(term, opt_level=0)
    print(f"=== bytecode for tail_countdown_boundary({N}) at -O0 ===")
    print(disassemble(code_o0))

    code = compile_term(term)  # the default -O2
    print("=== the same program at -O2 (elision + pre-composition) ===")
    print(disassemble(code))
    o0_instrs = sum(len(obj.instructions) for obj in all_code_objects(code_o0))
    o2_instrs = sum(len(obj.instructions) for obj in all_code_objects(code))
    print(f"static stream: {o0_instrs} instructions at -O0, {o2_instrs} at -O2\n")

    vm_outcome = run_code(code)
    machine_outcome = run_on_machine(term, "S")

    print("=== VM vs the CEK oracle ===")
    print(f"vm      : {vm_outcome.python_value()!r}  stats={vm_outcome.stats}")
    print(f"machine : {machine_outcome.python_value()!r}  stats={machine_outcome.stats}")
    assert vm_outcome.python_value() == machine_outcome.python_value()

    pending = vm_outcome.stats["max_pending_mediators"]
    pending_o0 = run_code(code_o0).stats["max_pending_mediators"]
    print(
        f"\nThe VM crossed the boundary {N} times yet held at most {pending_o0} pending "
        "coercion(s) at -O0:\nevery tail-position result coercion was COMPOSEd into the "
        "live frame's slot with #,\nnever stacked — λS's space guarantee, preserved "
        f"through compilation.  At -O2 this\nloop's whole chain pre-composes at compile "
        f"time (max pending: {pending}) — the same\nmerges, moved out of the hot loop."
    )


if __name__ == "__main__":
    main()
