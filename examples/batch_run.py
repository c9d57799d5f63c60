"""Compile-once/run-many, end to end: ``.gradb`` images, the compile cache,
and the parallel batch runner.

Walks the whole serving story on the shipped example corpus:

1. compile a program and serialize it to a versioned ``.gradb`` image, then
   reload it and check the round trip is exact (byte-identical disassembly,
   identical outcome and space profile);
2. run the corpus twice through the content-addressed compile cache and
   show the warm start skipping the entire front end;
3. hand the corpus to the batch runner, which compiles once and executes
   across a worker pool, streaming one result dict per program plus
   aggregate shard statistics.

Run with ``python examples/batch_run.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RunConfig, run  # noqa: E402
from repro.batch import run_batch  # noqa: E402
from repro.compiler import (  # noqa: E402
    compile_term,
    disassemble,
    load_image,
    run_code,
    save_image,
    source_fingerprint,
)
from repro.surface.interp import compile_source  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "programs"


def main() -> None:
    # 1. One program through the image format, explicitly.
    program = CORPUS / "stats_pipeline.grad"
    source = program.read_text()
    term, ty = compile_source(source)
    code = compile_term(term)  # the default -O2, coercion backend

    with tempfile.TemporaryDirectory() as tmp:
        image_path = Path(tmp) / "stats_pipeline.gradb"
        save_image(code, image_path, source_hash=source_fingerprint(source), static_type=ty)
        image = load_image(image_path)
        print(f"=== {program.name} -> {image_path.name} "
              f"({image_path.stat().st_size} bytes) ===")
        print(f"provenance: semantics={image.info.semantics} "
              f"opt-level={image.info.opt_level} type={image.info.static_type}")
        assert disassemble(image.code) == disassemble(code), "round trip must be exact"
        fresh, loaded = run_code(code), run_code(image.code)
        assert fresh.python_value() == loaded.python_value()
        assert fresh.stats == loaded.stats
        print(f"loaded image runs identically: {loaded.python_value()!r} "
              f"in {loaded.stats['steps']} instructions\n")

        # 2. The compile cache: cold run compiles and stores, warm run
        # deserializes — no parsing, no type checking, no optimizer.
        cache_dir = str(Path(tmp) / "cache")
        corpus = sorted(CORPUS.glob("*.grad"))
        started = time.perf_counter()
        for path in corpus:
            run(path.read_text(), engine="vm", cache=True, cache_dir=cache_dir)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        for path in corpus:
            run(path.read_text(), engine="vm", cache=True, cache_dir=cache_dir)
        warm = time.perf_counter() - started
        print(f"=== compile cache over {len(corpus)} programs ===")
        print(f"cold {cold * 1e3:6.2f} ms   warm {warm * 1e3:6.2f} ms   "
              f"({cold / warm:.1f}x faster warm)\n")

        # 3. The batch runner: compile once, execute across workers, stream
        # results.
        print("=== repro-gradual batch (2 workers) ===")
        results, aggregate = run_batch(
            [CORPUS], RunConfig(engine="vm", cache=True, cache_dir=cache_dir), workers=2,
            on_result=lambda result: print(
                f"  {Path(result['program']).name:22s} {result['kind']:7s} "
                f"steps={result.get('steps', 0):5d} "
                f"pending<={result.get('max_pending_mediators', 0)} "
                f"cache={result.get('cache', '-')}"
            ),
        )
        outcomes = aggregate["outcomes"]
        print(f"aggregate: {aggregate['programs']} programs "
              f"({outcomes['value']} values, {outcomes['blame']} blame, "
              f"{outcomes['timeout']} timeouts, {outcomes['error']} errors), "
              f"{aggregate['steps_total']} VM instructions, "
              f"wall {aggregate['wall_s'] * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
