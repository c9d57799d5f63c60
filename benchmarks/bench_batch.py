"""Experiment: compile-once/run-many — the ``.gradb`` compile cache and the
batch runner.

The serialization PR's claim: a ``run`` that hits the content-addressed
compile cache deserializes a ``.gradb`` image instead of re-running the
whole parse → type check → elaborate → translate → lower → optimize
pipeline, and that warm start is ≥ :data:`WARM_SPEEDUP_TARGET`× faster
end-to-end over the shipped example corpus.  This suite quantifies it:

* **cold vs warm** — per program and for the whole corpus, the end-to-end
  ``repro.api.run`` time against an empty cache (compile + store + run) and
  against a primed one (load + run).  The corpus-level ratio is the
  acceptance bar; per-program ratios show where the win lives (the
  compile-bound library programs) and where it cannot (``tail_loop`` is
  execution-bound, so caching its compilation moves little).
* **image load** — deserialize time per program, the warm path's overhead
  over a bare ``run_code``.
* **batch runner** — wall time for the corpus under ``run_batch`` with a
  cold cache, a warm cache, and 1 vs N workers (each worker compiles its
  programs through the compile cache, so a warm corpus is a cache load
  per program; on a single-core runner the extra workers buy nothing and
  the artifact records that honestly).

Standalone usage (writes the ``BENCH_batch.json`` artifact, then exits 1 if
the corpus bar is missed; ``speedup/corpus`` records ``meets_target``)::

    python benchmarks/bench_batch.py --json
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import harness

from repro.api import RunConfig, run
from repro.batch import run_batch
from repro.compiler import compile_term, deserialize_image, serialize_image
from repro.surface.interp import compile_source

#: The shipped example corpus (every surface program in examples/programs).
CORPUS_DIR = Path(__file__).resolve().parent.parent / "examples" / "programs"

#: Corpus-wide warm-vs-cold end-to-end bar (the PR's acceptance criterion).
WARM_SPEEDUP_TARGET = 5.0


def corpus_programs() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.grad"))


class _CacheDirs:
    """Fresh-per-call and persistent cache directories under one tmp root."""

    def __init__(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="bench-batch-"))
        self._counter = 0

    def fresh(self) -> str:
        self._counter += 1
        path = self.root / f"cold-{self._counter}"
        shutil.rmtree(path, ignore_errors=True)
        return str(path)

    def warm(self) -> str:
        return str(self.root / "warm")

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def build_suite(repeat: int) -> harness.Suite:
    suite = harness.Suite("batch", repeat)
    dirs = _CacheDirs()
    try:
        programs = corpus_programs()
        sources = {p.name: p.read_text() for p in programs}

        # Prime the warm cache (and sanity-check every outcome once).
        for name, source in sources.items():
            run(source, engine="vm", cache=True, cache_dir=dirs.warm())

        # Per-program image load time: the warm path's only real work
        # besides executing.
        for name, source in sources.items():
            term, ty = compile_source(source)
            data = serialize_image(compile_term(term), static_type=ty)
            suite.measure(
                f"load/{name}",
                lambda data=data: deserialize_image(data),
                program=name, image_bytes=len(data), stage="load",
            )

        # Cold vs warm end-to-end, per program.
        speedups = {}
        for name, source in sources.items():
            cold = suite.measure(
                f"cold/{name}",
                lambda source=source: run(
                    source, engine="vm", cache=True, cache_dir=dirs.fresh()
                ),
                program=name, cache="cold",
            )
            warm = suite.measure(
                f"warm/{name}",
                lambda source=source: run(
                    source, engine="vm", cache=True, cache_dir=dirs.warm()
                ),
                program=name, cache="warm",
            )
            speedups[name] = cold.best_s / warm.best_s
            suite.record(
                f"speedup/{name}",
                warm_vs_cold=round(speedups[name], 2),
                program=name,
            )

        # Cold vs warm end-to-end, whole corpus — the acceptance bar.
        def run_corpus(cache_dir: str) -> None:
            for source in sources.values():
                run(source, engine="vm", cache=True, cache_dir=cache_dir)

        corpus_cold = suite.measure(
            "corpus/cold", lambda: run_corpus(dirs.fresh()), cache="cold",
            programs=len(sources),
        )
        corpus_warm = suite.measure(
            "corpus/warm", lambda: run_corpus(dirs.warm()), cache="warm",
            programs=len(sources),
        )
        corpus_speedup = corpus_cold.best_s / corpus_warm.best_s
        suite.record(
            "speedup/corpus",
            warm_vs_cold=round(corpus_speedup, 2),
            target=WARM_SPEEDUP_TARGET,
            meets_target=corpus_speedup >= WARM_SPEEDUP_TARGET,
        )

        # The batch runner: cold cache, warm cache, 1 vs N workers.
        def corpus_config(cache_dir: str) -> RunConfig:
            return RunConfig(engine="vm", semantics="coercion", opt_level=2,
                             cache=True, cache_dir=cache_dir)

        suite.measure(
            "runner/cold-cache",
            lambda: run_batch([CORPUS_DIR], corpus_config(dirs.fresh()), workers=1),
            workers=1, cache="cold",
        )
        suite.measure(
            "runner/warm-1-worker",
            lambda: run_batch([CORPUS_DIR], corpus_config(dirs.warm()), workers=1),
            workers=1, cache="warm",
        )
        import multiprocessing

        n_workers = min(4, max(2, multiprocessing.cpu_count()))
        suite.measure(
            f"runner/warm-{n_workers}-workers",
            lambda: run_batch([CORPUS_DIR], corpus_config(dirs.warm()),
                              workers=n_workers),
            workers=n_workers, cache="warm", cpus=multiprocessing.cpu_count(),
        )
    finally:
        dirs.cleanup()
    return suite


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/bench_batch.py)
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="batch-warm-start")
@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_corpus_warm_start(benchmark, cache, tmp_path):
    programs = corpus_programs()
    sources = [p.read_text() for p in programs]
    warm_dir = str(tmp_path / "warm")
    counter = [0]

    def run_all():
        if cache == "cold":
            counter[0] += 1
            cache_dir = str(tmp_path / f"cold{counter[0]}")
        else:
            cache_dir = warm_dir
        for source in sources:
            run(source, engine="vm", cache=True, cache_dir=cache_dir)

    run_all()  # prime (and, for cold, absorb first-use costs)
    benchmark(run_all)
    benchmark.extra_info["cache"] = cache
    benchmark.extra_info["programs"] = len(sources)


def corpus_verdict(suite: harness.Suite) -> str | None:
    """Why the corpus misses the warm-vs-cold bar, or ``None`` if it meets it."""
    row = next(m for m in suite.measurements if m.name == "speedup/corpus")
    if row.meta["meets_target"]:
        return None
    return (f"warm-vs-cold corpus speedup {row.meta['warm_vs_cold']}x is below "
            f"the {WARM_SPEEDUP_TARGET}x bar")


if __name__ == "__main__":
    sys.exit(harness.main("batch", build_suite, verdict=corpus_verdict))
