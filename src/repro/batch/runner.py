"""The batch runner: corpus discovery and fault-tolerant parallel execution.

Each program of the corpus becomes one pool job, the job serve and the
experiment send too (:func:`repro.serve.pool.handle_job`): the
coordinating process reads the source, and whoever runs the job compiles
it through the compile cache (not at all when the cache is warm) and runs
it.  That is a worker of the fault-tolerant
:class:`~repro.serve.pool.WorkerPool`, or with ``workers=1`` the
coordinating process itself (no pool, no pickling), which is also the
deterministic-ordering mode the tests use; either way a program gets the
same record.  A program that fails comes back as an ``"error"`` record
whose ``reason`` says how (:func:`repro.api.error_record`): ``"static"``
for parse and type errors (timed to the error), ``"runtime"`` for a run
that went wrong (with both timings), ``"defect"`` for a fault of this
library.  A file that cannot
be read never becomes a job: its ``"error"`` record has no ``reason``.

A worker that dies mid-job (SIGKILL, OOM) is detected and replaced: the
job is retried on a fresh worker, and past the retry budget it is reported
as an ``"error"`` result with ``"reason": "worker-lost"`` — the record is
never silently dropped and the run never hangs (both of which a bare
``multiprocessing.Pool`` does).

Results are JSON-ready dicts, streamed through an ``on_result`` callback as
they complete and aggregated by :func:`aggregate_results`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: Manifest suffixes: a text file listing one program path per line
#: (relative paths resolve against the manifest's directory; blank lines and
#: ``#`` comments are skipped).
MANIFEST_SUFFIXES = (".txt", ".list", ".manifest")

#: Surface-program suffix discovered when a directory is given.
PROGRAM_SUFFIX = ".grad"


def discover_programs(paths: Sequence[str | Path]) -> list[Path]:
    """Expand directories, manifests, and files into the corpus to run.

    Directories contribute their ``*.grad`` files (sorted, recursively);
    manifests contribute the paths they list; anything else is taken as a
    program file itself.  Order is deterministic: inputs in argument order,
    directory contents sorted.  Duplicates (same resolved path) are kept
    once, first occurrence wins.
    """
    corpus: list[Path] = []
    seen: set[Path] = set()

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            corpus.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for program in sorted(path.rglob(f"*{PROGRAM_SUFFIX}")):
                add(program)
        elif path.suffix in MANIFEST_SUFFIXES:
            try:
                lines = path.read_text().splitlines()
            except OSError as exc:
                raise FileNotFoundError(str(path)) from exc
            for line in lines:
                entry = line.strip()
                if entry and not entry.startswith("#"):
                    add(path.parent / entry)
        else:
            add(path)
    return corpus


def run_batch(
    paths: Sequence[str | Path],
    config=None,
    *,
    workers: int = 1,
    on_result: Callable[[dict], None] | None = None,
    metrics=None,
    trace_sink=None,
    faults: str | None = None,
) -> tuple[list[dict], dict]:
    """Compile and run a corpus, each program once, across a worker pool.

    ``config`` (a :class:`~repro.api.RunConfig`; default: the vm engine
    through the compile cache) selects the run knobs and is resolved through
    :func:`repro.api.resolve_config` — the same validation path as every
    other entrypoint.  Its ``semantics`` names the enforcement semantics
    (any entry of the :data:`~repro.semantics.SEMANTICS` registry).

    Returns ``(results, aggregate)``: one dict per program, with the fields
    of :func:`repro.serve.pool.handle_job`'s results, and the aggregated
    shard statistics.  ``on_result`` is invoked with each result as it
    completes — with ``workers > 1`` completion order is nondeterministic,
    so every result repeats its program name.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) aggregates
    the shard results in the coordinating process — outcome and cache
    counters plus ``batch.{compile_s,run_s}`` histograms (fixed buckets, so
    shard timings fold in by plain addition regardless of which worker
    produced them) — and its snapshot is embedded in the aggregate
    (``aggregate["metrics"]``), never as an extra stream line.
    ``trace_sink`` traces every program's run into one sink; tracing forces
    inline execution (the tracer is process-global state a pool cannot
    share), with each run's ``run_start`` carrying the program name.

    ``faults`` is a fault-injection spec for the worker pool (see
    :mod:`repro.core.faults`; default: the ``REPRO_GRADUAL_FAULTS``
    environment variable) — the chaos tests use it to SIGKILL workers
    mid-corpus and assert every program still gets a terminal record.
    """
    from ..api import RunConfig, resolve_config
    from ..serve.pool import WorkerMemo, handle_job, pool_job

    config = resolve_config(config if config is not None
                            else RunConfig(engine="vm", cache=True))
    pool_job(config)  # an engine the workers cannot run fails here, before any work
    wall_start = time.perf_counter()
    results: list[dict] = []
    jobs: list[dict] = []

    def finish(result: dict) -> None:
        if metrics is not None:
            metrics.counter(f"batch.outcome.{result.get('kind', 'error')}").inc()
            status = result.get("cache")
            if status is not None:
                metrics.counter(f"batch.cache.{status}").inc()
            for key in ("compile_s", "run_s"):
                if key in result:
                    metrics.histogram(f"batch.{key}").observe(result[key])
        results.append(result)
        if on_result is not None:
            on_result(result)

    for path in discover_programs(paths):
        try:
            source = path.read_text()
        except OSError as exc:
            finish({"program": str(path), "kind": "error", "error": f"unreadable: {exc}"})
            continue
        jobs.append(pool_job(config, source, program=str(path)))

    memo = WorkerMemo()

    def run_inline(job: dict) -> None:
        finish({**handle_job(job, memo), "program": job["program"]})

    if trace_sink is not None:
        from ..obs.trace import Tracer, activate, deactivate

        tracer = Tracer(trace_sink)
        activate(tracer)
        try:
            for job in jobs:
                tracer.program = job["program"]
                run_inline(job)
        finally:
            deactivate()
            trace_sink.close()
    elif workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            run_inline(job)
    else:
        from concurrent.futures import ThreadPoolExecutor, as_completed

        from ..serve.pool import WorkerPool

        size = min(workers, len(jobs))
        with WorkerPool(size, faults=faults) as pool, ThreadPoolExecutor(size) as dispatch:
            futures = [dispatch.submit(pool.execute, job) for job in jobs]
            for future in as_completed(futures):
                finish(future.result())

    aggregate = aggregate_results(results)
    aggregate["workers"] = 1 if trace_sink is not None else workers
    aggregate["wall_s"] = time.perf_counter() - wall_start
    if metrics is not None:
        aggregate["metrics"] = metrics.snapshot()
    return results, aggregate


def aggregate_results(results: Iterable[dict]) -> dict:
    """Shard statistics over per-program results (JSON-ready)."""
    results = list(results)
    kinds = {"value": 0, "blame": 0, "timeout": 0, "error": 0}
    cache = {"warm": 0, "hit": 0, "miss": 0, "recovered": 0, "off": 0}
    aggregate = {
        "programs": len(results),
        "steps_total": 0,
        "max_pending_mediators": 0,
        "compile_s_total": 0.0,
        "run_s_total": 0.0,
    }
    for result in results:
        kind = result.get("kind", "error")
        kinds[kind] = kinds.get(kind, 0) + 1
        status = result.get("cache")
        if status in cache:
            cache[status] += 1
        aggregate["steps_total"] += result.get("steps", 0)
        aggregate["max_pending_mediators"] = max(
            aggregate["max_pending_mediators"], result.get("max_pending_mediators", 0)
        )
        aggregate["compile_s_total"] += result.get("compile_s", 0.0)
        aggregate["run_s_total"] += result.get("run_s", 0.0)
    aggregate["outcomes"] = kinds
    aggregate["cache"] = cache
    return aggregate
