"""The batch runner: corpus discovery, compile-once, parallel execution.

The pipeline has two phases with different parallelism profiles:

1. **Compile** (in the coordinating process, through the compile cache):
   every program is parsed, elaborated, lowered, and optimized at most once
   — and not at all when the cache is warm — yielding one serialized
   ``.gradb`` image per program.  Front-end errors (unreadable files, parse
   errors, type errors) are captured as per-program ``"error"`` results
   here; they never reach a worker.

2. **Execute** (across the fault-tolerant :class:`~repro.serve.pool.WorkerPool`):
   each worker receives the program name, the image bytes, and the fuel,
   deserializes the image — re-interning its pool into the worker's own
   canonical nodes — and runs it on the VM.  A worker that dies mid-job
   (SIGKILL, OOM) is detected and replaced: the job is retried on a fresh
   worker, and past the retry budget it is reported as an ``"error"``
   result with ``"reason": "worker-lost"`` — the record is never silently
   dropped and the run never hangs (both of which a bare
   ``multiprocessing.Pool`` does).  With ``workers=1`` everything runs
   inline in the coordinating process (no pool, no pickling), which is
   also the deterministic-ordering mode the tests use.

Results are JSON-ready dicts, streamed through an ``on_result`` callback as
they complete and aggregated by :func:`aggregate_results`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.errors import ReproError

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


def _compile_one(path: Path, config) -> tuple[bytes | None, dict]:
    """Phase 1 for one program: image bytes to ship, plus partial result.

    ``config`` is the resolved :class:`~repro.api.RunConfig` of the batch —
    its ``semantics``, ``opt_level``, ``ir``, ``cache``, and ``cache_dir``
    drive the compile exactly as they would a single :func:`repro.api.run`.
    """
    from ..compiler.cache import cached_compile_source, compile_image
    from ..compiler.serialize import serialize_image, source_fingerprint
    from ..surface.interp import compile_source

    name = str(path)
    started = time.perf_counter()
    try:
        source = path.read_text()
    except OSError as exc:
        return None, {"program": name, "kind": "error", "error": f"unreadable: {exc}"}
    source_hash = source_fingerprint(source)
    try:
        if config.cache:
            found = cached_compile_source(source_hash, lambda: compile_source(source),
                                          config.semantics, config.opt_level,
                                          config.cache_dir, config.ir)
            image, status = found.image, found.status
            try:
                # The exact bytes to ship are already on disk.
                data = found.path.read_bytes()
            except OSError:  # a failed cache write, or a concurrent eviction
                data = None
        else:
            term, ty = compile_source(source)
            image = compile_image(term, source_hash, ty, config.semantics,
                                  config.opt_level, config.ir)
            status, data = "off", None
        if data is None:
            data = serialize_image(image.code, source_hash, image.info.static_type,
                                   config.ir, rcode=image.rcode)
        return data, {
            "program": name,
            "cache": status,
            "compile_s": time.perf_counter() - started,
        }
    except ReproError as exc:
        return None, {"program": name, "kind": "error", "error": str(exc)}


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
    """Compile a corpus once and execute it across a worker pool.

    ``config`` (a :class:`~repro.api.RunConfig`; default: the vm engine
    through the compile cache) selects the run knobs and is resolved through
    :func:`repro.api.resolve_config` — the same validation path as every
    other entrypoint.  Its ``semantics`` names the enforcement semantics
    (any entry of the :data:`~repro.semantics.SEMANTICS` registry).

    Returns ``(results, aggregate)``: one dict per program (the execution
    fields are those of :func:`repro.serve.pool.handle_job`'s ``run_image``
    results; front-end failures carry ``kind="error"``) and the aggregated
    shard statistics.  ``on_result`` is invoked with each result as it
    completes — with ``workers > 1`` completion order is nondeterministic,
    so every result repeats its program name.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) aggregates
    the shard results in the coordinating process — outcome and cache
    counters plus ``batch.{compile_s,load_s,run_s}`` histograms (fixed
    buckets, so shard timings fold in by plain addition regardless of which
    worker produced them) — and its snapshot is embedded in the aggregate
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
    from ..serve.pool import handle_job

    config = resolve_config(config if config is not None
                            else RunConfig(engine="vm", cache=True))
    wall_start = time.perf_counter()
    corpus = discover_programs(paths)

    results: list[dict] = []
    jobs: list[dict] = []
    compile_meta: dict[str, dict] = {}

    def note(result: dict) -> None:
        if metrics is None:
            return
        metrics.counter(f"batch.outcome.{result.get('kind', 'error')}").inc()
        status = result.get("cache")
        if status is not None:
            metrics.counter(f"batch.cache.{status}").inc()
        for key in ("compile_s", "load_s", "run_s"):
            if key in result:
                metrics.histogram(f"batch.{key}").observe(result[key])

    for path in corpus:
        data, meta = _compile_one(path, config)
        if data is None:
            note(meta)
            results.append(meta)
            if on_result is not None:
                on_result(meta)
        else:
            compile_meta[meta["program"]] = meta
            jobs.append({"op": "run_image", "program": meta["program"], "image": data,
                         "fuel": config.fuel})

    def finish(result: dict) -> None:
        result = {**compile_meta[result["program"]], **result}
        note(result)
        results.append(result)
        if on_result is not None:
            on_result(result)

    def run_inline(job: dict) -> None:
        finish({**handle_job(job, {}), "program": job["program"]})

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
    cache = {"hit": 0, "miss": 0, "recovered": 0, "off": 0}
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
