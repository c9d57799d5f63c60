"""Batch execution: run a corpus of gradual programs in parallel.

The runner (:mod:`repro.batch.runner`) is the fleet-scale counterpart of
``repro-gradual run``: it discovers a corpus (directories, manifest files,
or individual programs) and sends each program's source to a
fault-tolerant worker pool as the same job serve and the experiment send.
A worker compiles each program through the content-addressed compile
cache — so a warm corpus costs no front-end work at all — and every image
it loads from the cache is validated.

Results stream back as they complete, one JSON-compatible dict per program
(outcome kind, value or blame label, steps, ``max_pending_mediators``,
compile/run timings, cache status), followed by aggregated shard
statistics.  ``repro-gradual batch`` renders them as JSON-lines.
"""

from .runner import (
    aggregate_results,
    discover_programs,
    run_batch,
)

__all__ = [
    "aggregate_results",
    "discover_programs",
    "run_batch",
]
