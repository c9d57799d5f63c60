"""The rational programmer: follow blame across the migration lattice.

One *trail* simulates a programmer debugging a planted fault from a given
lattice configuration: run the program; if it ends in blame, type the
binding the blame label names (or, when that binding is already typed, the
nearest untyped binding in the reference graph); if it crashes without
blame — the erasure baseline, or a transient check with no useful label —
type a seeded-random untyped binding; repeat.  The trail ends when

* a blame label points at the **culprit's** line (``localized`` — the
  semantics' blame did its job),
* the program runs to a value (``no-error`` — this configuration never
  exercises the fault),
* the error is static (or a defect of this library), the fuel runs out,
  or no untyped binding is left to follow (``static-error`` / ``timeout``
  / ``runtime-error`` / ``dead-end``).

Every step types one binding, so a trail's length is bounded by the number
of initially-untyped bindings — the termination property the test suite
checks with Hypothesis.  Comparing localization rates and trail lengths
across enforcement semantics (with erasure as the null strategy) measures
whether blame is *useful*, not merely sound (Lazarek et al., ICFP 2021).
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..semantics import resolve
from ..serve.pool import WorkerPool, pool_job
from .inject import Fault, apply_fault, sample_faults
from .lattice import (
    ProgramLattice,
    enumerate_configurations,
    render_configuration,
)

#: Follow blame labels from configuration to configuration.
STRATEGY_BLAME = "blame"
#: No labels to follow (erasure): type seeded-random untyped bindings.
STRATEGY_NULL = "null"

#: Trail outcomes.
OUTCOMES = (
    "localized", "no-error", "timeout", "static-error", "runtime-error",
    "dead-end",
)

def strategy_for(semantics: str) -> str:
    """Which navigation strategy a semantics supports: blame-following for
    any semantics that can blame, the null (random) strategy otherwise."""
    return STRATEGY_BLAME if resolve(semantics).blames else STRATEGY_NULL


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one ``repro-gradual experiment`` invocation is shaped by."""

    semantics: tuple[str, ...] = ("coercion", "threesome", "transient", "erasure")
    engine: str = "vm"
    opt_level: int = 2
    fuel: int = 200_000
    workers: int = 2  # pool size; 0 runs inline in-process (tests)
    max_configs: int = 64  # lattice cutoff: enumerate below, sample above
    starts_per_fault: int = 4  # trail starting configurations per fault
    faults_per_program: int = 4
    seed: int = 0

    def __post_init__(self):
        self.run_configs()  # an invalid knob fails here, before any work

    def run_configs(self) -> dict:
        """Each semantics' resolved :class:`~repro.api.RunConfig`, by name;
        an engine the pool cannot run (:func:`~repro.serve.pool.pool_job`)
        or any other invalid knob is a :class:`~repro.core.errors.UsageError`."""
        from ..api import resolve_config

        base = resolve_config(engine=self.engine, opt_level=self.opt_level, fuel=self.fuel,
                              cache=False)
        pool_job(base)
        return {name: resolve_config(base, semantics=name) for name in self.semantics}


@dataclass(frozen=True)
class Trail:
    """One complete blame-following (or null) debugging session."""

    program: str
    semantics: str
    strategy: str
    fault: dict  # Fault.describe()
    start_untyped: list[str]  # the first step's ``untyped`` list
    steps: tuple[dict, ...]
    outcome: str
    configurations_run: int
    blame_records: int

    @property
    def localized(self) -> bool:
        return self.outcome == "localized"

    @property
    def length(self) -> int:
        """Migration steps taken (configurations beyond the first)."""
        return self.configurations_run - 1

    def describe(self) -> dict:
        """The trail as a JSON-ready record.  Like :meth:`Fault.describe`'s
        dict, its lists are shared: ``start_untyped`` is the first step's
        ``untyped`` list, and the trails of one run hold one sorted list per
        distinct configuration, so callers must not mutate them."""
        return {
            "program": self.program,
            "semantics": self.semantics,
            "strategy": self.strategy,
            "fault": self.fault,
            "start_untyped": self.start_untyped,
            "outcome": self.outcome,
            "localized": self.localized,
            "length": self.length,
            "configurations_run": self.configurations_run,
            "blame_records": self.blame_records,
            "steps": list(self.steps),
        }


def _blame_owner(label: str, owner: dict[int, str]) -> str | None:
    """The binding that owns a blame label's source line (negative labels
    print with a leading ``~``; the site is the same)."""
    text = label.lstrip("~")
    _, sep, loc = text.rpartition("@")
    if not sep:
        return None
    line_text, _, _ = loc.partition(":")
    try:
        line = int(line_text)
    except ValueError:
        return None
    return owner.get(line)


def _nearest_untyped(
    start: str, graph: dict[str, set[str]], untyped: set[str]
) -> str | None:
    """BFS from a typed (or main) node to the closest untyped binding —
    deterministic via sorted neighbor order."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in sorted(graph.get(node, ())):
            if neighbor in seen:
                continue
            if neighbor in untyped:
                return neighbor
            seen.add(neighbor)
            queue.append(neighbor)
    return None


def follow_trail(
    lattice: ProgramLattice,
    fault: Fault,
    start_untyped: frozenset[str] | set[str],
    semantics: str,
    runner,
    *,
    faulty: ProgramLattice,
    untyped_lists: dict[frozenset[str], list[str]],
    seed: int | str,
) -> Trail:
    """Follow one fault from one starting configuration to its outcome.

    ``runner`` maps rendered source text to a run record
    (:meth:`~repro.api.RunResult.describe` or
    :func:`~repro.api.error_record`): ``kind`` (``value`` / ``blame`` /
    ``timeout`` / ``error``) plus ``blame``, or ``error`` and its
    ``reason``.
    The loop types exactly one binding per continued step, so it runs at
    most ``len(start_untyped) + 1`` configurations.

    ``faulty`` is ``apply_fault(lattice, fault)``, planted once for every
    trail of the fault.  ``untyped_lists`` maps a configuration to its
    sorted list of untyped names; trails that share it share those lists
    in their steps.  ``seed`` seeds the null move's random choice; the
    generator is built at the first draw, which few trails make.
    """
    rng = None
    strategy = strategy_for(semantics)
    untyped = set(start_untyped)
    steps: list[dict] = []
    blame_records = 0
    runs = 0

    while True:
        configuration = frozenset(untyped)
        source, owner = render_configuration(faulty, configuration)
        result = runner(source)
        runs += 1
        # A sweep's steps repeat a handful of kinds, blame labels, actions
        # and error messages; each is kept as one interned copy, so the
        # records do not hold a fresh string per step (~19% of their size).
        # Untyped lists repeat too: one per distinct configuration.
        kind = result.get("kind")
        if isinstance(kind, str):
            kind = sys.intern(kind)
        names = untyped_lists.get(configuration)
        if names is None:
            names = untyped_lists.setdefault(configuration, sorted(configuration))
        step: dict = {"untyped": names, "kind": kind}
        if kind == "value":
            steps.append(step)
            outcome = "no-error"
            break
        if kind == "timeout":
            steps.append(step)
            outcome = "timeout"
            break
        if kind == "blame":
            blame_records += 1
            label = sys.intern(str(result.get("blame", "")))
            name = _blame_owner(label, owner)
            step["blame"] = label
            step["owner"] = name
            if name == fault.culprit:
                step["action"] = "localized"
                steps.append(step)
                outcome = "localized"
                break
            if name is not None and name in untyped:
                target = name
            elif name is not None:
                target = _nearest_untyped(name, lattice.reference_graph, untyped)
            else:
                target = None
            if target is None:
                steps.append(step)
                outcome = "dead-end"
                break
            step["action"] = sys.intern(f"type {target}")
            steps.append(step)
            untyped.discard(target)
            continue
        # An error record: a runtime error without blame is the null move —
        # type a seeded-random untyped binding (same move for every
        # strategy, so erasure is a fair baseline); a static error or a
        # defect stops the trail.
        step["error"] = sys.intern(str(result.get("error", "")))
        if result.get("reason") != "runtime":
            steps.append(step)
            outcome = "static-error"
            break
        if not untyped:
            steps.append(step)
            outcome = "runtime-error"
            break
        if rng is None:
            rng = random.Random(seed)
        target = rng.choice(sorted(untyped))
        step["action"] = sys.intern(f"type {target}")
        steps.append(step)
        untyped.discard(target)

    return Trail(
        program=lattice.name,
        semantics=semantics,
        strategy=strategy,
        fault=fault.describe(),
        start_untyped=steps[0]["untyped"],
        steps=tuple(steps),
        outcome=outcome,
        configurations_run=runs,
        blame_records=blame_records,
    )


# ---------------------------------------------------------------------------
# Runners: the same trail loop over the in-process API or the worker pool
# ---------------------------------------------------------------------------


class InlineRunner:
    """Run configurations in-process through :func:`repro.api.run`, to the
    records a worker returns for them, less the timings."""

    def __init__(self, config):
        self.config = config

    def __call__(self, source: str) -> dict:
        from ..api import error_record, run

        try:
            return run(source, self.config).describe()
        except Exception as exc:
            return error_record(exc)


class PoolRunner:
    """Run configurations through a persistent :class:`WorkerPool` —
    thread-safe, so whole trails can be followed concurrently.
    ``compile_s`` and ``run_s`` sum what the workers report."""

    def __init__(self, pool, config):
        self.pool = pool
        self.config = config
        self.compile_s = self.run_s = 0.0
        self._lock = threading.Lock()

    def __call__(self, source: str) -> dict:
        result = self.pool.execute(pool_job(self.config, source))
        with self._lock:
            self.compile_s += result.get("compile_s", 0.0)
            self.run_s += result.get("run_s", 0.0)
        return result


def _trail_seed(config: ExperimentConfig, *parts: object) -> str:
    """A per-trail RNG seed from stable strings (process-independent)."""
    return "|".join(str(p) for p in (config.seed, *parts))


def _plan_trails(programs, config: ExperimentConfig):
    """The deterministic trail plan: every (program, fault, semantics,
    start) tuple, with starting configurations shared across semantics so
    the strategies are compared on identical footing.  Each entry carries
    its fault's faulted lattice, planted once here for every trail of the
    fault."""
    plan = []
    for name, source in programs:
        lattice = ProgramLattice.from_source(source, name=name)
        faults = sample_faults(lattice, config.faults_per_program, seed=config.seed)
        for fault_index, fault in enumerate(faults):
            faulty = apply_fault(lattice, fault)
            configurations = enumerate_configurations(
                lattice, config.max_configs, seed=config.seed + fault_index
            )
            starts_rng = random.Random(_trail_seed(config, name, fault_index, "starts"))
            count = min(config.starts_per_fault, len(configurations))
            starts = starts_rng.sample(configurations, count)
            for semantics in config.semantics:
                for start_index, start in enumerate(starts):
                    plan.append((lattice, faulty, fault, fault_index,
                                 semantics, start_index, start))
    return plan


def run_experiment(programs, config: ExperimentConfig, *, emit=None):
    """Follow every planned trail; returns ``(trails, report)``.

    ``programs`` is an iterable of ``(name, source_text)`` pairs.  With
    ``config.workers > 0`` the configurations run through a persistent
    :class:`~repro.serve.pool.WorkerPool`, one job per configuration, from
    one thread per worker.  Each thread task is one starting configuration
    of one fault: it follows that start's trails under every semantics back
    to back.  A thread that checks its worker in gets the same worker back
    for its next job, so the configurations those trails share reach the
    worker whose front-end memo already holds them.  With ``workers == 0``
    everything runs inline.  Either way the trails come back, and ``emit``
    (if given) receives each trail's ``describe()`` dict, in deterministic
    plan order.

    The report is :func:`summarize`'s, plus a ``timing`` object, the one
    part that varies from run to run: ``wall_s`` and
    ``configurations_per_s`` of the whole call, ``parent_cpu_s``, the CPU
    time this process spent in it (every thread's), and for pooled runs
    the workers' summed ``compile_s`` and ``run_s`` and the pool's
    ``crashes``, ``retries`` and ``lost`` counters.  The trails share
    their untyped lists (see :meth:`Trail.describe`).
    """
    started = time.perf_counter()
    started_cpu = time.process_time()
    run_configs = config.run_configs()
    plan = _plan_trails(programs, config)
    trails: list[Trail] = []
    untyped_lists: dict[frozenset[str], list[str]] = {}

    def one(entry) -> Trail:
        lattice, faulty, fault, fault_index, semantics, start_index, start = entry
        seed = _trail_seed(config, lattice.name, fault_index, semantics, start_index)
        return follow_trail(lattice, fault, start, semantics, runners[semantics],
                            faulty=faulty, untyped_lists=untyped_lists, seed=seed)

    if config.workers > 0:
        # Group the plan by (program, fault, start), noting each entry's
        # group and its place in that group.
        groups: dict[tuple, list] = {}
        places = []
        for entry in plan:
            lattice, _, _, fault_index, _, start_index, _ = entry
            key = (id(lattice), fault_index, start_index)
            places.append((key, len(groups.setdefault(key, []))))
            groups[key].append(entry)
        with WorkerPool(config.workers) as pool:
            runners = {
                name: PoolRunner(pool, cfg) for name, cfg in run_configs.items()
            }
            with ThreadPoolExecutor(max_workers=config.workers) as executor:
                futures = {
                    key: executor.submit(lambda group: [one(entry) for entry in group], group)
                    for key, group in groups.items()
                }
                for key, place in places:
                    trail = futures[key].result()[place]
                    trails.append(trail)
                    if emit is not None:
                        emit(trail.describe())
    else:
        runners = {name: InlineRunner(cfg) for name, cfg in run_configs.items()}
        for entry in plan:
            trail = one(entry)
            trails.append(trail)
            if emit is not None:
                emit(trail.describe())

    report = summarize(trails)
    wall_s = time.perf_counter() - started
    timing = {"wall_s": wall_s,
              "configurations_per_s": report["configurations_run"] / wall_s,
              "parent_cpu_s": time.process_time() - started_cpu}
    if config.workers > 0:
        timing["compile_s"] = sum(runner.compile_s for runner in runners.values())
        timing["run_s"] = sum(runner.run_s for runner in runners.values())
        timing.update({name: pool.counters[name] for name in ("crashes", "retries", "lost")})
    report["timing"] = timing
    return trails, report


def summarize(trails) -> dict:
    """The aggregate report: per-semantics localization and trail lengths.

    ``localization_rate`` is localized trails over *blame-producing*
    trails — the denominator the paper's usefulness claim quantifies over
    (a trail whose configurations never blame gives the strategy nothing
    to follow).
    """
    per: dict[str, dict] = {}
    for trail in trails:
        bucket = per.setdefault(trail.semantics, {
            "strategy": trail.strategy,
            "trails": 0,
            "blame_trails": 0,
            "localized": 0,
            "blame_records": 0,
            "configurations_run": 0,
            "outcomes": Counter(),
            "_lengths": [],
        })
        bucket["trails"] += 1
        bucket["blame_records"] += trail.blame_records
        bucket["configurations_run"] += trail.configurations_run
        bucket["outcomes"][trail.outcome] += 1
        bucket["_lengths"].append(trail.length)
        if trail.blame_records:
            bucket["blame_trails"] += 1
        if trail.localized:
            bucket["localized"] += 1
    for bucket in per.values():
        lengths = bucket.pop("_lengths")
        bucket["mean_trail_length"] = (
            sum(lengths) / len(lengths) if lengths else 0.0
        )
        bucket["localization_rate"] = (
            bucket["localized"] / bucket["blame_trails"]
            if bucket["blame_trails"] else 0.0
        )
        bucket["outcomes"] = dict(sorted(bucket["outcomes"].items()))
    return {
        "trails": len(trails),
        "configurations_run": sum(t.configurations_run for t in trails),
        "semantics": dict(sorted(per.items())),
    }
