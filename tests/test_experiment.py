"""Tests for :mod:`repro.experiment` — lattice, fault injection, driver.

The load-bearing properties:

* lattice enumeration/sampling and fault sampling are **deterministic**
  for a seed (the experiment must be replayable);
* every rendered configuration of a faulted program is **statically
  well-typed** (the planted mistake is a runtime fault, routed through
  ``?``);
* blame-following **terminates** with a trail no longer than the number
  of initially-untyped bindings (each step types one binding — checked
  with Hypothesis across generated programs, faults, and semantics);
* the driver localizes planted faults under the natural semantics and
  records **zero blame** under erasure;
* through the worker pool the driver follows and emits **the same trails**
  as inline.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import resolve_config
from repro.experiment import (
    ExperimentConfig,
    ProgramLattice,
    apply_fault,
    enumerate_configurations,
    enumerate_faults,
    follow_trail,
    render_configuration,
    run_experiment,
    sample_faults,
    strategy_for,
)
from repro.experiment.driver import OUTCOMES, STRATEGY_BLAME, STRATEGY_NULL, InlineRunner
from repro.experiment.lattice import MAIN_OWNER
from repro.gen import generate_corpus, generate_program
from repro.surface.interp import compile_source

from . import reference_lattice

PIPELINE = """\
(define (inc2 [x : int]) : int (+ x 2))
(define (flag [n : int]) : bool (< n 10))
(define (use [b : bool]) : int (if b (inc2 1) 0))
(define (top [n : int]) : int (use (flag n)))
(top 3)
"""

ALL_SEMANTICS = ("coercion", "threesome", "transient", "erasure")

#: The shipped surface corpus.
EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"


def _runner(semantics: str) -> InlineRunner:
    return InlineRunner(resolve_config(
        engine="vm", semantics=semantics, fuel=200_000, cache=False,
    ))


class TestLattice:
    def test_structure(self):
        lattice = ProgramLattice.from_source(PIPELINE, name="pipeline")
        assert lattice.typeable_names == ("inc2", "flag", "use", "top")
        refs = lattice.reference_map()
        assert refs["use"] == ("inc2",)
        assert refs["top"] == ("flag", "use")
        assert refs[MAIN_OWNER] == ("top",)

    def test_render_roundtrips_and_owns_lines(self):
        lattice = ProgramLattice.from_source(PIPELINE)
        source, owner = render_configuration(lattice, frozenset({"use"}))
        reparsed = ProgramLattice.from_program(
            __import__("repro.surface.parser", fromlist=["parse_program"])
            .parse_program(source)
        )
        assert [b.name for b in reparsed.bindings] == ["inc2", "flag", "use", "top"]
        assert owner == {1: "inc2", 2: "flag", 3: "use", 4: "top", 5: MAIN_OWNER}
        # The untyped binding keeps a ?→? annotation (the letrec path).
        assert "(define use : (-> ? ?) (lambda (b)" in source

    def test_full_enumeration_below_cutoff(self):
        lattice = ProgramLattice.from_source(PIPELINE)
        configs = enumerate_configurations(lattice, max_configs=16)
        assert len(configs) == 16
        assert len(set(configs)) == 16
        assert frozenset() in configs
        assert frozenset({"inc2", "flag", "use", "top"}) in configs

    def test_sampling_above_cutoff_is_seeded(self):
        source = generate_program(3, bindings=8)
        lattice = ProgramLattice.from_source(source)
        a = enumerate_configurations(lattice, max_configs=24, seed=7)
        b = enumerate_configurations(lattice, max_configs=24, seed=7)
        c = enumerate_configurations(lattice, max_configs=24, seed=8)
        assert a == b
        assert a != c
        assert len(a) == 24
        # Stratified: both lattice extremes stay represented.
        sizes = {len(cfg) for cfg in a}
        assert 0 in sizes and 8 in sizes

    def test_every_configuration_of_clean_program_runs(self):
        lattice = ProgramLattice.from_source(PIPELINE)
        runner = _runner("coercion")
        for cfg in enumerate_configurations(lattice, max_configs=16):
            source, _ = render_configuration(lattice, cfg)
            assert runner(source)["kind"] == "value", (sorted(cfg), source)


class TestRendering:
    """Each binding's lines are rendered once per lattice; a configuration
    joins them.  The text and the line-owner table must be what walking
    every binding's AST again gives (``reference_lattice``)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_configurations_render_as_the_per_binding_walk(self, seed):
        programs = [("pipeline", PIPELINE)] if seed == 0 else []
        programs += [(f"gen-{seed}-{bindings}", generate_program(seed, bindings=bindings))
                     for bindings in (3, 5, 7)]
        rendered = 0
        for name, source in programs:
            lattice = ProgramLattice.from_source(source, name=name)
            faulted = [apply_fault(lattice, fault)
                       for fault in sample_faults(lattice, 4, seed=seed)]
            for each in [lattice, *faulted]:
                for cfg in enumerate_configurations(each, max_configs=64, seed=seed):
                    assert render_configuration(each, cfg) == \
                        reference_lattice.render_configuration(each, cfg)
                    rendered += 1
        assert rendered > 0


class TestInjection:
    def test_enumerate_covers_all_kinds(self):
        lattice = ProgramLattice.from_source(PIPELINE)
        kinds = {f.kind for f in enumerate_faults(lattice)}
        assert kinds == {"wrong-return", "wrong-argument", "wrong-annotation"}

    def test_sampling_is_seeded_and_kind_balanced(self):
        lattice = ProgramLattice.from_source(PIPELINE)
        a = sample_faults(lattice, 6, seed=1)
        b = sample_faults(lattice, 6, seed=1)
        assert [f.describe() for f in a] == [f.describe() for f in b]
        assert len({f.kind for f in a}) == 3

    @pytest.mark.parametrize("index", range(4))
    def test_faulted_configurations_stay_statically_typed(self, index):
        lattice = ProgramLattice.from_source(PIPELINE)
        fault = sample_faults(lattice, 4, seed=0)[index]
        faulty = apply_fault(lattice, fault)
        for cfg in enumerate_configurations(faulty, max_configs=16):
            source, _ = render_configuration(faulty, cfg)
            compile_source(source)  # raises on any static error

    def test_fault_manifests_somewhere(self):
        lattice = ProgramLattice.from_source(PIPELINE)
        runner = _runner("coercion")
        for fault in sample_faults(lattice, 4, seed=0):
            faulty = apply_fault(lattice, fault)
            kinds = set()
            for cfg in enumerate_configurations(faulty, max_configs=16):
                source, _ = render_configuration(faulty, cfg)
                kinds.add(runner(source)["kind"])
            assert "blame" in kinds, fault.describe()


class TestStrategies:
    def test_blame_semantics_follow_blame(self):
        assert strategy_for("coercion") == STRATEGY_BLAME
        assert strategy_for("threesome") == STRATEGY_BLAME
        assert strategy_for("transient") == STRATEGY_BLAME

    def test_erasure_is_the_null_strategy(self):
        assert strategy_for("erasure") == STRATEGY_NULL


@settings(deadline=None, max_examples=25)
@given(
    program_seed=st.integers(min_value=0, max_value=10_000),
    fault_choice=st.integers(min_value=0, max_value=100),
    start_choice=st.integers(min_value=0, max_value=100),
    semantics=st.sampled_from(ALL_SEMANTICS),
)
def test_trail_terminates_within_untyped_budget(
    program_seed, fault_choice, start_choice, semantics
):
    """Blame-following types one binding per step, so every trail runs at
    most ``len(start_untyped) + 1`` configurations — for any program, any
    fault, any starting configuration, any semantics."""
    source = generate_program(program_seed, bindings=4)
    lattice = ProgramLattice.from_source(source, name=f"gen-{program_seed}")
    faults = enumerate_faults(lattice)
    if not faults:
        return
    fault = faults[fault_choice % len(faults)]
    configs = enumerate_configurations(lattice, max_configs=16, seed=0)
    start = configs[start_choice % len(configs)]
    trail = follow_trail(
        lattice, fault, start, semantics, _runner(semantics),
        faulty=apply_fault(lattice, fault), untyped_lists={}, seed=0,
    )
    assert trail.outcome in OUTCOMES
    assert trail.length <= len(start)
    assert trail.configurations_run == trail.length + 1
    if semantics == "erasure":
        assert trail.blame_records == 0


def _small_sweep(workers: int):
    """The programs, trails and report of a four-semantics sweep over the
    pipeline program and two generated ones."""
    programs = [("pipeline", PIPELINE), *generate_corpus(2, seed=3, bindings=4)]
    config = ExperimentConfig(
        semantics=ALL_SEMANTICS, workers=workers, max_configs=16,
        starts_per_fault=2, faults_per_program=2, seed=0,
    )
    return programs, *run_experiment(programs, config)


class TestDriver:
    def test_inline_experiment_localizes_and_erasure_never_blames(self):
        config = ExperimentConfig(
            semantics=ALL_SEMANTICS, workers=0, max_configs=16,
            starts_per_fault=2, faults_per_program=3, seed=0,
        )
        trails, report = run_experiment([("pipeline", PIPELINE)], config)
        assert report["trails"] == len(trails) > 0
        coercion = report["semantics"]["coercion"]
        assert coercion["blame_trails"] > 0
        assert coercion["localization_rate"] >= 0.9
        erasure = report["semantics"]["erasure"]
        assert erasure["blame_records"] == 0
        assert erasure["strategy"] == STRATEGY_NULL

    def test_experiment_is_deterministic(self):
        config = ExperimentConfig(
            semantics=("coercion",), workers=0, max_configs=8,
            starts_per_fault=2, faults_per_program=2, seed=3,
        )
        first, _ = run_experiment([("pipeline", PIPELINE)], config)
        second, _ = run_experiment([("pipeline", PIPELINE)], config)
        assert [t.describe() for t in first] == [t.describe() for t in second]

    def test_pooled_experiment_matches_inline(self):
        """Through the worker pool (one task per starting configuration,
        one job per configuration, front ends memoized per worker) the
        experiment follows the same trails as inline, over the shipped and
        generated programs under all four semantics, and emits them in the
        same plan order.  The reports agree in everything but ``timing``."""
        programs = [(path.name, path.read_text()) for path in sorted(EXAMPLES.glob("*.grad"))]
        programs += generate_corpus(4, seed=19, bindings=5)
        config = ExperimentConfig(
            semantics=ALL_SEMANTICS, max_configs=16, starts_per_fault=3,
            faults_per_program=2, seed=5,
        )
        records = {}
        reports = {}
        emitted: dict[int, list] = {0: [], 2: []}
        for workers in (0, 2):
            trails, reports[workers] = run_experiment(
                programs, replace(config, workers=workers), emit=emitted[workers].append)
            records[workers] = [trail.describe() for trail in trails]
        covered = {r["program"] for r in records[0]}
        assert any(name.endswith(".grad") for name in covered)
        assert any(name.startswith("gen-") for name in covered)
        assert {r["semantics"] for r in records[0]} == set(ALL_SEMANTICS)
        assert records[2] == records[0]
        assert emitted[2] == emitted[0] == records[0]
        timings = {workers: report.pop("timing") for workers, report in reports.items()}
        assert reports[2] == reports[0]
        for workers, timing in timings.items():
            assert timing["wall_s"] > 0
            assert timing["configurations_per_s"] == pytest.approx(
                reports[workers]["configurations_run"] / timing["wall_s"])
        assert set(timings[0]) == {"wall_s", "configurations_per_s", "parent_cpu_s"}
        assert set(timings[2]) == {"wall_s", "configurations_per_s", "parent_cpu_s",
                                   "compile_s", "run_s", "crashes", "retries", "lost"}
        assert timings[0]["parent_cpu_s"] > 0 and timings[2]["parent_cpu_s"] > 0
        assert timings[2]["compile_s"] > 0 and timings[2]["run_s"] > 0
        assert (timings[2]["crashes"], timings[2]["retries"], timings[2]["lost"]) == (0, 0, 0)

    def test_pooled_trails_survive_a_worker_kill(self, monkeypatch):
        """A worker SIGKILLed on one dispatch (the parent blocked reading its
        pipe) costs one retry on the spare and no trail changes; the report
        counts both."""
        from repro.core.faults import FAULTS_ENV

        _, inline, _ = _small_sweep(0)
        monkeypatch.setenv(FAULTS_ENV, "worker_kill:1.0:1")
        _, pooled, report = _small_sweep(2)
        assert [t.describe() for t in pooled] == [t.describe() for t in inline]
        timing = report["timing"]
        assert (timing["crashes"], timing["retries"], timing["lost"]) == (1, 1, 0)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_each_fault_is_applied_and_each_graph_built_once(self, monkeypatch, workers):
        """The planner applies each fault once, and a program builds its
        reference graph once, when a trail first needs it; every later
        trail reuses both."""
        import repro.experiment.driver as driver

        applied: Counter = Counter()
        graphs: Counter = Counter()
        apply_fault, reference_map = driver.apply_fault, ProgramLattice.reference_map

        def counting_apply(lattice, fault):
            applied[(lattice.name, fault.kind, fault.site)] += 1
            return apply_fault(lattice, fault)

        def counting_reference_map(lattice):
            graphs[lattice.name] += 1
            return reference_map(lattice)

        monkeypatch.setattr(driver, "apply_fault", counting_apply)
        monkeypatch.setattr(ProgramLattice, "reference_map", counting_reference_map)
        programs, trails, _ = _small_sweep(workers)
        planned = {(t.program, t.fault["kind"], t.fault["site"]) for t in trails}
        assert len(trails) > len(planned) > len(programs)
        assert applied == Counter(planned)
        assert set(graphs) <= {name for name, _ in programs}
        assert set(graphs.values()) == {1}

    @pytest.mark.parametrize("workers", [0, 2])
    def test_records_share_one_untyped_list_per_configuration(self, workers):
        _, trails, _ = _small_sweep(workers)
        lists: dict[tuple, list] = {}
        steps = 0
        for record in (trail.describe() for trail in trails):
            assert record["start_untyped"] is record["steps"][0]["untyped"]
            for step in record["steps"]:
                steps += 1
                names = step["untyped"]
                assert names == sorted(names)
                assert names is lists.setdefault(tuple(names), names)
        assert steps > len(lists)

    def test_concurrent_trails_share_untyped_lists(self):
        """Trails followed from many threads at once, switching as often as
        the interpreter allows, still hold one list per configuration."""
        import sys
        import threading

        lattice = ProgramLattice.from_source(generate_program(7, bindings=6), name="gen-7")
        fault = enumerate_faults(lattice)[0]
        faulty = apply_fault(lattice, fault)
        configurations = enumerate_configurations(lattice, max_configs=64, seed=0)
        untyped_lists: dict = {}
        trails: list = []

        def crash(_source):  # the null move: each step types a random binding
            return {"kind": "error", "error": "if-condition is not a boolean", "reason": "runtime"}

        def follow(thread: int) -> None:
            for index, start in enumerate(configurations):
                trails.append(follow_trail(
                    lattice, fault, start, "erasure", crash, faulty=faulty,
                    untyped_lists=untyped_lists, seed=f"{thread}|{index}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=follow, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(trails) == 8 * len(configurations)
        for trail in trails:
            assert trail.outcome == "runtime-error"
            for step in trail.steps:
                assert step["untyped"] is untyped_lists[frozenset(step["untyped"])]

    def test_trails_of_a_fault_share_one_description(self):
        config = ExperimentConfig(
            semantics=ALL_SEMANTICS, workers=0, max_configs=16,
            starts_per_fault=2, faults_per_program=2, seed=0,
        )
        trails, _ = run_experiment([("pipeline", PIPELINE)], config)
        lattice = ProgramLattice.from_source(PIPELINE, name="pipeline")
        faults = sample_faults(lattice, 2, seed=0)
        for fault in faults:
            shared = [trail.fault for trail in trails
                      if trail.fault["culprit"] == fault.culprit
                      and trail.fault["site"] == fault.site]
            assert len(shared) == 2 * len(ALL_SEMANTICS)
            assert all(description is shared[0] for description in shared)
            assert shared[0] == {"kind": fault.kind, "culprit": fault.culprit,
                                 "site": fault.site, "description": fault.description}
        assert all(trail.describe()["fault"] is trail.fault for trail in trails)

    def test_unknown_semantics_rejected(self):
        from repro.core.errors import UsageError

        with pytest.raises(UsageError, match="unknown semantics"):
            ExperimentConfig(semantics=("laissez-faire",))

    @pytest.mark.parametrize("engine", ["machine", "subst"])
    def test_an_engine_the_pool_cannot_run_is_rejected(self, engine):
        from repro.core.errors import UsageError

        with pytest.raises(UsageError, match="unknown engine"):
            ExperimentConfig(engine=engine, workers=1)


class TestCli:
    def test_experiment_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main([
            "experiment", "--generate", "1", "--bindings", "4",
            "--workers", "0", "--max-configs", "8", "--starts", "2",
            "--faults-per-program", "2", "--semantics", "coercion,erasure",
            "--report", str(report_path),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        *trail_lines, aggregate_line = lines
        assert trail_lines
        for line in trail_lines:
            record = json.loads(line)
            assert record["outcome"] in OUTCOMES
        aggregate = json.loads(aggregate_line)["aggregate"]
        assert aggregate == json.loads(report_path.read_text())
        assert aggregate["semantics"]["erasure"]["blame_records"] == 0

    def test_needs_programs(self, capsys):
        from repro.cli import main

        assert main(["experiment"]) == 2
