"""Experiment: is blame *useful*? The rational-programmer evaluation at scale.

The paper proves λC and λS blame the same label (bisimulation); this suite
asks the question the proof does not answer — whether following that label
actually leads a programmer to a planted fault.  It runs the
:mod:`repro.experiment` driver over the shipped ``.grad`` corpus plus a
seeded generated corpus: for every (program, fault, starting configuration,
semantics) tuple, follow blame across the migration lattice and record
whether the trail localizes the culprit and in how many steps.

The artifact's headline numbers, per enforcement semantics:

* ``localization_rate`` — localized trails over blame-producing trails
  (the acceptance bar: ≥ 0.9 for ``coercion`` and ``threesome``);
* ``mean_trail_length`` — migration steps per trail (how much typing work
  blame saves relative to the null strategy);
* ``blame_records`` — must be 0 for ``erasure``, the null baseline;
* ``configurations_run`` — every one executed through the persistent
  worker pool (the acceptance bar: ≥ 1000 across the sweep), and
  ``configurations_per_s``, the sweep's throughput, and ``parent_cpu_s``,
  the CPU time the driving process spent (the report's ``timing``).

Standalone usage (writes the ``BENCH_blame.json`` artifact)::

    python benchmarks/bench_blame.py --json
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import harness

from repro.experiment import ExperimentConfig, run_experiment
from repro.gen import generate_corpus

#: The shipped surface corpus (multi-binding programs with a main expression).
CORPUS_DIR = Path(__file__).resolve().parent.parent / "examples" / "programs"

#: Acceptance bar: blame-following must localize at least this fraction of
#: blame-producing trails under the natural semantics.
LOCALIZATION_TARGET = 0.9

#: Acceptance bar: lattice configurations executed through the worker pool.
CONFIGURATIONS_TARGET = 1000


def corpus_programs() -> list[tuple[str, str]]:
    return [(p.name, p.read_text()) for p in sorted(CORPUS_DIR.glob("*.grad"))]


def experiment_config(seed: int, workers: int = 2) -> ExperimentConfig:
    return ExperimentConfig(
        semantics=("coercion", "threesome", "transient", "erasure"),
        workers=workers,
        max_configs=32,
        starts_per_fault=4,
        faults_per_program=4,
        seed=seed,
    )


def build_suite(repeat: int, seed: int = harness.DEFAULT_SEED) -> harness.Suite:
    suite = harness.Suite("blame", repeat=repeat)
    programs = corpus_programs() + generate_corpus(16, seed=seed, bindings=5)
    config = experiment_config(seed)

    trails, report = run_experiment(programs, config)
    timing = report["timing"]

    suite.record(
        "experiment",
        wall_s=round(timing["wall_s"], 3),
        configurations_per_s=round(timing["configurations_per_s"], 1),
        parent_cpu_s=round(timing["parent_cpu_s"], 3),
        programs=len(programs),
        workers=config.workers,
        trails=report["trails"],
        configurations_run=report["configurations_run"],
        configurations_target=CONFIGURATIONS_TARGET,
    )
    for name, bucket in sorted(report["semantics"].items()):
        suite.record(
            f"semantics:{name}",
            strategy=bucket["strategy"],
            trails=bucket["trails"],
            blame_trails=bucket["blame_trails"],
            localized=bucket["localized"],
            localization_rate=round(bucket["localization_rate"], 4),
            mean_trail_length=round(bucket["mean_trail_length"], 4),
            blame_records=bucket["blame_records"],
            configurations_run=bucket["configurations_run"],
            outcomes=bucket["outcomes"],
        )

    # The acceptance bars, checked in-process so the artifact cannot be
    # written from a run that silently failed them.
    assert report["configurations_run"] >= CONFIGURATIONS_TARGET, (
        f"only {report['configurations_run']} configurations ran "
        f"(target {CONFIGURATIONS_TARGET})"
    )
    for name in ("coercion", "threesome"):
        rate = report["semantics"][name]["localization_rate"]
        assert rate >= LOCALIZATION_TARGET, (
            f"{name} localized only {rate:.1%} of blame-producing trails"
        )
    assert report["semantics"]["erasure"]["blame_records"] == 0
    return suite


# ---------------------------------------------------------------------------
# pytest entry point (pytest benchmarks/bench_blame.py) — a scaled-down
# smoke sweep, inline, so the suite stays fast under plain pytest.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semantics", ["coercion", "erasure"])
def test_experiment_smoke(semantics, tmp_path):
    programs = generate_corpus(2, seed=harness.DEFAULT_SEED, bindings=4)
    config = ExperimentConfig(
        semantics=(semantics,),
        workers=0,
        max_configs=8,
        starts_per_fault=2,
        faults_per_program=2,
        seed=harness.DEFAULT_SEED,
    )
    trails, report = run_experiment(programs, config)
    assert report["trails"] == len(trails) > 0
    bucket = report["semantics"][semantics]
    if semantics == "erasure":
        assert bucket["blame_records"] == 0
    else:
        assert bucket["localization_rate"] >= LOCALIZATION_TARGET


if __name__ == "__main__":
    sys.exit(harness.main("blame", build_suite))
