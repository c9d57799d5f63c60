"""Experiment: the enforcement-semantics sweep — composition *and* execution.

Grown out of the threesome-versus-``#`` benchmark (its measurement names
are kept, so rows compare with the older ``BENCH_threesomes.json``), this
sweeps the full :mod:`repro.semantics` registry and writes
``BENCH_mediators.json``:

* **composition micro-benchmarks** (the original §6.1 experiment): folding
  long boundary chains and random composable pairs with ``∘`` versus ``#``,
  asserting identical results through the representation map;
* **full engine comparison**: the λS CEK machine, the stack VM and the
  register VM (``rvm``, at ``-O2`` like the stack VM) run the boundary
  workloads under every registered semantics.  The Natural pair
  (``coercion``, ``threesome``) must agree on every observable with
  *identical* pending footprints (``check_oracle_matrix`` checks every
  engine × semantics × ``-O`` cell first); Transient and Erasure are the
  two ends of the enforcement spectrum the blame-evaluation literature
  compares Natural against:

  - ``{engine}/erasure_vs_coercion/{workload}`` records the **speed
    ceiling** — what enforcement costs at all (erasure elides every
    mediator at ``-O1+``, so > 1.0 means Natural is paying measurable
    enforcement overhead);
  - ``{engine}/transient_vs_coercion/{workload}`` records the **shallow
    check trade** — tag checks without proxies, whose blame may diverge
    from Natural by design.

  The λS space guarantee is *asserted* for every ``space_bounded`` backend,
  not just recorded: on boundary-heavy workloads both VMs must report
  ``max_pending_mediators ≤ 1`` (one composed pending slot per frame), and
  the pure tail loop must report 1 on the CEK machine too (the machine
  holds a short transient second mediator on workloads that return through
  a non-tail cast, so those assert a constant ≤ 2).

Every timed row records its median and interquartile range over at least
:data:`MIN_REPEAT` runs, so a row can be compared with the same row of
another recording against its own noise.
"""

from __future__ import annotations

import random
import sys

import pytest

import harness

from repro.compiler import compile_register_program, compile_term, run_code, run_rcode
from repro.core.labels import Label
from repro.core.types import DYN, INT
from repro.gen.coercions_gen import random_composable_space_pair
from repro.gen.programs import (
    even_odd_boundary,
    fib_boundary,
    tail_countdown_boundary,
    typed_loop_untyped_step,
)
from repro.lambda_s.coercions import compose
from repro.machine import run_on_machine
from repro.properties.bisimulation import check_oracle_matrix
from repro.semantics import SEMANTICS, SEMANTICS_NAMES
from repro.threesomes import compose_labeled, labeled_of_coercion
from repro.translate.b_to_s import cast_to_space


def _boundary_chain(length: int):
    pieces = []
    for index in range(length):
        pieces.append(cast_to_space(INT, Label(f"in{index}"), DYN))
        pieces.append(cast_to_space(DYN, Label(f"out{index}"), INT))
    return pieces


#: The engine-comparison workloads: (name, λB term, boundary_heavy?,
#: pure_tail?).  The boundary-heavy ones are the λS space story — loops whose
#: pending mediators must stay constant under every space-bounded backend;
#: the pure tail loop additionally keeps a *single* composed pending mediator
#: on both engines (``max_pending_mediators == 1``).
ENGINE_WORKLOADS = [
    ("even_odd_boundary_400", even_odd_boundary(400), True, False),
    ("tail_countdown_400", tail_countdown_boundary(400), True, True),
    ("typed_loop_200", typed_loop_untyped_step(200), True, False),
    ("fib_boundary_13", fib_boundary(13), False, False),
]

#: The two Natural presentations — the original experiment's pair, held to
#: strict observational equality (identical footprints included).
NATURAL = ("coercion", "threesome")

#: Fewest timed runs per row, whatever ``--repeat`` asks: a quartile of
#: three runs is no measure of noise.
MIN_REPEAT = 15

#: Each compiled engine: how it compiles a λB term under a semantics, and
#: how it runs the result.
COMPILED_ENGINES = {
    "vm": (compile_term, run_code),
    "rvm": (compile_register_program, run_rcode),
}


def _compose_microbenchmarks(suite: harness.Suite) -> None:
    pieces = _boundary_chain(200)
    labeled_pieces = [labeled_of_coercion(piece) for piece in pieces]

    def fold_sharp():
        result = pieces[0]
        for piece in pieces[1:]:
            result = compose(result, piece)
        return labeled_of_coercion(result)

    def fold_threesomes():
        result = labeled_pieces[0]
        for piece in labeled_pieces[1:]:
            result = compose_labeled(result, piece)
        return result

    reference = fold_sharp()
    suite.measure("sharp/chain_200", fold_sharp, algorithm="sharp", chain_length=len(pieces))
    suite.measure("threesomes/chain_200", fold_threesomes,
                  check=lambda r: r == reference,
                  algorithm="threesomes", chain_length=len(pieces))

    rng = random.Random(20100117)
    pairs = [random_composable_space_pair(rng, length=3, depth=3) for _ in range(100)]
    labeled_pairs = [(labeled_of_coercion(s), labeled_of_coercion(t)) for s, t, *_ in pairs]

    def run_sharp():
        return [labeled_of_coercion(compose(s, t)) for s, t, *_ in pairs]

    def run_threesomes():
        return [compose_labeled(p, q) for p, q in labeled_pairs]

    reference_pairs = run_sharp()
    suite.measure("sharp/random_100", run_sharp, algorithm="sharp", pairs=len(pairs))
    suite.measure("threesomes/random_100", run_threesomes,
                  check=lambda r: r == reference_pairs,
                  algorithm="threesomes", pairs=len(pairs))


def _engine_comparison(suite: harness.Suite) -> None:
    for name, term, boundary_heavy, pure_tail in ENGINE_WORKLOADS:
        # Every engine × semantics × -O cell of the oracle matrix, before timing.
        report = check_oracle_matrix(term)
        assert report.ok, f"{name}: {report.reason}"

        cells: dict[tuple[str, str], harness.Measurement] = {}
        pendings: dict[tuple[str, str], int] = {}

        for backend in SEMANTICS_NAMES:
            outcome = run_on_machine(term, "S", semantics=backend)
            pendings[("machine", backend)] = outcome.stats["max_pending_mediators"]
            cells[("machine", backend)] = suite.measure(
                f"machine/{backend}/{name}",
                lambda backend=backend: run_on_machine(term, "S", semantics=backend),
                check=lambda r, outcome=outcome: r.kind == outcome.kind,
                engine="machine", semantics=backend, workload=name,
                boundary_heavy=boundary_heavy,
                max_pending_mediators=outcome.stats["max_pending_mediators"],
            )

        for engine, (compile_for, run) in COMPILED_ENGINES.items():
            for backend in SEMANTICS_NAMES:
                code = compile_for(term, semantics=backend)
                outcome = run(code)
                pendings[(engine, backend)] = outcome.stats["max_pending_mediators"]
                cells[(engine, backend)] = suite.measure(
                    f"{engine}/{backend}/{name}",
                    lambda code=code, run=run: run(code),
                    check=lambda r, outcome=outcome: r.kind == outcome.kind,
                    engine=engine, semantics=backend, workload=name,
                    boundary_heavy=boundary_heavy,
                    max_pending_mediators=outcome.stats["max_pending_mediators"],
                )

        for engine in ("machine", *COMPILED_ENGINES):
            pending_coercion = pendings[(engine, "coercion")]
            pending_threesome = pendings[(engine, "threesome")]
            # The Natural pair changes only what a pending mediator *is*,
            # so its footprints must be identical, not merely bounded.
            assert pending_coercion == pending_threesome, (
                f"{engine}/{name}: pending footprints diverge across the "
                f"Natural backends ({pending_coercion} vs {pending_threesome})"
            )
            if boundary_heavy:
                # The space guarantee itself, for every space-bounded
                # backend: one pending slot per VM frame; the machine holds
                # a transient second on non-tail returns (constant ≤ 2).
                bound = 1 if (engine != "machine" or pure_tail) else 2
                for backend in SEMANTICS_NAMES:
                    if not SEMANTICS[backend].space_bounded:
                        continue
                    assert pendings[(engine, backend)] <= bound, (
                        f"{engine}/{backend}/{name}: max_pending_mediators "
                        f"{pendings[(engine, backend)]} > {bound}"
                    )
            coercion_best = cells[(engine, "coercion")].best_s
            for backend in ("threesome", "transient", "erasure"):
                # > 1.0 means this backend is faster than coercion; for
                # erasure that ratio is the cost of enforcement itself
                # (the speed ceiling), for transient the shallow-check
                # trade.  The threesome record keeps its historical name.
                suite.record(
                    f"{engine}/{backend}_vs_coercion/{name}",
                    engine=engine, workload=name, boundary_heavy=boundary_heavy,
                    speedup=round(coercion_best / cells[(engine, backend)].best_s, 3),
                    pending_coercion=pending_coercion,
                    pending_backend=pendings[(engine, backend)],
                    pending_equal_backends=(
                        pendings[(engine, backend)] == pending_coercion
                    ),
                    blames=SEMANTICS[backend].blames,
                )


def build_suite(repeat: int) -> harness.Suite:
    suite = harness.Suite("mediators", max(repeat, MIN_REPEAT))
    _compose_microbenchmarks(suite)
    _engine_comparison(suite)
    return suite


@pytest.mark.benchmark(group="threesomes-vs-sharp-chain")
@pytest.mark.parametrize("algorithm", ["sharp", "threesomes"])
def test_chain_composition(benchmark, algorithm):
    pieces = _boundary_chain(200)
    labeled_pieces = [labeled_of_coercion(piece) for piece in pieces]

    def fold_sharp():
        result = pieces[0]
        for piece in pieces[1:]:
            result = compose(result, piece)
        return labeled_of_coercion(result)

    def fold_threesomes():
        result = labeled_pieces[0]
        for piece in labeled_pieces[1:]:
            result = compose_labeled(result, piece)
        return result

    result = benchmark(fold_sharp if algorithm == "sharp" else fold_threesomes)
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["chain_length"] = len(pieces)
    # Both algorithms compute the same mediating representation.
    assert result == fold_sharp()


@pytest.mark.benchmark(group="threesomes-vs-sharp-random")
@pytest.mark.parametrize("algorithm", ["sharp", "threesomes"])
def test_random_pair_composition(benchmark, algorithm):
    rng = random.Random(20100117)
    pairs = [random_composable_space_pair(rng, length=3, depth=3) for _ in range(100)]
    labeled_pairs = [(labeled_of_coercion(s), labeled_of_coercion(t)) for s, t, *_ in pairs]

    def run_sharp():
        return [labeled_of_coercion(compose(s, t)) for s, t, *_ in pairs]

    def run_threesomes():
        return [compose_labeled(p, q) for p, q in labeled_pairs]

    results = benchmark(run_sharp if algorithm == "sharp" else run_threesomes)
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["pairs"] = len(pairs)
    assert results == run_sharp()


@pytest.mark.benchmark(group="mediators-engine")
@pytest.mark.parametrize("semantics", list(SEMANTICS_NAMES))
def test_vm_under_each_semantics(benchmark, semantics):
    term = even_odd_boundary(400)
    code = compile_term(term, semantics=semantics)
    outcome = benchmark(lambda: run_code(code))
    benchmark.extra_info["semantics"] = semantics
    assert outcome.is_value and outcome.python_value() is True


if __name__ == "__main__":
    sys.exit(harness.main("mediators", build_suite))
