"""One run record for every front door: :meth:`repro.api.RunResult.describe`
for a run that ended, :func:`repro.api.error_record` for one that raised, and
:func:`repro.serve.pool.pool_job` for the job a worker runs; the records
:func:`~repro.serve.pool.handle_job` (every worker, and batch's inline mode)
and the experiment's :class:`~repro.experiment.driver.InlineRunner` make
with them agree."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

import repro.api
from repro.api import RunConfig, error_record, resolve_config, run
from repro.core.errors import EvaluationError, ParseError, StuckError, UsageError
from repro.experiment.driver import InlineRunner, follow_trail
from repro.experiment.inject import apply_fault, enumerate_faults
from repro.experiment.lattice import ProgramLattice
from repro.gen.surface_programs import generate_program
from repro.semantics import SEMANTICS_NAMES
from repro.serve.pool import WorkerMemo, WorkerPool, _DeadlineExceeded, handle_job, pool_job

from .strategies import lattice_sweeps

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
#: Under erasure the 7 reaches the ``if``: a runtime error, not blame.
RUNTIME = "(if (: 7 ?) 1 2)\n"

#: What the inline and the pooled record of one configuration share.
OUTCOME = ("kind", "reason", "error", "blame", "value")


def config(semantics: str = "coercion", **fields) -> RunConfig:
    return resolve_config(engine="vm", semantics=semantics, **fields)


def outcome(record: dict) -> dict:
    return {field: record.get(field) for field in OUTCOME}


class TestDescribe:
    def test_value(self):
        result = run(SQUARE, config())
        assert result.describe() == {
            "kind": "value", "steps": result.steps,
            "max_pending_mediators": result.space_stats["max_pending_mediators"],
            "value": 36, "type": "int",
        }

    def test_blame(self):
        record = run(BLAME, config()).describe()
        assert record["kind"] == "blame"
        assert record["blame"] == str(run(BLAME, config()).blame_label)
        assert "value" not in record and "type" not in record

    def test_timeout(self):
        record = run(SPIN, config(fuel=1000)).describe()
        assert (record["kind"], record["steps"]) == ("timeout", 1000)
        assert set(record) == {"kind", "steps", "max_pending_mediators"}

    def test_every_engine_describes_its_result(self):
        records = [run(SQUARE, RunConfig(engine=engine)).describe()
                   for engine in ("vm", "rvm", "machine", "subst")]
        assert {(r["kind"], r["value"], r["type"]) for r in records} == {("value", 36, "int")}


class TestErrorRecord:
    @pytest.mark.parametrize("exc, message, reason", [
        (EvaluationError("if-condition is not a boolean"), "if-condition is not a boolean",
         "runtime"),
        (ParseError("unexpected closing parenthesis", 1, 4),
         "unexpected closing parenthesis at line 1, column 4", "static"),
        (UsageError("unknown semantics 'x'"), "unknown semantics 'x'", "static"),
        (StuckError("stuck"), "stuck", "static"),
        (RuntimeError("boom"), "worker exception: RuntimeError('boom')", "defect"),
        (RecursionError(), "worker exception: RecursionError()", "defect"),
    ])
    def test_reason_is_the_exception_type(self, exc, message, reason):
        assert error_record(exc) == {"kind": "error", "error": message, "reason": reason}


class TestPoolJob:
    def test_fields_come_from_the_config(self):
        cfg = config("transient", opt_level=1, fuel=99, cache=True, cache_dir="/cache")
        assert pool_job(cfg, "x", deadline_s=2.0, program="p.grad") == {
            "source": "x", "source_hash": None, "engine": "vm", "semantics": "transient",
            "opt_level": 1, "fuel": 99, "deadline_s": 2.0, "use_cache": True,
            "cache_dir": "/cache", "program": "p.grad",
        }
        assert "program" not in pool_job(cfg, source_hash="ab")

    @pytest.mark.parametrize("engine", ["machine", "subst"])
    def test_an_engine_the_pool_cannot_run_is_rejected(self, engine):
        with pytest.raises(UsageError, match="unknown engine"):
            pool_job(resolve_config(engine=engine), SQUARE)

    def test_an_unknown_engine_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown engine"):
            resolve_config(engine="bogus")
        with pytest.raises(UsageError, match="unknown engine"):
            run(SQUARE, engine="bogus")
        assert resolve_config(RunConfig(engine=None)).engine == "machine"

    @pytest.mark.parametrize("engine", ["", 0, False])
    def test_a_request_names_the_engine_it_sent(self, engine):
        from repro.serve.protocol import normalize_run_request

        defaults = {"semantics": "coercion", "opt_level": 2, "engine": "vm", "fuel": None,
                    "deadline_s": None, "cache_dir": None, "use_cache": False}
        with pytest.raises(ValueError, match=f"unknown engine {engine!r}"):
            normalize_run_request({"source": SQUARE, "engine": engine}, defaults)


class TestHandleJob:
    def test_a_runtime_error_carries_its_message_reason_and_timings(self):
        with pytest.raises(EvaluationError) as raised:
            run(RUNTIME, config("erasure"))
        record = handle_job(pool_job(config("erasure"), RUNTIME), WorkerMemo())
        assert (record["kind"], record["error"], record["reason"]) == (
            "error", str(raised.value), "runtime")
        assert record["cache"] == "off"
        assert record["compile_s"] > 0 and record["run_s"] > 0

    def test_a_static_error_has_no_image_and_no_run(self):
        record = handle_job(pool_job(config(), "(+ 1 #t)\n"), WorkerMemo())
        assert (record["kind"], record["reason"], record["cache"]) == ("error", "static", None)
        assert record["compile_s"] > 0 and "run_s" not in record

    def test_a_defect_is_a_worker_exception_and_stops_a_trail(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.api, "run_image", broken)
        memo = WorkerMemo()
        cfg = config("erasure", fuel=200_000, cache=False)
        record = handle_job(pool_job(cfg, SQUARE), memo)
        assert (record["kind"], record["error"], record["reason"]) == (
            "error", "worker exception: RuntimeError('boom')", "defect")
        assert "run_s" in record and record["cache"] == "off"

        lattice = ProgramLattice.from_source(generate_program(7, bindings=6), name="gen-7")
        fault = enumerate_faults(lattice)[0]
        trail = follow_trail(
            lattice, fault, frozenset(lattice.typeable_names), "erasure",
            lambda source: handle_job(pool_job(cfg, source), memo),
            faulty=apply_fault(lattice, fault), untyped_lists={}, seed=0)
        assert (trail.outcome, trail.configurations_run) == ("static-error", 1)
        assert trail.steps[0]["error"] == "worker exception: RuntimeError('boom')"

    def test_the_deadline_passes_through_to_the_worker(self):
        job = pool_job(config(fuel=10**12), SPIN, deadline_s=0.05)
        with pytest.raises(_DeadlineExceeded):
            handle_job(job, WorkerMemo())

    def test_a_pooled_job_past_its_deadline_is_a_timeout_and_errors_are_records(self):
        with WorkerPool(1) as pool:
            late = pool.execute(pool_job(config(fuel=10**12), SPIN, deadline_s=0.2))
            crashed = pool.execute(pool_job(config("erasure"), RUNTIME))
        assert (late["kind"], late["reason"]) == ("timeout", "deadline")
        inline = handle_job(pool_job(config("erasure"), RUNTIME), WorkerMemo())
        assert outcome(crashed) == outcome(inline)
        assert {"cache", "compile_s", "run_s"} <= set(crashed)


class TestInlineAndPooledAgree:
    """The experiment's inline runner (one ``api.run`` call) and a worker's
    ``handle_job`` (compile through its memo, then run) give the same record
    for every configuration, runtime errors included."""

    @pytest.mark.parametrize("semantics", SEMANTICS_NAMES)
    @pytest.mark.parametrize("source", [SQUARE, BLAME, SPIN, RUNTIME, "(+ 1 #t)\n", "(+ 1"])
    def test_programs(self, semantics, source):
        cfg = config(semantics, fuel=5000, cache=False)
        assert outcome(InlineRunner(cfg)(source)) == outcome(
            handle_job(pool_job(cfg, source), WorkerMemo()))

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_sweeps())
    def test_lattice_configurations(self, sources):
        memo = WorkerMemo()
        for source in sources:
            for semantics in SEMANTICS_NAMES:
                cfg = config(semantics, fuel=200_000, cache=False)
                assert outcome(InlineRunner(cfg)(source)) == outcome(
                    handle_job(pool_job(cfg, source), memo))
