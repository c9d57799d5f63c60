"""Tests for the batch runner (:mod:`repro.batch`) and ``repro-gradual batch``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import RunConfig
from repro.batch import aggregate_results, discover_programs, run_batch
from repro.cli import main

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
ILL_TYPED = "(+ 1 #t)\n"
#: Under erasure the 7 reaches the ``if``: a runtime error, not blame.
RUNTIME = "(if (: 7 ?) 1 2)\n"

#: What varies between two runs of one corpus.
TIMINGS = ("compile_s", "run_s", "compile_s_total", "run_s_total", "wall_s", "workers")


def mixed_corpus(root: Path) -> Path:
    """A value, a blame (under erasure, a value), a runtime error under
    erasure (blame otherwise), a parse error and a file that cannot be
    read."""
    root.mkdir()
    (root / "a_value.grad").write_text(SQUARE)
    (root / "b_blame.grad").write_text(BLAME)
    (root / "c_runtime.grad").write_text(RUNTIME)
    (root / "d_parse.grad").write_text("(+ 1\n")
    (root / "e_unreadable.grad").mkdir()
    return root


def untimed(record: dict) -> dict:
    return {key: value for key, value in record.items() if key not in TIMINGS}


def vm_config(tmp_path: Path) -> RunConfig:
    """The batch default (vm engine, through the cache) with a short fuel
    budget and a private cache directory."""
    return RunConfig(engine="vm", fuel=5_000, cache=True, cache_dir=str(tmp_path / "cache"))


@pytest.fixture
def corpus(tmp_path: Path) -> Path:
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a_square.grad").write_text(SQUARE)
    (root / "b_blame.grad").write_text(BLAME)
    (root / "c_spin.grad").write_text(SPIN)
    return root


class TestDiscovery:
    def test_directory_is_sorted_and_recursive(self, corpus):
        nested = corpus / "nested"
        nested.mkdir()
        (nested / "d_inner.grad").write_text(SQUARE)
        names = [p.name for p in discover_programs([corpus])]
        assert names == ["a_square.grad", "b_blame.grad", "c_spin.grad", "d_inner.grad"]

    def test_manifest_with_comments_and_relative_paths(self, corpus, tmp_path):
        manifest = tmp_path / "shard.txt"
        manifest.write_text(
            "# the shard's programs\n"
            "corpus/b_blame.grad\n"
            "\n"
            "corpus/a_square.grad\n"
        )
        names = [p.name for p in discover_programs([manifest])]
        assert names == ["b_blame.grad", "a_square.grad"]

    def test_duplicates_keep_first_occurrence(self, corpus):
        programs = discover_programs([corpus / "a_square.grad", corpus])
        assert [p.name for p in programs] == [
            "a_square.grad", "b_blame.grad", "c_spin.grad",
        ]

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_programs([tmp_path / "absent.txt"])


class TestRunBatch:
    def test_inline_outcomes_and_aggregate(self, corpus, tmp_path):
        streamed: list[dict] = []
        results, aggregate = run_batch(
            [corpus], vm_config(tmp_path), workers=1, on_result=streamed.append,
        )
        assert streamed == results
        by_name = {Path(r["program"]).name: r for r in results}
        assert by_name["a_square.grad"]["kind"] == "value"
        assert by_name["a_square.grad"]["value"] == 36
        assert by_name["a_square.grad"]["type"] == "int"
        assert by_name["b_blame.grad"]["kind"] == "blame"
        assert "ascription" in by_name["b_blame.grad"]["blame"]
        assert by_name["c_spin.grad"]["kind"] == "timeout"
        assert by_name["c_spin.grad"]["steps"] == 5_000
        assert aggregate["programs"] == 3
        assert aggregate["outcomes"] == {"value": 1, "blame": 1, "timeout": 1, "error": 0}
        assert aggregate["cache"]["miss"] == 3
        assert aggregate["steps_total"] > 5_000
        assert aggregate["workers"] == 1

    def test_second_run_hits_the_cache(self, corpus, tmp_path):
        run_batch([corpus], vm_config(tmp_path))
        _, aggregate = run_batch([corpus], vm_config(tmp_path))
        assert aggregate["cache"]["hit"] == 3
        assert aggregate["cache"]["miss"] == 0

    def test_front_end_errors_become_error_results(self, corpus, tmp_path):
        (corpus / "d_bad.grad").write_text(ILL_TYPED)
        results, aggregate = run_batch([corpus], vm_config(tmp_path))
        by_name = {Path(r["program"]).name: r for r in results}
        assert by_name["d_bad.grad"]["kind"] == "error"
        assert "int" in by_name["d_bad.grad"]["error"]
        assert aggregate["outcomes"]["error"] == 1

    def test_workers_agree_with_inline_execution(self, corpus, tmp_path):
        inline, _ = run_batch([corpus], vm_config(tmp_path), workers=1)
        pooled, aggregate = run_batch([corpus], vm_config(tmp_path), workers=2)
        key = lambda r: r["program"]  # noqa: E731 - tiny sort key
        for a, b in zip(sorted(inline, key=key), sorted(pooled, key=key)):
            assert a["program"] == b["program"]
            assert a["kind"] == b["kind"]
            assert a.get("value") == b.get("value")
            assert a.get("blame") == b.get("blame")
            assert a["steps"] == b["steps"]
            assert a["max_pending_mediators"] == b["max_pending_mediators"]
        assert aggregate["workers"] == 2

    @pytest.mark.parametrize("semantics, kinds", [
        ("coercion", ["value", "blame", "blame", "error", "error"]),
        ("erasure", ["value", "value", "error", "error", "error"]),
    ])
    def test_the_same_records_at_any_worker_count(self, tmp_path, semantics, kinds):
        corpus = mixed_corpus(tmp_path / "corpus")
        runs = [run_batch([corpus], RunConfig(engine="vm", semantics=semantics, cache=True,
                                              cache_dir=str(tmp_path / f"cache{workers}")),
                          workers=workers)
                for workers in (1, 2)]
        (inline, inline_aggregate), (pooled, pooled_aggregate) = runs
        key = lambda r: r["program"]  # noqa: E731 - tiny sort key
        inline, pooled = sorted(inline, key=key), sorted(pooled, key=key)
        assert [untimed(r) for r in inline] == [untimed(r) for r in pooled]
        assert untimed(inline_aggregate) == untimed(pooled_aggregate)
        assert [r["kind"] for r in inline] == kinds
        reasons = [r.get("reason") for r in inline if r["kind"] == "error"]
        assert reasons == (["runtime"] if semantics == "erasure" else []) + ["static", None]
        assert inline[-1]["error"].startswith("unreadable:")
        for records in (inline, pooled):
            assert all("worker exception" not in r.get("error", "") for r in records)
            assert all({"compile_s", "run_s"} <= set(r) for r in records
                       if r.get("reason") == "runtime")

    def test_killed_worker_yields_worker_lost_record(self, corpus, tmp_path):
        """A worker SIGKILLed mid-corpus must not lose its in-flight record
        (or hang the run): past the retry budget the program is reported as
        an ``error`` with ``"reason": "worker-lost"`` and the shard stats
        count it."""
        results, aggregate = run_batch(
            [corpus], vm_config(tmp_path), workers=2, faults="worker_kill:1.0",
        )
        assert len(results) == 3  # every program has exactly one record
        for result in results:
            assert result["kind"] == "error"
            assert result["reason"] == "worker-lost"
        assert aggregate["outcomes"]["error"] == 3

    def test_killed_worker_is_retried_transparently(self, corpus, tmp_path):
        """A kill scoped to one dispatch: the retry succeeds and the corpus
        result is indistinguishable from an undisturbed run."""
        inline, _ = run_batch([corpus], vm_config(tmp_path), workers=1)
        chaotic, aggregate = run_batch(
            [corpus], vm_config(tmp_path), workers=2, faults="worker_kill:1.0:1",
        )
        key = lambda r: r["program"]  # noqa: E731 - tiny sort key
        for a, b in zip(sorted(inline, key=key), sorted(chaotic, key=key)):
            assert (a["program"], a["kind"]) == (b["program"], b["kind"])
            assert a.get("value") == b.get("value")
            assert a.get("blame") == b.get("blame")
        assert aggregate["outcomes"]["error"] == 0
        assert sum(r.get("attempts", 1) for r in chaotic) == len(chaotic) + 1

    def test_faults_environment_reaches_the_pool(self, corpus, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_GRADUAL_FAULTS", "worker_kill:1.0")
        monkeypatch.setenv("REPRO_GRADUAL_FAULTS_SEED", "20150613")
        results, _ = run_batch([corpus], vm_config(tmp_path), workers=2)
        assert all(r["reason"] == "worker-lost" for r in results)

    def test_results_are_json_serializable(self, corpus, tmp_path):
        results, aggregate = run_batch([corpus], vm_config(tmp_path))
        for result in results:
            json.dumps(result)
        json.dumps(aggregate)

    @pytest.mark.parametrize("engine", ["machine", "subst"])
    def test_an_engine_the_pool_cannot_run_is_rejected(self, corpus, engine, monkeypatch):
        from repro.core.errors import UsageError
        from repro.serve import pool

        def handle_job(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(pool, "handle_job", handle_job)
        with pytest.raises(UsageError, match="unknown engine"):
            run_batch([corpus], RunConfig(engine=engine))

    def test_aggregate_of_empty_corpus(self):
        aggregate = aggregate_results([])
        assert aggregate["programs"] == 0
        assert aggregate["outcomes"]["value"] == 0


class TestBatchCommand:
    def _lines(self, capsys) -> list[dict]:
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_all_values_exit_zero(self, tmp_path, capsys):
        root = tmp_path / "ok"
        root.mkdir()
        (root / "one.grad").write_text(SQUARE)
        (root / "two.grad").write_text(SQUARE.replace("6", "7"))
        assert main(["batch", str(root)]) == 0
        lines = self._lines(capsys)
        assert len(lines) == 3  # two programs + the aggregate
        assert lines[-1]["aggregate"]["outcomes"]["value"] == 2

    def test_blame_and_timeout_and_error_exit_codes(self, tmp_path, capsys):
        root = tmp_path / "mixed"
        root.mkdir()
        (root / "one.grad").write_text(SQUARE)
        (root / "two.grad").write_text(BLAME)
        assert main(["batch", str(root)]) == 1
        (root / "three.grad").write_text(SPIN)
        assert main(["batch", str(root), "--fuel", "5000"]) == 3
        (root / "four.grad").write_text(ILL_TYPED)
        assert main(["batch", str(root), "--fuel", "5000"]) == 2
        lines = self._lines(capsys)
        assert lines[-1]["aggregate"]["outcomes"] == {
            "value": 1, "blame": 1, "timeout": 1, "error": 1,
        }

    def test_int_past_the_digit_limit_is_a_decimal_string(self, tmp_path, capsys):
        # json cannot write (nor read back) an int of more than 4,300 digits.
        from repro.core.ops import int_to_decimal

        long = "7" * 3000
        root = tmp_path / "long"
        root.mkdir()
        (root / "long.grad").write_text(f"(* {long} {long})\n")
        (root / "pair.grad").write_text(f"(cons 1 (* {long} {long}))\n")
        assert main(["batch", str(root), "--no-cache"]) == 0
        by_name = {Path(line["program"]).name: line for line in self._lines(capsys)[:-1]}
        product = int_to_decimal(int(long) ** 2)
        assert (by_name["long.grad"]["value"], by_name["long.grad"]["type"]) == (product, "int")
        assert by_name["pair.grad"]["value"] == [1, product]

    def test_streams_one_json_line_per_program(self, tmp_path, capsys):
        root = tmp_path / "ok"
        root.mkdir()
        (root / "one.grad").write_text(SQUARE)
        assert main(["batch", str(root), "--workers", "1", "-O", "0",
                     "--semantics", "threesome", "--no-cache"]) == 0
        lines = self._lines(capsys)
        assert Path(lines[0]["program"]).name == "one.grad"
        assert lines[0]["kind"] == "value"
        assert lines[0]["cache"] == "off"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_runtime_error_is_one_record(self, tmp_path, capsys, workers):
        root = tmp_path / "erasure"
        root.mkdir()
        (root / "square.grad").write_text(SQUARE)
        (root / "runtime.grad").write_text(RUNTIME)
        assert main(["batch", str(root), "--semantics", "erasure",
                     "--workers", workers, "--no-cache"]) == 2
        lines = self._lines(capsys)
        assert len(lines) == 3  # two programs + the aggregate
        by_name = {Path(line["program"]).name: line for line in lines[:-1]}
        assert (by_name["runtime.grad"]["kind"], by_name["runtime.grad"]["reason"]) == (
            "error", "runtime")
        assert not by_name["runtime.grad"]["error"].startswith("worker exception")
        assert lines[-1]["aggregate"]["outcomes"] == {
            "value": 1, "blame": 0, "timeout": 0, "error": 1,
        }

    def test_missing_path_is_a_static_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent.txt")]) == 2
        assert "error" in capsys.readouterr().err
