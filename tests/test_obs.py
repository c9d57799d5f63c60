"""Tests for the observability layer: tracing, metrics, timelines, blame trails.

The load-bearing property is **non-perturbation**: a traced run's outcome —
value, blame label, step count, and the full space-stats snapshot — must be
bit-identical to the untraced run, for every engine (CEK machine, stack VM,
register VM), both mediator backends, and every optimizer level.  The
tracer only reads; the hypothesis property at the bottom pins that down
over generated programs.

The rest covers the schema (every event kind round-trips through its dict
form), the sinks, the metrics registry, the space-timeline compression
envelope, and blame-provenance trails.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.gen.programs import (
    even_odd_boundary,
    even_odd_expected,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.machine import run_on_machine
from repro.obs import (
    EVENT_KINDS,
    EVENT_TYPES,
    ChromeTraceSink,
    JsonLinesSink,
    ListSink,
    MetricsRegistry,
    RingBufferSink,
    SpaceTimeline,
    TeeSink,
    blame_trail,
    current_tracer,
    event_from_dict,
    format_trail,
    mediator_labels,
    record_run,
    tracing,
)
from repro.obs.events import (
    Apply,
    BlameEvent,
    Collapse,
    Install,
    MediatorDef,
    Merge,
    RunEnd,
    RunStart,
)
from repro.api import run

from .strategies import lambda_b_programs

# ---------------------------------------------------------------------------
# Event schema
# ---------------------------------------------------------------------------

#: One representative instance per event kind (every field exercised).
SAMPLE_EVENTS = [
    RunStart("rvm", "S", "coercion", "prog.grad"),
    RunStart("machine", "B", "coercion"),
    MediatorDef(3, "(int? ; id[int])", 2, ("boundary", "q")),
    Install(17, 3, 1, 2),
    Merge(21, 3, 4, 5, 1, 3),
    Collapse(40, 5, 0, 0),
    Apply(40, 5),
    BlameEvent(41, "boundary", 5),
    BlameEvent(41, "~q"),
    RunEnd("blame", 41, {"steps": 41, "max_pending_mediators": 1}),
]


class TestEventSchema:
    def test_every_kind_has_a_sample(self):
        assert {type(e).kind for e in SAMPLE_EVENTS} == set(EVENT_KINDS)
        assert set(EVENT_TYPES) == set(EVENT_KINDS)

    @pytest.mark.parametrize("event", SAMPLE_EVENTS,
                             ids=lambda e: type(e).__name__)
    def test_round_trip(self, event):
        d = event.to_dict()
        assert d["ev"] == type(event).kind
        json.loads(json.dumps(d))  # JSON-ready
        assert event_from_dict(d) == event

    def test_round_trip_survives_json(self):
        for event in SAMPLE_EVENTS:
            wire = json.loads(json.dumps(event.to_dict()))
            rebuilt = event_from_dict(wire)
            assert rebuilt.to_dict() == event.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            event_from_dict({"ev": "nonsense"})

    def test_mediator_labels_walks_structures(self):
        from repro.core.labels import Label
        from repro.core.types import DYN, INT
        from repro.machine.policy import CastMediator

        m = CastMediator(INT, DYN, Label("boundary"))
        assert mediator_labels(m) == ("boundary",)
        assert mediator_labels((m, m)) == ("boundary",)  # deduped
        assert mediator_labels(42) == ()


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TestSinks:
    def test_ring_buffer_evicts_oldest(self):
        sink = RingBufferSink(capacity=3)
        for step in range(5):
            sink.emit(Apply(step, 0).to_dict())
        assert [e["step"] for e in sink.events] == [2, 3, 4]

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path)
        for event in SAMPLE_EVENTS:
            sink.emit(event.to_dict())
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == len(SAMPLE_EVENTS) == sink.count
        rebuilt = [event_from_dict(json.loads(line)) for line in lines]
        assert rebuilt == SAMPLE_EVENTS

    def test_chrome_sink_emits_counter_track(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        for event in SAMPLE_EVENTS:
            sink.emit(event.to_dict())
        sink.close()
        entries = json.loads(path.read_text())
        counters = [e for e in entries if e["ph"] == "C"]
        assert counters and all(e["name"] == "pending mediators" for e in counters)
        assert {"mediators", "size"} <= set(counters[0]["args"])
        assert any(e["name"].startswith("blame") for e in entries)

    def test_tee_fans_out(self):
        left, right = ListSink(), ListSink()
        tee = TeeSink([left, right])
        tee.emit(Apply(1, 0).to_dict())
        tee.close()
        assert left.events == right.events == [Apply(1, 0).to_dict()]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_gauges(self):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.counter("a").inc(4)
        m.gauge("g").high(7)
        m.gauge("g").high(3)  # not a new high
        snap = m.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"g": 7}

    def test_histogram_buckets_fixed(self):
        m = MetricsRegistry()
        h = m.histogram("h", boundaries=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):  # one per bucket incl. overflow
            h.observe(value)
        d = m.snapshot()["histograms"]["h"]
        assert d["boundaries"] == [1.0, 2.0]
        assert d["counts"] == [1, 1, 1]
        assert d["count"] == 3 and d["min"] == 0.5 and d["max"] == 99.0

    def test_phase_timer_accumulates(self):
        m = MetricsRegistry()
        for _ in range(3):
            with m.timer("parse"):
                pass
        snap = m.snapshot()["phases"]["parse"]
        assert snap["count"] == 3 and snap["total_s"] >= 0.0

    def test_record_run_folds_stats(self):
        m = MetricsRegistry()
        record_run(m, "value", {"steps": 10, "max_pending_mediators": 2,
                                "merges": 4}, "rvm")
        record_run(m, "blame", {"steps": 5, "max_pending_mediators": 7}, "rvm")
        snap = m.snapshot()
        assert snap["counters"]["run.count"] == 2
        assert snap["counters"]["run.outcome.value"] == 1
        assert snap["counters"]["run.outcome.blame"] == 1
        assert snap["counters"]["run.steps"] == 15
        assert snap["gauges"]["run.max_pending_mediators"] == 7
        record_run(None, "value", {}, "vm")  # None is the off switch

    def test_pipeline_phases_recorded(self):
        m = MetricsRegistry()
        result = run("(+ 1 2)", engine="rvm", metrics=m)
        assert result.is_value and result.value == 3
        phases = m.snapshot()["phases"]
        assert {"parse", "elaborate", "lower", "optimize", "regalloc",
                "run"} <= set(phases)

    def test_cache_counters(self, tmp_path):
        m = MetricsRegistry()
        run("(+ 1 2)", engine="vm", cache=True, cache_dir=str(tmp_path), metrics=m)
        run("(+ 1 2)", engine="vm", cache=True, cache_dir=str(tmp_path), metrics=m)
        counters = m.snapshot()["counters"]
        assert counters["cache.miss"] == 1 and counters["cache.hit"] == 1


# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------


class TestTimeline:
    def test_samples_space_events_only(self):
        timeline = SpaceTimeline()
        timeline.emit(Install(1, 0, 1, 2).to_dict())
        timeline.emit(Apply(2, 0).to_dict())  # not a space event
        timeline.emit(Merge(3, 0, 1, 2, 1, 3).to_dict())
        timeline.emit(Collapse(4, 2, 0, 0).to_dict())
        series = timeline.series()
        assert series["steps"] == [1, 3, 4]
        assert series["pending_mediators"] == [1, 1, 0]
        assert series["max_pending_mediators"] == 1
        assert series["max_pending_size"] == 3
        assert not series["downsampled"]

    def test_compression_preserves_envelope(self):
        timeline = SpaceTimeline(max_points=16)
        peak_step = 500
        for step in range(1200):
            pending = 40 if step == peak_step else (step % 7)
            timeline.emit(Install(step, 0, pending, pending).to_dict())
        series = timeline.series()
        assert series["downsampled"]
        assert series["points"] <= 2 * 16 + 1
        assert series["max_pending_mediators"] == 40  # the spike survives
        assert peak_step in series["steps"]

    def test_tees_to_inner(self):
        inner = ListSink()
        timeline = SpaceTimeline(inner=inner)
        timeline.emit(Apply(1, 0).to_dict())
        timeline.emit(Install(2, 0, 1, 1).to_dict())
        timeline.close()
        assert len(inner.events) == 2  # everything forwarded, space or not

    def test_machine_timeline_matches_paper_shape(self):
        n = 40
        shapes = {}
        for calculus in ("B", "C", "S"):
            timeline = SpaceTimeline()
            with tracing(timeline):
                outcome = run_on_machine(even_odd_boundary(n), calculus)
            assert outcome.is_value
            series = timeline.series()
            assert (series["max_pending_mediators"]
                    == outcome.stats["max_pending_mediators"])
            shapes[calculus] = series["max_pending_mediators"]
        assert shapes["S"] <= 4          # bounded
        assert shapes["B"] >= n          # linear
        assert shapes["C"] >= n


# ---------------------------------------------------------------------------
# Blame trails
# ---------------------------------------------------------------------------


class TestBlameTrail:
    def test_no_blame_no_trail(self):
        sink = ListSink()
        with tracing(sink):
            run_on_machine(even_odd_boundary(4), "S")
        assert blame_trail(sink.events) is None

    @pytest.mark.parametrize("engine", ["machine", "vm", "rvm"])
    def test_trail_identifies_failing_mediator(self, engine):
        sink = ListSink()
        with tracing(sink):
            result = run(untyped_library_bad_result(), engine=engine)
        assert result.is_blame
        trail = blame_trail(sink.events)
        assert trail is not None
        assert trail["label"] == str(result.blame_label)
        assert trail["mediator"] is not None
        assert "boundary" in trail["labels"]
        text = format_trail(trail)
        assert text.startswith("blame boundary at step ")
        assert "failing mediator:" in text

    def test_trail_reconstructs_composition_chain(self):
        sink = ListSink()
        with tracing(sink):
            result = run(untyped_library_bad_result(), engine="rvm",
                              opt_level=2)
        assert result.is_blame
        trail = blame_trail(sink.events)
        # On the compiled engines the failing mediator is itself a
        # composition — the trail carries at least that one merge.
        assert trail["trail"], trail
        entry = trail["trail"][0]
        assert entry["result"] == trail["mediator"]
        assert entry["new"] is not None and entry["prev"] is not None

    def test_unknown_references_degrade_to_ids(self):
        # A ring buffer evicted the definitions: refs print as #<id>.
        events = [
            Merge(3, 7, 8, 9, 1, 2).to_dict(),
            BlameEvent(4, "p", 9).to_dict(),
        ]
        trail = blame_trail(events)
        assert trail["mediator"] == "#9"
        assert trail["trail"][0]["new"] == "#7"


# ---------------------------------------------------------------------------
# Non-perturbation: traced ≡ untraced, every engine × mediator
# ---------------------------------------------------------------------------

ENGINES = ("machine", "vm", "rvm")


def _outcome_key(result):
    return (result.kind, result.value, str(result.blame_label),
            result.steps, result.space_stats)


class TestNonPerturbation:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("semantics", ["coercion", "threesome"])
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_boundary_workloads(self, engine, semantics, opt_level):
        for term, expect in (
            (even_odd_boundary(12), "value"),
            (untyped_library_bad_result(), "blame"),
            (untyped_client_bad_argument(), "blame"),
        ):
            untraced = run(term, engine=engine, semantics=semantics,
                                opt_level=opt_level)
            sink = ListSink()
            with tracing(sink):
                traced = run(term, engine=engine, semantics=semantics,
                                  opt_level=opt_level)
            assert traced.kind == untraced.kind == expect
            assert _outcome_key(traced) == _outcome_key(untraced)
            kinds = {e["ev"] for e in sink.events}
            assert {"run_start", "run_end"} <= kinds

    def test_traced_even_odd_value(self):
        n = 10
        for engine in ENGINES:
            with tracing(ListSink()):
                result = run(even_odd_boundary(n), engine=engine)
            assert result.is_value and result.value == even_odd_expected(n)

    @given(lambda_b_programs())
    @settings(max_examples=25, deadline=None)
    def test_generated_programs(self, program):
        term, _ty = program
        for engine in ENGINES:
            for semantics in ("coercion", "threesome"):
                untraced = run(term, engine=engine, semantics=semantics,
                                    fuel=20_000)
                sink = RingBufferSink(capacity=512)
                with tracing(sink):
                    traced = run(term, engine=engine, semantics=semantics,
                                      fuel=20_000)
                assert _outcome_key(traced) == _outcome_key(untraced)

    def test_tracer_cleared_after_context(self):
        assert current_tracer() is None
        with tracing(ListSink()):
            assert current_tracer() is not None
        assert current_tracer() is None


# ---------------------------------------------------------------------------
# The snapshot fix: -O2 runs always report their inline-cache counters
# ---------------------------------------------------------------------------


class TestSnapshotCacheCounters:
    def test_o2_snapshot_carries_zero_counters(self):
        # A -O2 run whose caches were never consulted must still report
        # hits/misses (both zero) — the dropped-keys bug this PR fixes.
        result = run(untyped_library_bad_result(), engine="vm", opt_level=2)
        assert result.space_stats["cache_hits"] >= 0
        assert "cache_misses" in result.space_stats

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    def test_o0_snapshot_omits_counters(self, engine):
        result = run(even_odd_boundary(4), engine=engine, opt_level=0)
        assert "cache_hits" not in result.space_stats

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    def test_o2_snapshot_always_has_counters(self, engine):
        result = run(even_odd_boundary(4), engine=engine, opt_level=2)
        assert "cache_hits" in result.space_stats
        assert "cache_misses" in result.space_stats


# ---------------------------------------------------------------------------
# CLI surface: run --trace/--metrics, the trace subcommand, batch --metrics
# ---------------------------------------------------------------------------

import pathlib  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
@pytest.fixture
def square_program(tmp_path):
    path = tmp_path / "square.grad"
    path.write_text(SQUARE)
    return str(path)


@pytest.fixture
def blame_program():
    # Resolved from the repo root so the test is cwd-independent.
    path = (pathlib.Path(__file__).parent.parent
            / "examples" / "programs" / "boundary_blame.grad")
    return str(path)


class TestCLI:
    def test_run_trace_and_metrics_files(self, square_program, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        assert cli_main(["run", square_program, "--engine", "rvm", "--no-cache",
                         "--trace", str(trace), "--metrics", str(metrics)]) == 0
        events = [event_from_dict(json.loads(line))
                  for line in trace.read_text().splitlines()]
        kinds = [e["ev"] for e in (ev.to_dict() for ev in events)]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert events[0].program == square_program
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["run.count"] == 1
        assert snap["counters"]["run.outcome.value"] == 1
        assert "run" in snap["phases"]
        capsys.readouterr()

    def test_trace_subcommand_summary_and_timeline(self, square_program, capsys):
        assert cli_main(["trace", square_program, "--engine", "machine",
                         "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "36 : int" in out
        assert "trace:" in out and "events" in out
        assert "pending-mediators max=" in out
        assert '"pending_mediators"' in out

    def test_trace_subcommand_blame_prints_trail(self, blame_program, capsys):
        assert cli_main(["trace", blame_program, "--engine", "vm"]) == 1
        out = capsys.readouterr().out
        assert "blame ascription@" in out
        assert "failing mediator:" in out

    def test_trace_subcommand_chrome_export(self, square_program, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert cli_main(["trace", square_program, "--engine", "rvm",
                         "--format", "chrome", "-o", str(out_path)]) == 0
        capsys.readouterr()
        entries = json.loads(out_path.read_text())
        assert isinstance(entries, list) and entries
        assert all({"name", "ph", "ts"} <= set(e) for e in entries)

    def test_batch_embeds_metrics_in_aggregate(self, tmp_path, capsys):
        programs = tmp_path / "programs"
        programs.mkdir()
        (programs / "a.grad").write_text(SQUARE)
        (programs / "b.grad").write_text(SQUARE)
        metrics = tmp_path / "m.json"
        assert cli_main(["batch", str(programs), "--no-cache",
                         "--metrics", str(metrics)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # one per program + the aggregate, no extras
        aggregate = json.loads(lines[-1])["aggregate"]
        assert aggregate["metrics"]["counters"]["batch.outcome.value"] == 2
        file_snap = json.loads(metrics.read_text())
        assert file_snap == aggregate["metrics"]

    def test_batch_trace_tags_programs(self, tmp_path, capsys):
        programs = tmp_path / "programs"
        programs.mkdir()
        (programs / "a.grad").write_text(SQUARE)
        (programs / "b.grad").write_text(SQUARE)
        trace = tmp_path / "t.jsonl"
        assert cli_main(["batch", str(programs), "--no-cache",
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        starts = [json.loads(line) for line in trace.read_text().splitlines()
                  if json.loads(line)["ev"] == "run_start"]
        assert {s["program"].rsplit("/", 1)[-1] for s in starts} == {
            "a.grad", "b.grad"}
