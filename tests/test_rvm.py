"""Tests for the register IR and the register VM (the ``rvm`` engine).

The contract under test: register allocation is *invisible* except for
speed.  Stack bytecode converted to packed register streams must agree
with the stack VM on every observable — projected values, blame labels,
timeouts, and the space profile (``max_pending_mediators`` and
``max_pending_size``) — under both mediator backends at both ``-O0`` and
``-O2``; register disassembly round-trips through its parser; ``.gradb``
images carry register code at format v2 and reject older versions with a
clear error; and the compile cache keys the IR so register images never
collide with stack images of the same source.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings

from repro import api
from repro.cli import main as cli_main
from repro.compiler import (
    FORMAT_VERSION,
    GRADB_MAGIC,
    ImageError,
    cache_path,
    cached_compile,
    compile_registers,
    compile_term,
    deserialize_image,
    disassemble_registers,
    load_image,
    parse_register_disassembly,
    register_streams,
    run_code,
    run_on_rvm,
    run_on_vm,
    run_rcode,
    save_image,
    serialize_image,
    source_fingerprint,
)
from repro.gen.programs import (
    deep_cast_chain,
    even_odd_boundary,
    pair_boundary_swap,
    tail_countdown_boundary,
    twice_boundary,
    typed_loop_untyped_step,
    untyped_client_bad_argument,
    untyped_library_bad_result,
)
from repro.semantics import NATURAL_SEMANTICS_NAMES
from repro.surface.interp import compile_source

from .strategies import lambda_b_programs

WORKLOADS = {
    "even_odd": even_odd_boundary(60),
    "typed_loop": typed_loop_untyped_step(40),
    "tail_countdown": tail_countdown_boundary(80),
    "twice": twice_boundary(8),
    "pair_swap": pair_boundary_swap(),
    "bad_result": untyped_library_bad_result(),
    "bad_arg": untyped_client_bad_argument(),
    "deep_chain": deep_cast_chain(6),
}

OPT_LEVELS = (0, 2)

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"


def _assert_same_outcome(rvm, vm) -> None:
    """Register and stack runs must be observably identical, space included."""
    assert rvm.kind == vm.kind
    if vm.is_value:
        assert rvm.python_value() == vm.python_value()
    if vm.is_blame:
        assert rvm.label == vm.label
    rstats, sstats = rvm.stats or {}, vm.stats or {}
    assert rstats.get("max_pending_mediators") == sstats.get("max_pending_mediators")
    assert rstats.get("max_pending_size") == sstats.get("max_pending_size")


# ---------------------------------------------------------------------------
# rvm against the stack VM
# ---------------------------------------------------------------------------


class TestAgreement:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workloads_agree(self, name, semantics, opt_level):
        term = WORKLOADS[name]
        rvm = run_on_rvm(term, semantics=semantics, opt_level=opt_level)
        vm = run_on_vm(term, semantics=semantics, opt_level=opt_level)
        _assert_same_outcome(rvm, vm)

    @settings(max_examples=40, deadline=None)
    @given(lambda_b_programs())
    def test_generated_programs_agree_both_mediators(self, program):
        term, _ = program
        for semantics in NATURAL_SEMANTICS_NAMES:
            rvm = run_on_rvm(term, semantics=semantics)
            vm = run_on_vm(term, semantics=semantics)
            _assert_same_outcome(rvm, vm)

    def test_timeouts_report_uniformly(self):
        outcome = run_on_rvm(even_odd_boundary(4000), fuel=500)
        assert outcome.is_timeout
        assert outcome.stats["steps"] == 500


class TestSpaceGuarantee:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    def test_boundary_tail_loops_hold_one_pending_mediator(self, semantics):
        """The λS guarantee survives register compilation: the pending
        footprint is at most 1 (composed, never stacked — at ``-O2`` the
        optimizer may statically elide it to 0, as the stack VM does) and
        *constant in the iteration count*."""
        for build in (even_odd_boundary, tail_countdown_boundary):
            small = run_on_rvm(build(60), semantics=semantics)
            large = run_on_rvm(build(400), semantics=semantics)
            assert small.stats["max_pending_mediators"] <= 1
            assert (small.stats["max_pending_mediators"]
                    == large.stats["max_pending_mediators"])
            assert (small.stats["max_pending_size"]
                    == large.stats["max_pending_size"])
            # At -O0 nothing is elided: the raw boundary loop holds exactly
            # one composed pending mediator, never a stack of them.
            raw = run_on_rvm(build(60), semantics=semantics, opt_level=0)
            assert raw.stats["max_pending_mediators"] == 1


# ---------------------------------------------------------------------------
# Register disassembly round trip
# ---------------------------------------------------------------------------


class TestDisassembly:
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_round_trips_through_parser(self, opt_level):
        for term in WORKLOADS.values():
            rcode = compile_registers(compile_term(term, opt_level=opt_level))
            text = disassemble_registers(rcode)
            assert parse_register_disassembly(text) == register_streams(rcode)

    @settings(max_examples=25, deadline=None)
    @given(lambda_b_programs())
    def test_generated_programs_round_trip(self, program):
        term, _ = program
        rcode = compile_registers(compile_term(term))
        text = disassemble_registers(rcode)
        assert parse_register_disassembly(text) == register_streams(rcode)


# ---------------------------------------------------------------------------
# Register .gradb images (format v2)
# ---------------------------------------------------------------------------


class TestRegisterImages:
    def _compile(self, semantics="coercion", opt_level=2):
        term, ty = compile_source(SQUARE)
        return compile_term(term, semantics=semantics, opt_level=opt_level), ty

    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_register_image_round_trips_and_runs(self, tmp_path, semantics, opt_level):
        code, ty = self._compile(semantics, opt_level)
        path = tmp_path / "square.gradb"
        save_image(code, path, static_type=ty, ir="register")
        image = load_image(path)
        assert image.info.ir == "register"
        assert image.rcode is not None
        _assert_same_outcome(run_rcode(image.rcode),
                             run_code(image.code))
        _assert_same_outcome(run_rcode(image.rcode),
                             run_rcode(compile_registers(code)))

    def test_stack_images_load_without_register_code(self, tmp_path):
        code, ty = self._compile()
        path = tmp_path / "square.gradb"
        save_image(code, path, static_type=ty)
        image = load_image(path)
        assert image.info.ir == "stack"
        assert image.rcode is None

    def test_old_format_version_is_rejected_with_a_clear_error(self):
        code, _ = self._compile()
        data = serialize_image(code, ir="register")
        assert data[len(GRADB_MAGIC)] == FORMAT_VERSION  # single-byte varint
        patched = bytearray(data)
        patched[len(GRADB_MAGIC)] = 1  # a v1 image from an older toolchain
        body = bytes(patched[:-4])
        with pytest.raises(ImageError, match=r"version mismatch.*v1.*v2"):
            deserialize_image(body + zlib.crc32(body).to_bytes(4, "big"))

    def test_truncated_register_section_is_rejected(self):
        code, _ = self._compile()
        data = serialize_image(code, ir="register")
        stack_only = serialize_image(code, ir="stack")
        # Cutting inside the register sections (past the stack payload) must
        # fail the checksum, not return a half-parsed image.
        cut = len(stack_only) + (len(data) - len(stack_only)) // 2
        with pytest.raises(ImageError):
            deserialize_image(data[:cut])


class TestCacheIRKey:
    def test_ir_is_an_axis_of_the_cache_key(self, tmp_path):
        source_hash = source_fingerprint(SQUARE)
        stack = cache_path(source_hash, 2, "coercion", tmp_path, ir="stack")
        register = cache_path(source_hash, 2, "coercion", tmp_path, ir="register")
        assert stack != register

    def test_register_cache_miss_converts_once(self, tmp_path, monkeypatch):
        import repro.compiler.regalloc as regalloc
        import repro.compiler.serialize as serialize

        calls = []
        convert = regalloc.compile_registers

        def counting(code):
            calls.append(code)
            return convert(code)

        monkeypatch.setattr(regalloc, "compile_registers", counting)
        monkeypatch.setattr(serialize, "compile_registers", counting)
        result = api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path))
        assert result.cache_status == "miss" and result.value == 36
        assert len(calls) == 1
        warm = api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path))
        assert warm.cache_status == "hit" and len(calls) == 1

    def test_cached_compile_register_hits_with_register_code(self, tmp_path):
        term, ty = compile_source(SQUARE)
        miss = cached_compile(term, static_type=ty, cache_dir=tmp_path, ir="register")
        assert miss.status == "miss"
        assert miss.image.rcode is not None
        hit = cached_compile(term, static_type=ty, cache_dir=tmp_path, ir="register")
        assert hit.status == "hit"
        assert hit.image.info.ir == "register"
        _assert_same_outcome(run_rcode(hit.image.rcode),
                             run_rcode(miss.image.rcode))

    def test_run_source_warm_rvm_equals_cold(self, tmp_path):
        cold = api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path))
        warm = api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path))
        assert (warm.kind, warm.value, str(warm.type)) == (
            cold.kind, cold.value, str(cold.type))
        assert warm.engine == "rvm"


# ---------------------------------------------------------------------------
# CLI: --engine rvm, --profile, compile --ir
# ---------------------------------------------------------------------------


@pytest.fixture
def square_program(tmp_path):
    path = tmp_path / "square.grad"
    path.write_text(SQUARE)
    return str(path)


class TestCLI:
    def test_run_engine_rvm(self, square_program, capsys):
        assert cli_main(["run", square_program, "--engine", "rvm",
                         "--no-cache", "--show-space"]) == 0
        out = capsys.readouterr().out
        assert "36 : int" in out
        assert "pending-mediators max=" in out

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    def test_profile_dumps_json_to_stderr(self, square_program, capsys, engine):
        assert cli_main(["run", square_program, "--engine", engine,
                         "--no-cache", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "36 : int" in captured.out
        profile = json.loads(captured.err)
        assert profile["engine"] == engine
        assert profile["dispatches"] == sum(profile["opcodes"].values()) > 0
        assert set(profile["inline_cache"]) == {"hits", "misses", "hit_rate"}

    def test_profile_rejects_subst_engine(self, square_program, capsys):
        assert cli_main(["run", square_program, "--engine", "subst",
                         "--profile"]) == 2
        assert "--profile" in capsys.readouterr().err

    def test_profile_covers_machine_engine(self, square_program, capsys):
        # The CEK machine has no opcode stream, but the metrics-backed
        # profile (space stats + phase timings) applies to it too.
        assert cli_main(["run", square_program, "--engine", "machine",
                         "--profile"]) == 0
        captured = capsys.readouterr()
        assert "36 : int" in captured.out
        profile = json.loads(captured.err)
        assert profile["engine"] == "machine"
        assert "opcodes" not in profile
        assert "steps" in profile["space"]
        assert "run" in profile["metrics"]["phases"]

    def test_compile_ir_register_prints_rcode_streams(self, square_program, capsys):
        assert cli_main(["compile", square_program, "--ir", "register"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("rcode 0")
        assert parse_register_disassembly(text)

    def test_register_image_runs_on_the_rvm(self, square_program, tmp_path, capsys):
        image = str(tmp_path / "square.gradb")
        assert cli_main(["compile", square_program, "--ir", "register",
                         "-o", image]) == 0
        capsys.readouterr()
        assert cli_main(["run", image]) == 0
        assert "36 : int" in capsys.readouterr().out
        # The image fixed its engine at compile time: vm is a contradiction,
        # rvm merely redundant.
        assert cli_main(["run", image, "--engine", "vm"]) == 2
        assert "--engine" in capsys.readouterr().err
        assert cli_main(["run", image, "--engine", "rvm"]) == 0
