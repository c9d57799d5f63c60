"""Tests for the register IR and the register VM (the ``rvm`` engine).

The contract under test: register allocation is *invisible* except for
speed.  Stack bytecode converted to packed register streams must agree
with the stack VM on every observable — projected values, blame labels,
timeouts, and the space profile (``max_pending_mediators`` and
``max_pending_size``) — under both mediator backends at both ``-O0`` and
``-O2``; register disassembly round-trips through its parser; ``.gradb``
register images hold register code only at format v3 and reject older
versions with a clear error; and the compile cache keys the IR so register
images never collide with stack images of the same source.
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
    all_rcodes,
    cache_path,
    RCode,
    cached_compile,
    compile_register_program,
    compile_registers,
    compile_term,
    deserialize_image,
    disassemble_registers,
    load_image,
    parse_register_disassembly,
    register_streams,
    run_code,
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
from repro.compiler.regalloc import R_OPCODE_NAMES, instruction_width
from repro.core.errors import EvaluationError
from repro.semantics import NATURAL_SEMANTICS_NAMES, SEMANTICS_NAMES
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


def _capturing_program(n: int, bad: bool = False) -> str:
    """A program whose closures capture ``n`` values, every second one
    typed ``?`` (so its uses cast), called through a function proxy.  The
    curried ``make`` also builds and returns closures capturing 0…n-1
    values.  ``bad`` passes a string where an int is expected through
    ``?``: blame under the Natural semantics, an operand error under
    Erasure."""
    if n == 0:
        return ("(let ([h (lambda ([w : int]) (- w 1))])\n"
                "  (let ([g (lambda ([y : int]) (+ y 1))]) (if (zero? 0) (g 5) (h 5))))\n")
    params = " ".join(f"[c{i} : {'int' if i % 2 else '?'}]" for i in range(1, n + 1))
    total = "0"
    for i in range(n, 0, -1):
        total = f"(+ c{i} {total})"
    args = " ".join('"s"' if bad and i == 2 else str(10 * i) for i in range(1, n + 1))
    return (f"(define (make {params}) : (-> int int)\n"
            f"  (let ([h (lambda ([w : int]) (- w {total}))])\n"
            f"    (let ([g (lambda ([y : int]) (+ y {total}))])\n"
            f"      (if (zero? c1) h g))))\n"
            f"((: (: (make {args}) ?) (-> int int)) 7)\n")


def _closure_sites(rcode) -> set[tuple[str, int]]:
    """``(instruction, capture count)`` of every closure instruction."""
    sites = set()
    for obj in all_rcodes(rcode):
        words, pc = obj.words, 0
        while pc < len(words):
            name = R_OPCODE_NAMES[words[pc]]
            if name.startswith("CLOSURE"):
                sites.add((name, words[pc + 3]))
            pc += instruction_width(words[pc], words, pc)
    return sites


def _outcome_or_error(term, **config) -> tuple:
    """What a run observably did: its value, blame label, or error text."""
    try:
        result = api.run(term, **config)
    except EvaluationError as exc:
        return ("error", str(exc))
    return (result.kind, result.value, result.blame_label)


# ---------------------------------------------------------------------------
# rvm against the stack VM
# ---------------------------------------------------------------------------


class TestAgreement:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workloads_agree(self, name, semantics, opt_level):
        term = WORKLOADS[name]
        rvm = run_rcode(compile_register_program(term, semantics, opt_level))
        vm = run_code(compile_term(term, semantics, opt_level))
        _assert_same_outcome(rvm, vm)

    @settings(max_examples=40, deadline=None)
    @given(lambda_b_programs())
    def test_generated_programs_agree_both_mediators(self, program):
        term, _ = program
        for semantics in NATURAL_SEMANTICS_NAMES:
            rvm = run_rcode(compile_register_program(term, semantics))
            vm = run_code(compile_term(term, semantics))
            _assert_same_outcome(rvm, vm)

    def test_timeouts_report_uniformly(self):
        result = api.run(even_odd_boundary(4000), engine="rvm", fuel=500)
        assert result.is_timeout
        assert result.space_stats["steps"] == 500

    @pytest.mark.parametrize("semantics", SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    @pytest.mark.parametrize("n", range(6))
    def test_closures_capturing_0_to_5_values_agree_with_the_machine(
        self, n, semantics, opt_level
    ):
        # Each capture count reaches every closure instruction: CLOSURE,
        # and at -O2 the fused CLOSURE_BR_PRIM1 (n) and CLOSURE_RETURN (n - 1).
        for bad in (False, True) if n >= 2 else (False,):
            term, _ = compile_source(_capturing_program(n, bad))
            closures = _closure_sites(compile_register_program(term, semantics, opt_level))
            assert ("CLOSURE", n) in closures
            if opt_level == 2:
                assert ("CLOSURE_BR_PRIM1", n) in closures
                assert n == 0 or ("CLOSURE_RETURN", n - 1) in closures
            machine = _outcome_or_error(term, engine="machine", semantics=semantics)
            rvm = _outcome_or_error(term, engine="rvm", semantics=semantics,
                                    opt_level=opt_level)
            assert rvm == machine, (n, bad)


class TestOperandErrors:
    def test_an_engine_fault_is_not_reported_as_an_operand_error(self):
        # Only a meaning function's TypeError is the operator's.  -O2 code
        # stripped of its inline caches (a state image validation rejects)
        # fails in the engine itself, at a fused `zero?` branch.
        rcode = compile_register_program(even_odd_boundary(40))
        for obj in all_rcodes(rcode):
            obj.caches = None
        with pytest.raises(TypeError, match="not subscriptable"):
            run_rcode(rcode)


class TestSpaceGuarantee:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    def test_boundary_tail_loops_hold_one_pending_mediator(self, semantics):
        """The λS guarantee survives register compilation: the pending
        footprint is at most 1 (composed, never stacked — at ``-O2`` the
        optimizer may statically elide it to 0, as the stack VM does) and
        *constant in the iteration count*."""
        for build in (even_odd_boundary, tail_countdown_boundary):
            small = api.run(build(60), engine="rvm", semantics=semantics).space_stats
            large = api.run(build(400), engine="rvm", semantics=semantics).space_stats
            assert small["max_pending_mediators"] <= 1
            assert small["max_pending_mediators"] == large["max_pending_mediators"]
            assert small["max_pending_size"] == large["max_pending_size"]
            # At -O0 nothing is elided: the raw boundary loop holds exactly
            # one composed pending mediator, never a stack of them.
            raw = api.run(build(60), engine="rvm", semantics=semantics, opt_level=0)
            assert raw.space_stats["max_pending_mediators"] == 1


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
# Register .gradb images (format v3)
# ---------------------------------------------------------------------------


class TestRegisterImages:
    def _compile(self, semantics="coercion", opt_level=2):
        term, ty = compile_source(SQUARE)
        return compile_register_program(term, semantics, opt_level), ty

    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", OPT_LEVELS)
    def test_register_image_round_trips_and_runs(self, tmp_path, semantics, opt_level):
        rcode, ty = self._compile(semantics, opt_level)
        path = tmp_path / "square.gradb"
        save_image(rcode, path, static_type=ty, ir="register")
        image = load_image(path)
        assert image.info.ir == "register"
        # One IR: the loaded program is register code with no stack code.
        assert isinstance(image.code, RCode) and image.code.pool.codes == []
        assert register_streams(image.code) == register_streams(rcode)
        _assert_same_outcome(run_rcode(image.code), run_rcode(rcode))

    def test_a_register_program_references_no_stack_code(self):
        import gc
        import types

        from repro.compiler import CodeObject
        from repro.compiler.cache import compile_image

        term, ty = compile_source(SQUARE)
        compiled = compile_image(term, "", ty, ir="register")
        loaded = deserialize_image(serialize_image(compiled.code, "", ty, "register"))
        opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        for image in (compiled, loaded):
            seen, todo = set(), [image]
            while todo:
                obj = todo.pop()
                if id(obj) in seen or isinstance(obj, opaque):
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, CodeObject), obj
                todo.extend(gc.get_referents(obj))
            assert isinstance(image.code, RCode) and image.code.pool.rcodes

    def test_stack_images_load_without_register_code(self, tmp_path):
        term, ty = compile_source(SQUARE)
        path = tmp_path / "square.gradb"
        save_image(compile_term(term), path, static_type=ty)
        image = load_image(path)
        assert image.info.ir == "stack"
        assert image.code.pool.rcodes == []

    def test_an_image_holds_only_its_own_ir(self):
        term, _ = compile_source(SQUARE)
        with pytest.raises(ImageError, match="register image holds RCode code"):
            serialize_image(compile_term(term), ir="register")
        with pytest.raises(ImageError, match="stack image holds CodeObject code"):
            serialize_image(self._compile()[0], ir="stack")

    def test_old_format_version_is_rejected_with_a_clear_error(self):
        data = serialize_image(self._compile()[0], ir="register")
        assert data[len(GRADB_MAGIC)] == FORMAT_VERSION  # single-byte varint
        patched = bytearray(data)
        patched[len(GRADB_MAGIC)] = 2  # a v2 image from an older toolchain
        body = bytes(patched[:-4])
        with pytest.raises(ImageError, match=r"version mismatch.*v2.*v3"):
            deserialize_image(body + zlib.crc32(body).to_bytes(4, "big"))

    def test_truncated_register_section_is_rejected(self):
        data = serialize_image(self._compile()[0], ir="register")
        # Cutting inside the code objects must fail, not half-parse.
        for keep in range(len(data) // 2, len(data)):
            with pytest.raises(ImageError):
                deserialize_image(data[:keep])


class TestCacheIRKey:
    def test_ir_is_an_axis_of_the_cache_key(self, tmp_path):
        source_hash = source_fingerprint(SQUARE)
        stack = cache_path(source_hash, 2, "coercion", tmp_path, ir="stack")
        register = cache_path(source_hash, 2, "coercion", tmp_path, ir="register")
        assert stack != register

    def test_register_cache_miss_converts_once(self, tmp_path, monkeypatch):
        import repro.compiler.regalloc as regalloc

        calls = []
        convert = regalloc.compile_registers

        def counting(code):
            calls.append(code)
            return convert(code)

        monkeypatch.setattr(regalloc, "compile_registers", counting)
        result = api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path))
        assert result.cache_status == "miss" and result.value == 36
        assert len(calls) == 1
        warm = api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path))
        assert warm.cache_status == "hit" and len(calls) == 1

    def test_cached_compile_register_hits_with_register_code(self, tmp_path):
        term, ty = compile_source(SQUARE)
        miss = cached_compile(term, static_type=ty, cache_dir=tmp_path, ir="register")
        assert miss.status == "miss"
        assert isinstance(miss.image.code, RCode)
        hit = cached_compile(term, static_type=ty, cache_dir=tmp_path, ir="register")
        assert hit.status == "hit"
        assert hit.image.info.ir == "register"
        _assert_same_outcome(run_rcode(hit.image.code),
                             run_rcode(miss.image.code))

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
