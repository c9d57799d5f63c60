"""Tests for serialized ``.gradb`` bytecode images and the compile cache.

The contract under test: an image round-trips a compiled program exactly —
byte-identical disassembly, oracle-identical behavior (values, blame
labels, timeouts, step counts, and the space profile) under both mediator
backends at every optimizer level — and the content-addressed cache built
on top of it is invisible except for speed: a hit, a miss, and a recovered
corrupt entry all produce the same ``RunResult``.  Every load validates, so
checksum-valid bytes that would fail mid-run are an ``ImageError`` at load:
hand-made cases below, and a property over mutated bytes of both IRs.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.compiler import (
    FORMAT_VERSION,
    GRADB_MAGIC,
    ImageError,
    all_rcodes,
    cache_path,
    cached_compile,
    compile_register_program,
    compile_term,
    deserialize_image,
    disassemble,
    disassemble_image,
    disassemble_registers,
    load_image,
    parse_disassembly,
    parse_register_disassembly,
    register_streams,
    run_code,
    run_rcode,
    save_image,
    serialize_image,
    source_fingerprint,
)
from repro.compiler.bytecode import CALL, JUMP, LOAD, PUSH_CONST, CodeObject, ConstantPool
from repro.compiler.cache import compile_image
from repro.compiler.regalloc import (
    R_BR_PRIM2,
    R_CLOSURE,
    R_JUMP,
    R_MOVE,
    R_PRIM1,
    R_PRIM2,
    R_RETURN,
)
from repro.core.errors import ReproError
from repro.gen import programs
from repro.lambda_s.coercions import is_interned_space
from repro.machine.values import MConst
from repro.semantics import NATURAL_SEMANTICS_NAMES, SEMANTICS_NAMES
from repro.surface.interp import compile_source
from repro.threesomes.runtime import is_interned_threesome

from .strategies import lambda_b_programs

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "programs").glob("*.grad")
)

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
COUNTDOWN = "(define (f [n : int]) : int (if (< n 1) 0 (f (- n 1))))\n(f 3)\n"


def _compile(source: str, semantics: str = "coercion", opt_level: int = 2):
    term, ty = compile_source(source)
    return compile_term(term, semantics=semantics, opt_level=opt_level), ty


def _assert_same_outcome(a, b) -> None:
    assert a.kind == b.kind
    if a.is_value:
        assert a.python_value() == b.python_value()
    elif a.is_blame:
        assert a.label == b.label
    assert a.stats == b.stats


def _recrc(data: bytes) -> bytes:
    """Recompute the trailing checksum after a deliberate patch."""
    body = data[:-4]
    return body + zlib.crc32(body).to_bytes(4, "big")


def _register_image(rcode) -> bytes:
    return serialize_image(rcode, ir="register")


def _crafted_image(term) -> bytes:
    """A checksum-valid register image of ``term`` compiled at ``-O2``,
    every code object then relabelled ``-O0``: its fused instructions have
    no cache cells to run with."""
    rcode = compile_register_program(term)
    for obj in all_rcodes(rcode):
        obj.opt_level = 0
    return _register_image(rcode)


#: Boundary loops whose ``-O2`` register code holds fused instructions.
BOUNDARY_LOOPS = {
    "even_odd": programs.even_odd_boundary(40),
    "typed_loop_untyped_step": programs.typed_loop_untyped_step(40),
    "tail_countdown": programs.tail_countdown_boundary(40),
    "twice": programs.twice_boundary(40),
}


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("semantics", NATURAL_SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_examples_round_trip_exactly(self, semantics, opt_level):
        for example in EXAMPLES:
            source = example.read_text()
            code, ty = _compile(source, semantics, opt_level)
            image = deserialize_image(
                serialize_image(code, source_hash=source_fingerprint(source), static_type=ty)
            )
            # Byte-identical disassembly: instructions, pools, names.
            assert disassemble(image.code) == disassemble(code)
            # Oracle-identical behavior, including the space profile.
            _assert_same_outcome(run_code(code), run_code(image.code))
            assert image.info.format_version == FORMAT_VERSION
            assert image.info.semantics == semantics
            assert image.info.opt_level == opt_level
            assert image.info.static_type == ty
            assert image.info.source_hash == source_fingerprint(source)

    @pytest.mark.parametrize("semantics", SEMANTICS_NAMES)
    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_register_examples_round_trip_exactly(self, semantics, opt_level):
        for example in EXAMPLES:
            term, ty = compile_source(example.read_text())
            rcode = compile_register_program(term, semantics, opt_level)
            image = deserialize_image(serialize_image(rcode, "", ty, "register"))
            assert image.info.ir == "register" and image.info.static_type == ty
            # Byte-identical disassembly (words, register files, pools)
            # below the provenance header.
            text = disassemble_image(image)
            assert text.endswith(disassemble_registers(rcode))
            assert parse_register_disassembly(text) == register_streams(rcode)
            _assert_same_outcome(run_rcode(rcode), run_rcode(image.code))

    def test_loaded_pool_is_reinterned(self):
        code, ty = _compile(BLAME, "coercion", 2)
        image = deserialize_image(serialize_image(code))
        assert image.code.pool.coercions, "expected a mediator-carrying program"
        for entry in image.code.pool.coercions:
            assert is_interned_space(entry)

    def test_loaded_threesome_pool_is_reinterned(self):
        code, ty = _compile(BLAME, "threesome", 2)
        image = deserialize_image(serialize_image(code))
        assert image.code.pool.coercions, "expected a mediator-carrying program"
        for entry in image.code.pool.coercions:
            assert is_interned_threesome(entry)

    @pytest.mark.parametrize("semantics", SEMANTICS_NAMES)
    def test_loading_records_no_alias(self, semantics):
        """A decoded node is looked up by its canonical children, so a load
        adds to no table's aliases (only, on first sight, to its nodes)."""
        from repro.core.intern import _REGISTRY

        data = serialize_image(_compile(BLAME, semantics, 2)[0])
        before = {name: len(table._aliases) for name, table in _REGISTRY.items()}
        deserialize_image(data)
        assert {name: len(table._aliases) for name, table in _REGISTRY.items()} == before

    def test_huge_and_negative_integer_constants_round_trip(self):
        # Regression: the varint reader used to cap continuations at ~77
        # bits, so a valid program with a big literal serialized into an
        # image that could never be loaded (and the compile cache would
        # rewrite the entry on every "warm" run).
        from repro.core.terms import const_int

        for literal in (2**80, -(2**80), 2**400, -7, 0):
            code = compile_term(const_int(literal))
            image = deserialize_image(serialize_image(code))
            assert disassemble(image.code) == disassemble(code)
            assert run_code(image.code).python_value() == literal

    def test_caches_reallocated_only_at_o2(self):
        for opt_level, expect in ((0, False), (1, False), (2, True)):
            code, _ = _compile(SQUARE, "coercion", opt_level)
            image = deserialize_image(serialize_image(code))
            assert (image.code.caches is not None) == expect
            assert image.code.opt_level == opt_level

    def test_image_disassembly_round_trips_through_parser(self, tmp_path):
        code, ty = _compile(SQUARE)
        path = save_image(code, tmp_path / "square.gradb", static_type=ty)
        image = load_image(path)
        text = disassemble_image(image)
        assert f"; gradb image v{FORMAT_VERSION}" in text
        assert parse_disassembly(text) == parse_disassembly(disassemble(code))

    def test_fresh_process_reproduces_the_run(self, tmp_path):
        """The acceptance criterion's 'reloaded in a fresh process' half."""
        code, ty = _compile(SQUARE)
        path = save_image(code, tmp_path / "square.gradb", static_type=ty)
        in_process = run_code(code)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(path), "--show-space"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"{in_process.python_value()!r} : {ty}" in proc.stdout
        assert f"steps={in_process.stats['steps']}" in proc.stdout


# ---------------------------------------------------------------------------
# Malformed images
# ---------------------------------------------------------------------------


class TestRejection:
    def _image_bytes(self) -> bytes:
        code, ty = _compile(SQUARE)
        return serialize_image(code, static_type=ty)

    def test_bad_magic(self):
        data = self._image_bytes()
        with pytest.raises(ImageError, match="magic"):
            deserialize_image(b"NOTANIMAGE" + data)

    def test_format_version_mismatch(self):
        data = self._image_bytes()
        assert data[len(GRADB_MAGIC)] == FORMAT_VERSION  # single-byte varint today
        patched = bytearray(data)
        patched[len(GRADB_MAGIC)] = FORMAT_VERSION + 1
        with pytest.raises(ImageError, match="version mismatch"):
            deserialize_image(bytes(patched))

    def test_opcode_fingerprint_mismatch(self):
        term, ty = compile_source(SQUARE)
        for ir in ("stack", "register"):
            image = compile_image(term, static_type=ty, ir=ir)
            data = bytearray(serialize_image(image.code, static_type=ty, ir=ir))
            # The version and the IR's length and name precede its fingerprint.
            offset = len(GRADB_MAGIC) + 2 + len(ir)
            assert data[offset - len(ir):offset] == ir.encode()
            data[offset] ^= 0xFF
            with pytest.raises(ImageError, match=f"opcode-set mismatch: the image's {ir} code"):
                deserialize_image(_recrc(bytes(data)))

    def test_truncation_at_every_section(self):
        data = self._image_bytes()
        for keep in (3, len(GRADB_MAGIC), 20, len(data) // 2, len(data) - 1):
            with pytest.raises(ImageError):
                deserialize_image(data[:keep])

    def test_corrupt_payload_fails_the_checksum(self):
        data = bytearray(self._image_bytes())
        data[len(data) // 2] ^= 0x55
        with pytest.raises(ImageError, match="checksum"):
            deserialize_image(bytes(data))

    def test_trailing_garbage_is_rejected(self):
        data = self._image_bytes()
        with pytest.raises(ImageError):
            deserialize_image(data + b"junk")

    def test_empty_and_non_image_files(self, tmp_path):
        empty = tmp_path / "empty.gradb"
        empty.write_bytes(b"")
        with pytest.raises(ImageError):
            load_image(empty)
        with pytest.raises(ImageError, match="cannot read"):
            load_image(tmp_path / "missing.gradb")

    def test_unknown_semantics_axis_is_rejected(self):
        # A checksum-valid image whose header names an enforcement semantics
        # this library does not know must fail on the axis, like the format
        # and opcode-set rejections above — not crash decoding the pool.
        data = self._image_bytes()
        needle = b"\x08coercion"  # varint length 8, then the semantics id
        assert data.count(needle) == 1
        patched = data.replace(needle, b"\x08wrapsome")
        with pytest.raises(ImageError, match="enforcement-semantics mismatch"):
            deserialize_image(_recrc(patched))

    def test_out_of_range_operand_is_rejected(self):
        # A checksum-valid image whose stream indexes outside its pool must
        # be caught by validation, not crash the VM mid-run.
        pool = ConstantPool()
        bogus = CodeObject("<main>", [(PUSH_CONST, 5)], pool, 0, 0, None, ())
        with pytest.raises(ImageError, match="out-of-range operand"):
            deserialize_image(serialize_image(bogus))

    # Each image below is built in memory, edited and serialized (the writer
    # does not validate), so it is checksum-valid and reaches the checks.

    def test_register_word_past_32_bits_is_rejected(self):
        rcode = compile_register_program(compile_source(SQUARE)[0])
        rcode.words = [2**32, *rcode.words[1:]]
        with pytest.raises(ImageError, match="malformed register section"):
            deserialize_image(_register_image(rcode))

    @pytest.mark.parametrize("edit", ["underflow", "off_the_end"])
    def test_broken_stack_discipline_is_rejected(self, edit):
        code, _ = _compile(SQUARE, opt_level=0)
        if edit == "underflow":
            code.instructions[0] = (CALL, 0)  # pops two values from an empty stack
            message = "operand-stack underflow"
        else:
            code.pool.codes[0].instructions.pop()  # λx's final RETURN
            message = "runs off its end"
        with pytest.raises(ImageError, match=message):
            deserialize_image(serialize_image(code))

    @pytest.mark.parametrize("edit", ["n_regs", "const_regs", "captures"])
    def test_too_small_callee_register_file_is_rejected(self, edit):
        # λx captures y in r0 and takes x in r1: two registers at least.
        term, _ = compile_source("(let ([y 5]) ((lambda ([x : int]) y) 1))")
        rcode = compile_register_program(term, opt_level=0)
        child = rcode.pool.rcodes[0]
        assert (child.n_free, child.n_regs) == (1, 2)
        message = "register file .* too small"
        if edit == "n_regs":
            child.n_regs = 1
        elif edit == "const_regs":
            child.const_regs = (0,)  # the argument's register, pinned
        else:  # the closure captures nothing: the call's frame comes up short
            words = list(rcode.words)
            assert words[3:8] == [R_CLOSURE, 1, 0, 1, 0]
            rcode.words = words[:6] + [0] + words[8:]
            message = "captures 0 values for 1 free variables"
        with pytest.raises(ImageError, match=message):
            deserialize_image(_register_image(rcode))

    def test_forged_frame_sizes_are_rejected(self):
        # A size no code could fill must not allocate its frame.
        term, _ = compile_source(SQUARE)
        rcode = compile_register_program(term)
        rcode.n_regs = 1 << 40
        with pytest.raises(ImageError, match="larger than its code"):
            deserialize_image(_register_image(rcode))
        code = compile_term(term)
        code.n_locals = 1 << 40
        with pytest.raises(ImageError, match="more locals than code"):
            deserialize_image(serialize_image(code))

    def test_truncated_source_list_is_rejected(self):
        # A CLOSURE cut off before its source-count word.
        rcode = compile_register_program(compile_source(SQUARE)[0])
        rcode.words = [*rcode.words, R_CLOSURE, 0, 0]
        with pytest.raises(ImageError, match="truncated register instruction"):
            deserialize_image(_register_image(rcode))

    def test_branch_target_inside_an_instruction_is_rejected(self):
        rcode = compile_register_program(compile_source(COUNTDOWN)[0])
        loop = rcode.pool.rcodes[0]
        assert list(loop.words[:5]) == [R_BR_PRIM2, 0, 1, 4, 10]
        loop.words = array("I", [*loop.words[:4], 11, *loop.words[5:]])  # into word 10's
        with pytest.raises(ImageError, match="branch target .* not an instruction"):
            deserialize_image(_register_image(rcode))

    def test_backward_branches_are_rejected(self):
        # The compiler branches forward only (loops are tail calls).
        rcode = compile_register_program(compile_source(COUNTDOWN)[0])
        loop = rcode.pool.rcodes[0]
        loop.words = array("I", [R_JUMP, 0, *loop.words])
        with pytest.raises(ImageError, match="backward branch"):
            deserialize_image(_register_image(rcode))
        code, _ = _compile(COUNTDOWN, opt_level=0)
        code.pool.codes[0].instructions.insert(0, (JUMP, 0))
        with pytest.raises(ImageError, match="backward branch"):
            deserialize_image(serialize_image(code))

    def test_stream_that_falls_off_its_end_is_rejected(self):
        term, _ = compile_source("(let ([y 5]) ((lambda ([x : int]) (* (+ x y) x)) 1))")
        rcode = compile_register_program(term, opt_level=0)
        callee = rcode.pool.rcodes[0]
        assert list(callee.words[-2:]) == [R_RETURN, 2]
        callee.words = callee.words[:-2]  # its final RETURN
        with pytest.raises(ImageError, match="falls off its end"):
            deserialize_image(_register_image(rcode))

    def test_a_register_read_before_it_is_written_is_rejected(self):
        # Returning a register no path has written would hand None to the
        # result: the hole a mutated image used to reach python_value by.
        rcode = compile_register_program(compile_source("(+ 1 2)")[0], opt_level=0)
        assert rcode.n_regs > rcode.n_free + 1
        rcode.words = array("I", [R_RETURN, 0])
        with pytest.raises(ImageError, match="r0 of '<main>' in image may be read before"):
            deserialize_image(_register_image(rcode))

    def test_a_local_loaded_before_it_is_stored_is_rejected(self):
        code, _ = _compile("(let ([y 5]) (+ y 1))", opt_level=0)
        assert code.n_locals == 1
        code.instructions = [(LOAD, 0), *code.instructions]
        with pytest.raises(ImageError, match="local 0 of '<main>' in image may be loaded"):
            deserialize_image(serialize_image(code))

    def test_an_operator_given_the_wrong_operand_count_is_rejected(self):
        rcode = compile_register_program(compile_source("(let ([y 5]) (+ y 1))")[0],
                                         opt_level=0)
        assert list(rcode.words) == [R_MOVE, 0, 2, R_PRIM2, 1, 0, 0, 3, R_RETURN, 1]
        # (+ y) as a unary instruction: + would be called with one operand.
        rcode.words = array("I", [R_MOVE, 0, 2, R_PRIM1, 1, 0, 0, R_RETURN, 1])
        with pytest.raises(ImageError, match="'\\+' in image applied to 1 operands"):
            deserialize_image(_register_image(rcode))

    @pytest.mark.parametrize("ir", ["stack", "register"])
    def test_a_type_entry_used_as_a_value_is_rejected(self, ir):
        # consts[0] is square's `fix` annotation, a bare type: pushed or
        # pinned, it would reach the run's result as a value.
        term, _ = compile_source(SQUARE)
        if ir == "stack":
            code = compile_term(term)
            assert not isinstance(code.pool.consts[0], MConst)
            code.instructions[code.instructions.index((PUSH_CONST, 1))] = (PUSH_CONST, 0)
        else:
            code = compile_register_program(term)
            assert not isinstance(code.pool.consts[0], MConst)
            code.const_regs = (0,)
        with pytest.raises(ImageError, match="is not a value"):
            deserialize_image(serialize_image(code, ir=ir))

    def test_code_objects_at_another_opt_level_are_rejected(self):
        # An -O0 entry with an -O2 child: the child would run with cache
        # cells against the entry's empty pool tables.
        code, _ = _compile(BLAME, opt_level=0)
        code.pool.codes[0].opt_level = 2
        with pytest.raises(ImageError, match="at -O2 in an -O0 image"):
            deserialize_image(serialize_image(code))
        rcode = compile_register_program(compile_source(BLAME)[0], opt_level=2)
        rcode.pool.rcodes[0].opt_level = 0
        with pytest.raises(ImageError, match="at -O0 in an -O2 image"):
            deserialize_image(_register_image(rcode))

    @pytest.mark.parametrize("name", BOUNDARY_LOOPS)
    def test_fused_instructions_below_o2_are_rejected(self, name):
        # Fused register instructions read their inline-cache cells, which
        # code below -O2 does not have: each of these images passed the old
        # checks and then failed mid-run.
        with pytest.raises(ImageError, match="fused register instruction .* in -O0 code"):
            deserialize_image(_crafted_image(BOUNDARY_LOOPS[name]))

    def test_rejected_images_are_one_error_line_from_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        v3 = _register_image(compile_register_program(BOUNDARY_LOOPS["even_odd"]))
        v2 = _recrc(GRADB_MAGIC + bytes([2]) + v3[len(GRADB_MAGIC) + 1:])
        for name, data in (("v2", v2), ("crafted", _crafted_image(BOUNDARY_LOOPS["even_odd"]))):
            path = tmp_path / f"{name}.gradb"
            path.write_bytes(data)
            assert main(["run", str(path)]) == 2, name
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error:"), (name, err)


# ---------------------------------------------------------------------------
# The compile cache
# ---------------------------------------------------------------------------


class TestCompileCache:
    def test_miss_then_hit(self, tmp_path):
        cache_dir = tmp_path / "cache"
        term, ty = compile_source(SQUARE)
        first = cached_compile(term, static_type=ty, cache_dir=cache_dir)
        assert first.status == "miss"
        assert first.path.exists()
        second = cached_compile(term, static_type=ty, cache_dir=cache_dir)
        assert second.status == "hit"
        assert second.path == first.path
        assert disassemble(second.image.code) == disassemble(first.image.code)
        _assert_same_outcome(run_code(first.image.code), run_code(second.image.code))

    def test_key_separates_opt_level_and_mediator(self, tmp_path):
        term, ty = compile_source(SQUARE)
        paths = {
            cached_compile(term, static_type=ty, semantics=semantics,
                           opt_level=opt_level, cache_dir=tmp_path).path
            for semantics in NATURAL_SEMANTICS_NAMES
            for opt_level in (0, 2)
        }
        assert len(paths) == 4

    def test_corrupt_entry_is_recovered(self, tmp_path):
        term, ty = compile_source(SQUARE)
        first = cached_compile(term, static_type=ty, cache_dir=tmp_path)
        # Truncate the stored entry, then corrupt it outright.
        first.path.write_bytes(first.path.read_bytes()[:-7])
        recovered = cached_compile(term, static_type=ty, cache_dir=tmp_path)
        assert recovered.status == "recovered"
        assert cached_compile(term, static_type=ty, cache_dir=tmp_path).status == "hit"
        first.path.write_bytes(b"\x00garbage\xff" * 5)
        assert cached_compile(term, static_type=ty, cache_dir=tmp_path).status == "recovered"
        _assert_same_outcome(
            run_code(recovered.image.code),
            run_code(compile_term(term)),
        )

    def test_entry_that_fails_validation_is_recovered(self, tmp_path):
        # The cache directory is not trusted: a checksum-valid entry that
        # fails validation is deleted and recompiled, like a corrupt one.
        term = BOUNDARY_LOOPS["typed_loop_untyped_step"]
        first = cached_compile(term, cache_dir=tmp_path, ir="register")
        first.path.write_bytes(_crafted_image(term))
        recovered = cached_compile(term, cache_dir=tmp_path, ir="register")
        assert recovered.status == "recovered"
        _assert_same_outcome(run_rcode(recovered.image.code), run_rcode(first.image.code))
        assert cached_compile(term, cache_dir=tmp_path, ir="register").status == "hit"

    def test_loading_an_entry_is_its_own_phase(self, tmp_path):
        from repro.obs import MetricsRegistry

        phases = []
        for _ in range(2):
            metrics = MetricsRegistry()
            api.run(SQUARE, engine="rvm", cache=True, cache_dir=str(tmp_path), metrics=metrics)
            phases.append(set(metrics.snapshot()["phases"]))
        miss, hit = phases
        # A miss compiles and stores; a hit loads, and compiles nothing.
        assert {"lower", "cache"} <= miss and "load" not in miss
        assert "load" in hit and not {"lower", "cache"} & hit

    def test_run_source_hit_equals_miss(self, tmp_path):
        """Cache-hit and cache-miss runs are indistinguishable in RunResult."""
        for source in (SQUARE, BLAME):
            cold = api.run(source, engine="vm", cache=True, cache_dir=str(tmp_path))
            warm = api.run(source, engine="vm", cache=True, cache_dir=str(tmp_path))
            assert cold.kind == warm.kind
            assert cold.value == warm.value
            assert cold.blame_label == warm.blame_label
            assert str(cold.type) == str(warm.type)
            assert cold.steps == warm.steps
            assert cold.space_stats == warm.space_stats
        timeout = api.run(SPIN, engine="vm", cache=True, cache_dir=str(tmp_path),
                             fuel=5_000)
        assert timeout.is_timeout and timeout.steps == 5_000

    def test_warm_run_skips_the_front_end(self, tmp_path, monkeypatch):
        """A warm-cache run must not parse, elaborate, lower, or optimize."""
        api.run(SQUARE, engine="vm", cache=True, cache_dir=str(tmp_path))

        import repro.surface.interp as interp

        def explode(*_args, **_kwargs):  # pragma: no cover - the point is no call
            raise AssertionError("the warm path re-entered the front end")

        import repro.compiler.vm as vm

        monkeypatch.setattr(interp, "compile_source", explode)
        monkeypatch.setattr(vm, "compile_term", explode)
        warm = api.run(SQUARE, engine="vm", cache=True, cache_dir=str(tmp_path))
        assert warm.is_value and warm.value == 36

    def test_cache_respects_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRADUAL_CACHE_DIR", str(tmp_path / "via-env"))
        result = api.run(SQUARE, engine="vm", cache=True)
        assert result.is_value
        stored = list((tmp_path / "via-env").rglob("*.gradb"))
        assert len(stored) == 1
        assert stored[0] == cache_path(source_fingerprint(SQUARE), 2, "coercion")


# ---------------------------------------------------------------------------
# The hypothesis property
# ---------------------------------------------------------------------------


class TestRoundTripProperty:
    @given(lambda_b_programs())
    @settings(max_examples=40, deadline=None)
    def test_save_load_run_agrees_with_in_memory_run(self, program):
        """compile → save → load → run agrees with the in-memory run on
        outcome, blame, steps, and space profile, under both mediators at
        -O0 and -O2."""
        term, ty = program
        for semantics in NATURAL_SEMANTICS_NAMES:
            for opt_level in (0, 2):
                code = compile_term(term, semantics=semantics, opt_level=opt_level)
                data = serialize_image(code, static_type=ty)
                image = deserialize_image(data)
                assert disassemble(image.code) == disassemble(code), (semantics, opt_level)
                _assert_same_outcome(run_code(code), run_code(image.code))


#: Programs whose images the mutation property edits: a value, blame, a
#: loop, and a closure.
_MUTATED_SOURCES = (SQUARE, BLAME, COUNTDOWN,
                    "(let ([y 5]) ((lambda ([x : int]) (* (+ x y) x)) 1))")


@functools.lru_cache(maxsize=None)
def _images_to_mutate() -> tuple[bytes, ...]:
    images = []
    for source in _MUTATED_SOURCES:
        term, ty = compile_source(source)
        for ir in ("stack", "register"):
            for semantics in SEMANTICS_NAMES:
                for level in (0, 2):
                    image = compile_image(term, "", ty, semantics, level, ir)
                    images.append(serialize_image(image.code, "", ty, ir))
    return tuple(images)


@st.composite
def mutated_images(draw) -> bytes:
    """A valid image of either IR under any semantics with one to three
    bytes set, flipped, deleted or inserted, and its checksum recomputed."""
    images = _images_to_mutate()
    data = bytearray(images[draw(st.integers(0, len(images) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data) - 5))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(["set", "flip", "delete", "insert"]))
        if edit == "set":
            data[pos] = byte
        elif edit == "flip":
            data[pos] ^= 1 << (byte % 8)
        elif edit == "delete":
            del data[pos]
        else:
            data.insert(pos, byte)
    return _recrc(bytes(data))


def _outcome(data: bytes) -> tuple:
    try:
        result = api.run_image(deserialize_image(data), fuel=2_000)
    except ReproError as exc:  # a typed error: say, an operand of the wrong type
        return ("error", str(exc))
    return (result.kind, repr(result.value), str(result.blame_label), result.steps)


class TestMutationProperty:
    @given(mutated_images())
    @settings(max_examples=500, deadline=None)
    def test_mutated_bytes_are_rejected_or_run_to_an_outcome(self, data):
        """Bytes from another process, edited: every load either raises
        ``ImageError`` or gives a program that runs to a structured outcome
        (a value, blame, a timeout or a typed error) — the same outcome
        each time the bytes are loaded — and never raises anything else."""
        try:
            deserialize_image(data)
        except ImageError:
            return
        assert _outcome(data) == _outcome(data)
