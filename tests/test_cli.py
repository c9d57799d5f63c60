"""Tests for the ``repro-gradual`` command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"


@pytest.fixture
def square_program(tmp_path: Path) -> str:
    path = tmp_path / "square.grad"
    path.write_text("(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n")
    return str(path)


@pytest.fixture
def blame_program(tmp_path: Path) -> str:
    path = tmp_path / "blame.grad"
    path.write_text("(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n")
    return str(path)


@pytest.fixture
def ill_typed_program(tmp_path: Path) -> str:
    path = tmp_path / "bad.grad"
    path.write_text("(+ 1 #t)\n")
    return str(path)


@pytest.fixture
def unparsable_program(tmp_path: Path) -> str:
    path = tmp_path / "unparsable.grad"
    path.write_text("(define (f\n")
    return str(path)


@pytest.fixture
def diverging_program(tmp_path: Path) -> str:
    path = tmp_path / "loop.grad"
    path.write_text("(define (spin [n : int]) : int (spin n))\n(spin 0)\n")
    return str(path)


class TestRunCommand:
    def test_run_converging_program(self, square_program, capsys):
        assert main(["run", square_program]) == 0
        out = capsys.readouterr().out
        assert "36" in out

    def test_run_on_each_calculus(self, square_program, capsys):
        for calculus in ("B", "C", "S"):
            assert main(["run", square_program, "--calculus", calculus]) == 0
        assert "36" in capsys.readouterr().out

    def test_run_small_step_backend(self, square_program, capsys):
        assert main(["run", square_program, "--small-step"]) == 0
        assert "36" in capsys.readouterr().out

    def test_run_vm_engine(self, square_program, capsys):
        assert main(["run", square_program, "--engine", "vm"]) == 0
        assert "36" in capsys.readouterr().out

    def test_run_vm_engine_show_space(self, square_program, capsys):
        assert main(["run", square_program, "--engine", "vm", "--show-space"]) == 0
        assert "pending-mediators" in capsys.readouterr().out

    def test_run_vm_engine_reports_blame(self, blame_program, capsys):
        assert main(["run", blame_program, "--engine", "vm"]) == 1
        assert "blame" in capsys.readouterr().out

    def test_run_vm_engine_rejects_non_s_calculus(self, square_program, capsys):
        assert main(["run", square_program, "--engine", "vm", "--calculus", "B"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["0", "1", "2"])
    def test_run_vm_engine_opt_levels_agree(self, square_program, level, capsys):
        assert main(["run", square_program, "--engine", "vm", "-O", level]) == 0
        assert "36" in capsys.readouterr().out

    def test_opt_level_flag_spelled_out(self, square_program, capsys):
        assert main(["run", square_program, "--engine", "vm", "--opt-level", "0"]) == 0
        assert "36" in capsys.readouterr().out

    def test_compile_opt_levels_round_trip(self, square_program, capsys):
        from repro.compiler.disasm import parse_disassembly

        streams = {}
        for level in ("0", "2"):
            assert main(["compile", square_program, "-O", level]) == 0
            streams[level] = parse_disassembly(capsys.readouterr().out)
        assert streams["0"] and streams["2"]
        # -O2 must have rewritten something on this program (it has casts).
        assert streams["0"] != streams["2"]

    def test_run_blaming_program_returns_nonzero(self, blame_program, capsys):
        assert main(["run", blame_program]) == 1
        assert "blame" in capsys.readouterr().out

    def test_show_space(self, square_program, capsys):
        assert main(["run", square_program, "--show-space"]) == 0
        out = capsys.readouterr().out
        assert "pending-mediators" in out

    def test_missing_file_is_reported(self, capsys):
        assert main(["run", "no-such-file.grad"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_static_error_is_reported(self, ill_typed_program, capsys):
        assert main(["run", ill_typed_program]) == 2
        err = capsys.readouterr().err
        assert "static type error" in err
        assert "1:1" in err  # the diagnostic carries the source location

    def test_parse_error_is_reported_with_location(self, unparsable_program, capsys):
        assert main(["run", unparsable_program]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "line" in err


class TestExitCodeScheme:
    """0 value, 1 blame, 2 static/parse error, 3 timeout — on every engine."""

    @pytest.mark.parametrize("engine", ["machine", "vm", "subst"])
    def test_value_exits_zero(self, square_program, engine, capsys):
        assert main(["run", square_program, "--engine", engine]) == 0
        assert "36" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["machine", "vm", "subst"])
    def test_blame_exits_one(self, blame_program, engine, capsys):
        assert main(["run", blame_program, "--engine", engine]) == 1
        assert "blame" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["machine", "vm", "subst"])
    def test_timeout_exits_three(self, diverging_program, engine, capsys):
        assert main(["run", diverging_program, "--engine", engine, "--fuel", "5000"]) == 3
        assert "timeout" in capsys.readouterr().out

    def test_blame_and_timeout_are_distinct(self, blame_program, diverging_program, capsys):
        # Regression: both used to exit 1, so scripts could not tell a
        # contract violation from fuel exhaustion.
        blame_code = main(["run", blame_program])
        timeout_code = main(["run", diverging_program, "--fuel", "5000"])
        capsys.readouterr()
        assert blame_code == 1
        assert timeout_code == 3

    def test_static_errors_exit_two(self, ill_typed_program, unparsable_program, capsys):
        assert main(["run", ill_typed_program]) == 2
        assert main(["run", unparsable_program]) == 2
        assert main(["run", "missing.grad"]) == 2
        capsys.readouterr()


class TestMediatorFlag:
    """The threesome mediator backend, selected with ``--semantics``."""

    @pytest.mark.parametrize("engine", ["machine", "vm"])
    def test_threesome_backend_runs_values(self, square_program, engine, capsys):
        assert main(["run", square_program, "--engine", engine,
                     "--semantics", "threesome"]) == 0
        assert "36" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["machine", "vm"])
    def test_threesome_backend_reports_blame(self, blame_program, engine, capsys):
        assert main(["run", blame_program, "--engine", engine,
                     "--semantics", "threesome"]) == 1
        assert "blame" in capsys.readouterr().out

    def test_threesome_backend_preserves_the_space_story(self, capsys):
        assert main(["run", str(EXAMPLES / "tail_loop.grad"),
                     "--semantics", "threesome", "--show-space"]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "pending-mediators" in ln][0]
        assert "max=1" in line or "max=2" in line or "max=3" in line

    def test_threesome_backend_rejects_non_s_calculus(self, square_program, capsys):
        assert main(["run", square_program, "--semantics", "threesome",
                     "--calculus", "B"]) == 2
        assert "error" in capsys.readouterr().err

    def test_threesome_backend_rejects_subst_engine(self, square_program, capsys):
        assert main(["run", square_program, "--semantics", "threesome",
                     "--engine", "subst"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_with_threesome_pool(self, square_program, capsys):
        assert main(["compile", square_program, "--semantics", "threesome"]) == 0
        out = capsys.readouterr().out
        assert "pool coercions" in out
        assert "<=" in out  # threesome entries print as <T <=P= S>

    def test_compile_threesome_disassembly_round_trips(self, square_program, capsys):
        from repro.compiler.disasm import parse_disassembly

        assert main(["compile", square_program, "--semantics", "threesome"]) == 0
        streams = parse_disassembly(capsys.readouterr().out)
        assert streams and all(streams)


class TestSemanticsFlag:
    @pytest.mark.parametrize("engine", ["machine", "vm", "rvm"])
    @pytest.mark.parametrize(
        "semantics", ["coercion", "threesome", "transient", "erasure"]
    )
    def test_every_semantics_runs_values(self, square_program, engine, semantics,
                                         capsys):
        assert main(["run", square_program, "--engine", engine,
                     "--semantics", semantics]) == 0
        assert "36" in capsys.readouterr().out

    def test_transient_blames_first_order_projections(self, tmp_path, capsys):
        # A bad base-type projection is a tag check transient does run; the
        # deep result obligation in blame_program, by contrast, is dropped
        # by design (see test_transient_drops_higher_order_obligations).
        path = tmp_path / "bad_ascription.grad"
        path.write_text("(: (: 21 ?) bool)\n")
        assert main(["run", str(path), "--semantics", "transient"]) == 1
        assert "blame" in capsys.readouterr().out

    def test_transient_drops_higher_order_obligations(self, blame_program, capsys):
        # Natural blames the int result coercion; transient keeps no proxy,
        # so the raw #t flows into + and the program computes 1 + #t = 2.
        assert main(["run", blame_program, "--semantics", "transient"]) == 0
        assert "2" in capsys.readouterr().out

    def test_erasure_never_exits_one(self, blame_program, capsys):
        # The elided boundary lets the raw #t reach +, which computes on it:
        # erasure trades the blame exit for an unchecked answer.
        assert main(["run", blame_program, "--semantics", "erasure"]) == 0
        out = capsys.readouterr().out
        assert "blame" not in out
        assert "2" in out

    @pytest.mark.parametrize("command", ["run", "trace", "compile"])
    def test_mediator_flag_is_rejected(self, square_program, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, square_program, "--mediator", "threesome"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mediator" in capsys.readouterr().err

    def test_semantics_flag_does_not_warn(self, square_program, capsys):
        assert main(["run", square_program, "--semantics", "threesome"]) == 0
        assert "deprecated" not in capsys.readouterr().err

    def test_contradicting_flags_are_rejected(self, square_program, capsys):
        # The VMs implement λS only, whatever the semantics.
        assert main(["run", square_program, "--semantics", "threesome",
                     "--engine", "rvm", "--calculus", "C"]) == 2
        assert "λS only" in capsys.readouterr().err

    def test_compile_accepts_semantics(self, square_program, capsys):
        assert main(["compile", square_program, "--semantics", "transient"]) == 0
        assert "pool coercions" in capsys.readouterr().out

    def test_batch_accepts_semantics(self, square_program, capsys):
        assert main(["batch", square_program, "--semantics", "erasure"]) == 0
        capsys.readouterr()


class TestOtherCommands:
    def test_check_well_typed(self, square_program, capsys):
        assert main(["check", square_program]) == 0
        assert "well typed" in capsys.readouterr().out

    def test_check_ill_typed(self, ill_typed_program, capsys):
        # Static errors exit 2 under the uniform exit-code scheme.
        assert main(["check", ill_typed_program]) == 2
        assert "static type error" in capsys.readouterr().err

    def test_translate_to_each_calculus(self, square_program, capsys):
        assert main(["translate", square_program, "--to", "b"]) == 0
        assert "=>" in capsys.readouterr().out
        assert main(["translate", square_program, "--to", "c"]) == 0
        assert "<" in capsys.readouterr().out
        assert main(["translate", square_program, "--to", "s"]) == 0
        assert "<" in capsys.readouterr().out

    def test_compile_prints_disassembly(self, square_program, capsys):
        assert main(["compile", square_program]) == 0
        out = capsys.readouterr().out
        assert "code 0 <main>" in out
        assert "pool" in out
        assert "TAILCALL" in out or "CALL" in out

    def test_compile_disassembly_round_trips(self, square_program, capsys):
        from repro.compiler.disasm import parse_disassembly

        assert main(["compile", square_program]) == 0
        streams = parse_disassembly(capsys.readouterr().out)
        assert streams and all(streams)

    def test_space_experiment(self, capsys):
        assert main(["space", "30"]) == 0
        out = capsys.readouterr().out
        assert "calculus" in out and " B " not in ""  # table printed
        assert "31" in out  # λB pending frames for n=30

    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestImageWorkflow:
    """``compile -o IMAGE`` → ``run IMAGE`` → ``compile IMAGE``, plus the
    compile-cache flags — the CLI surface of the ``.gradb`` format."""

    def test_compile_to_image_then_run(self, square_program, tmp_path, capsys):
        image = str(tmp_path / "square.gradb")
        assert main(["compile", square_program, "-o", image]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["run", image]) == 0
        assert "36 : int" in capsys.readouterr().out

    def test_run_image_reports_blame_and_space(self, blame_program, tmp_path, capsys):
        image = str(tmp_path / "blame.gradb")
        assert main(["compile", blame_program, "-o", image]) == 0
        capsys.readouterr()
        assert main(["run", image, "--show-space"]) == 1
        out = capsys.readouterr().out
        assert "blame" in out and "pending-mediators" in out

    def test_run_image_timeout_exits_three(self, diverging_program, tmp_path, capsys):
        image = str(tmp_path / "loop.gradb")
        assert main(["compile", diverging_program, "-o", image]) == 0
        assert main(["run", image, "--fuel", "5000"]) == 3

    def test_compile_shows_image_provenance(self, square_program, tmp_path, capsys):
        image = str(tmp_path / "square.gradb")
        assert main(["compile", square_program, "-o", image, "--semantics", "threesome",
                     "-O", "1"]) == 0
        capsys.readouterr()
        assert main(["compile", image]) == 0
        out = capsys.readouterr().out
        assert "semantics=threesome opt-level=1" in out
        assert "code 0 <main>" in out

    def test_image_rejects_flags_fixed_at_compile_time(self, square_program, tmp_path,
                                                       capsys):
        # Regression: --engine/--calculus/--semantics/-O/--small-step used
        # to be silently ignored when FILE was an image.
        image = str(tmp_path / "square.gradb")
        assert main(["compile", square_program, "-o", image]) == 0
        capsys.readouterr()
        for flags in (["--engine", "machine"], ["--engine", "subst"],
                      ["--calculus", "B"], ["--semantics", "threesome"],
                      ["-O", "0"], ["--small-step"]):
            assert main(["run", image, *flags]) == 2, flags
            assert "compile time" in capsys.readouterr().err
        # --engine vm, --fuel, --show-space, --no-cache remain compatible.
        assert main(["run", image, "--engine", "vm", "--fuel", "9999",
                     "--no-cache", "--show-space"]) == 0

    def test_compile_image_with_output_is_rejected(self, square_program, tmp_path,
                                                   capsys):
        image = str(tmp_path / "square.gradb")
        assert main(["compile", square_program, "-o", image]) == 0
        capsys.readouterr()
        assert main(["compile", image, "-o", str(tmp_path / "copy.gradb")]) == 2
        assert "already a compiled image" in capsys.readouterr().err

    def test_corrupt_image_is_a_static_error(self, tmp_path, capsys):
        image = tmp_path / "broken.gradb"
        image.write_bytes(b"GRADB\x00 definitely not a payload")
        assert main(["run", str(image)]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_cache_flag_still_runs(self, square_program, capsys):
        assert main(["run", square_program, "--engine", "vm", "--no-cache"]) == 0
        assert "36" in capsys.readouterr().out

    def test_cached_and_uncached_runs_agree(self, square_program, capsys):
        assert main(["run", square_program, "--engine", "vm"]) == 0
        first = capsys.readouterr().out
        assert main(["run", square_program, "--engine", "vm"]) == 0  # warm
        second = capsys.readouterr().out
        assert main(["run", square_program, "--engine", "vm", "--no-cache"]) == 0
        third = capsys.readouterr().out
        assert first == second == third


class TestShippedExamplePrograms:
    def test_square_example(self, capsys):
        assert main(["run", str(EXAMPLES / "square.grad")]) == 0
        assert "49" in capsys.readouterr().out

    def test_blame_example(self, capsys):
        assert main(["run", str(EXAMPLES / "boundary_blame.grad")]) == 1
        assert "blame" in capsys.readouterr().out

    def test_tail_loop_example_is_space_bounded_on_s(self, capsys):
        assert main(["run", str(EXAMPLES / "tail_loop.grad"), "--calculus", "S", "--show-space"]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "pending-mediators" in ln][0]
        assert "max=2" in line or "max=1" in line or "max=3" in line
