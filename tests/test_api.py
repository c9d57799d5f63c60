"""Tests for :mod:`repro.api` — the single run-configuration surface.

Every entrypoint (CLI run, batch, serve, experiment driver) resolves its
knobs through :func:`repro.api.resolve_config` and executes through
:func:`repro.api.run`.  These tests pin the resolution rules, the result
metadata (``RunResult.config`` / ``semantics`` / ``cache_status``), and the
rejection of the retired ``mediator`` spelling at the wire protocol.
"""

from __future__ import annotations

import pytest

from repro.api import (
    DEFAULT_FUEL,
    RunConfig,
    RunResult,
    resolve_config,
    run,
)
from repro.core.errors import UsageError

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config()
        assert cfg.engine == "machine"
        assert cfg.semantics == "coercion"
        assert cfg.calculus == "S"
        assert cfg.fuel == DEFAULT_FUEL["machine"]

    def test_overrides_on_existing_config(self):
        base = RunConfig(engine="vm")
        cfg = resolve_config(base, semantics="threesome")
        assert cfg.engine == "vm"
        assert cfg.semantics == "threesome"
        assert cfg.ir == "stack"
        assert cfg.fuel == DEFAULT_FUEL["vm"]

    def test_rvm_gets_register_ir(self):
        cfg = resolve_config(engine="rvm")
        assert cfg.ir == "register"

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_config(engine="jit")

    def test_unknown_semantics(self):
        with pytest.raises(UsageError, match="unknown"):
            resolve_config(semantics="laissez-faire")

    def test_unknown_opt_level(self):
        with pytest.raises(UsageError):
            resolve_config(engine="vm", opt_level=9)

    def test_vm_requires_calculus_s(self):
        with pytest.raises(UsageError):
            resolve_config(engine="vm", calculus="B")

    def test_calculus_is_uppercased(self):
        assert resolve_config(engine="machine", calculus="b").calculus == "B"

    def test_subst_requires_coercion(self):
        with pytest.raises(UsageError):
            resolve_config(engine="subst", semantics="threesome")

    def test_cache_narrowed_to_vm_engines(self):
        assert resolve_config(engine="machine", cache=True).cache is False
        assert resolve_config(engine="vm", cache=True).cache is True

    def test_frozen(self):
        with pytest.raises(Exception):
            resolve_config().engine = "vm"  # type: ignore[misc]

    def test_describe_is_json_ready(self):
        import json

        json.dumps(resolve_config(engine="vm").describe())

    def test_none_overrides_use_the_defaults(self):
        assert resolve_config(opt_level=None, semantics=None) == resolve_config()
        cfg = resolve_config(RunConfig(engine="vm", semantics="threesome"),
                             semantics=None, opt_level=None, fuel=None, calculus=None)
        assert cfg.semantics == "threesome"
        assert cfg.opt_level == 2
        assert cfg.fuel == DEFAULT_FUEL["vm"]


class TestRun:
    def test_source_through_default_engine(self):
        result = run(SQUARE)
        assert isinstance(result, RunResult)
        assert result.is_value and result.value == 36

    def test_result_carries_resolved_config(self):
        result = run(SQUARE, engine="vm", semantics="threesome")
        cfg = result.config
        assert cfg is not None
        assert cfg.engine == "vm"
        assert cfg.semantics == "threesome"
        assert cfg.ir == "stack"
        assert cfg.fuel == DEFAULT_FUEL["vm"]

    def test_blame_path(self):
        result = run(BLAME, engine="vm")
        assert result.is_blame
        assert "@" in str(result.blame_label)

    def test_explicit_config_object(self):
        result = run(SQUARE, RunConfig(engine="rvm"))
        assert result.is_value and result.value == 36
        assert result.config.engine == "rvm"

    def test_cache_status_roundtrip(self, tmp_path):
        cfg = RunConfig(engine="vm", cache=True, cache_dir=str(tmp_path))
        cold = run(SQUARE, cfg)
        warm = run(SQUARE, cfg)
        assert cold.cache_status == "miss"
        assert warm.cache_status == "hit"

    def test_cache_off_status(self):
        assert run(SQUARE, engine="vm", cache=False).cache_status is None

    def test_rejects_non_program_input(self):
        with pytest.raises(TypeError):
            run(42)  # type: ignore[arg-type]

    def test_all_engines_agree(self):
        values = {
            engine: run(SQUARE, engine=engine, cache=False).value
            for engine in ("vm", "rvm", "machine", "subst")
        }
        assert set(values.values()) == {36}

    @pytest.mark.parametrize("engine", ["vm", "rvm", "machine", "subst"])
    def test_semantics_round_trips_on_every_engine(self, engine):
        names = ["coercion"] if engine == "subst" else ["coercion", "threesome",
                                                        "transient", "erasure"]
        for semantics in names:
            result = run(SQUARE, RunConfig(engine=engine, semantics=semantics))
            assert result.semantics == semantics == result.config.semantics
            assert result.is_value and result.value == 36

    @pytest.mark.parametrize("engine", ["vm", "rvm"])
    def test_corrupt_cache_entry_is_recovered(self, engine, tmp_path):
        from repro.compiler.cache import cache_path
        from repro.compiler.serialize import source_fingerprint

        cfg = RunConfig(engine=engine, cache=True, cache_dir=str(tmp_path))
        assert run(SQUARE, cfg).cache_status == "miss"
        entry = cache_path(source_fingerprint(SQUARE), 2, "coercion", tmp_path,
                           resolve_config(cfg).ir)
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF  # break the CRC trailer
        entry.write_bytes(bytes(data))
        recovered = run(SQUARE, cfg)
        assert recovered.cache_status == "recovered"
        assert recovered.is_value and recovered.value == 36
        assert run(SQUARE, cfg).cache_status == "hit"


class TestServeValidationSharesPath:
    def test_bad_semantics_rejected(self):
        from repro.serve.protocol import normalize_run_request

        defaults = {
            "semantics": "coercion", "opt_level": 2, "engine": "vm",
            "fuel": None, "deadline_s": None, "cache_dir": None,
            "use_cache": False,
        }
        with pytest.raises(ValueError, match="unknown"):
            normalize_run_request(
                {"source": SQUARE, "semantics": "laissez-faire"}, defaults
            )

    def test_legacy_mediator_key_is_rejected(self):
        from repro.serve.protocol import normalize_run_request

        defaults = {
            "semantics": "coercion", "opt_level": 2, "engine": "vm",
            "fuel": None, "deadline_s": None, "cache_dir": None,
            "use_cache": False,
        }
        with pytest.raises(ValueError, match="'semantics'"):
            normalize_run_request(
                {"source": SQUARE, "mediator": "threesome"}, defaults
            )
