"""The one front door for running gradual programs: ``RunConfig`` in, ``RunResult`` out.

Every execution entrypoint in the repo — ``repro-gradual run``, the batch
runner, the serve protocol, and the experiment driver — builds on the
functions here:

* :func:`resolve_config` — the single validation path for the run knobs
  (engine, enforcement semantics, calculus, optimizer level, fuel, cache).
  It returns a *fully resolved* :class:`RunConfig`: the engine actually
  selected, the effective fuel, the IR the compiled engines will execute,
  and ``cache`` normalized to whether the run can actually cache.  Invalid
  combinations fail here, identically, no matter which entrypoint was used,
  as a :class:`~repro.core.errors.UsageError`.
* :func:`run` — the façade: ``run(source_or_term, config)`` executes a
  surface program (a ``str``) or an elaborated λB term on the resolved
  configuration and returns a :class:`RunResult` that *carries* that
  configuration (plus the compile-cache status), so every record downstream
  is self-describing.
* :func:`run_image` — runs an already-compiled ``.gradb`` image on the
  engine its IR fixes; :func:`run`, the CLI, the serve pool and the batch
  runner all execute compiled code through it.
* :meth:`RunResult.describe` and :func:`error_record` — the JSON-ready
  record of a run that ended, or raised: what serve answers, batch prints
  and the experiment follows, built here once for every front door.

Backends are a triple of knobs:

* ``engine`` — ``"vm"`` (the stack bytecode VM), ``"rvm"`` (the register
  VM: packed-stream dispatch, the fastest engine), ``"machine"`` (the CEK
  machine, the default and the oracle for both VMs), or ``"subst"`` (the
  paper-faithful substitution reducers of Figures 1, 3 and 5);
* ``calculus`` — ``"B"``, ``"C"``, or ``"S"``: which calculus the elaborated
  program is translated into (the VMs support ``"S"`` only);
* ``semantics`` — the *enforcement semantics* the λS machine and the VMs
  run casts under, any entry of the :data:`~repro.semantics.SEMANTICS`
  registry: ``"coercion"`` (default, Natural via canonical coercions merged
  with ``#``), ``"threesome"`` (Natural via labeled types, §6.1, merged
  with ``∘``), ``"transient"`` (shallow tag checks; blame may diverge from
  Natural), or ``"erasure"`` (no enforcement, never blames).  The two
  Natural backends are observationally equivalent
  (``repro.properties.bisimulation.check_oracle_matrix``); the substitution
  oracle reduces coercion terms literally and supports only ``"coercion"``.

Fuel exhaustion is reported uniformly: every engine yields
``RunResult(kind="timeout", steps=<fuel spent>)`` (the step *units* differ
by engine: machine transitions, VM instructions, reduction steps).

Example::

    from repro.api import RunConfig, run

    cfg = RunConfig(engine="vm", semantics="threesome", opt_level=2)
    result = run("((lambda ([x : int]) (* x x)) 6)", cfg)
    assert result.value == 36 and result.semantics == "threesome"
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .compiler.opt import DEFAULT_OPT_LEVEL, OPT_LEVELS
from .core.errors import EvaluationError, ReproError, UsageError
from .core.fuel import (
    DEFAULT_MACHINE_FUEL,
    DEFAULT_RVM_FUEL,
    DEFAULT_SUBST_FUEL,
    DEFAULT_VM_FUEL,
)
from .core.labels import Label
from .core.terms import Const, Fix, Lam, Pair, Term, erase
from .core.types import Type
from .lambda_b import reduction as reduction_b
from .lambda_c import reduction as reduction_c
from .lambda_s import reduction as reduction_s
from .machine import run_on_machine
from .machine.values import json_value, repr_value
from .obs.metrics import phase, record_run
from .semantics import SEMANTICS_NAMES
from .translate import b_to_c, c_to_s

#: The four execution engines: the stack bytecode VM, the register VM
#: (packed-stream dispatch over the register IR — the fastest engine), the
#: CEK machine, and the substitution-based reference oracle.
#: :data:`~repro.semantics.SEMANTICS_NAMES` is the second axis: the
#: enforcement semantics of the λS machine and both VMs.
ENGINES = ("vm", "rvm", "machine", "subst")

#: The two compiled engines: λS only, ``opt_level`` applies, cacheable.
#: The worker pool runs these only (:func:`repro.serve.pool.pool_job`).
VM_ENGINES = ("vm", "rvm")

#: The three calculi: λB, λC, and the space-efficient λS.
CALCULI = ("B", "C", "S")

#: Default fuel per engine, in that engine's own step unit.  All four come
#: from :mod:`repro.core.fuel`, the single source of fuel defaults.
DEFAULT_FUEL = {
    "vm": DEFAULT_VM_FUEL,
    "rvm": DEFAULT_RVM_FUEL,
    "machine": DEFAULT_MACHINE_FUEL,
    "subst": DEFAULT_SUBST_FUEL,
}

#: The instruction representation each compiled engine executes; the tree
#: interpreters have none.
IR_FOR_ENGINE = {"vm": "stack", "rvm": "register"}

#: The engine a compiled image runs on: its IR fixes it.
ENGINE_FOR_IR = {ir: engine for engine, ir in IR_FOR_ENGINE.items()}


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one program run, as a frozen value.

    ``engine`` × ``semantics`` × ``calculus`` select the backend (see the
    module docstring for the matrix);
    ``opt_level`` is the bytecode optimizer's ``-O`` level; ``fuel`` is the
    step budget (``None`` = the engine's default, filled in by
    :func:`resolve_config`); ``cache``/``cache_dir`` route compiled engines
    through the on-disk compile cache; ``ir`` names the compiled
    instruction representation (derived from the engine when ``None``);
    ``trace`` is a mediator-event sink — or a path to write JSON lines to —
    active for the duration of the run; ``metrics`` is a
    :class:`~repro.obs.metrics.MetricsRegistry` collecting phase timings
    and outcome counters.

    Instances are immutable; derive variants with ``dataclasses.replace``.
    """

    engine: str = "machine"
    semantics: str = "coercion"
    calculus: str = "S"
    opt_level: int = DEFAULT_OPT_LEVEL
    fuel: int | None = None
    cache: bool = False
    cache_dir: str | None = None
    ir: str | None = None
    trace: object = None
    metrics: object = None

    def describe(self) -> dict:
        """The JSON-ready projection of the configuration (the experiment
        records embed it); the unserializable sinks become booleans."""
        return {
            "engine": self.engine,
            "semantics": self.semantics,
            "calculus": self.calculus,
            "opt_level": self.opt_level,
            "fuel": self.fuel,
            "cache": self.cache,
            "ir": self.ir,
            "traced": self.trace is not None,
        }


def resolve_config(config: RunConfig | None = None, **overrides) -> RunConfig:
    """Validate and complete a run configuration — the single validation path.

    Starts from ``config`` (or the default :class:`RunConfig`), applies any
    keyword ``overrides`` (field name → value; a ``None`` override means
    "not given", so the field keeps its value from ``config`` or the
    :class:`RunConfig` default — which lets an unset CLI flag pass straight
    through), and returns the fully-resolved configuration: calculus
    uppercased, fuel filled from the engine default, ``ir`` derived from
    the engine, and ``cache`` narrowed to the engines that can actually
    cache.  Raises :class:`UsageError` (a ``ValueError``) for every invalid
    knob.
    """
    base = config if config is not None else RunConfig()
    given = {name: value for name, value in overrides.items() if value is not None}
    if given:
        base = replace(base, **given)

    engine = "machine" if base.engine is None else base.engine
    if engine not in ENGINES:
        raise UsageError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    calculus = (base.calculus or "S").upper()
    if calculus not in CALCULI:
        raise UsageError(f"unknown calculus {base.calculus!r}; expected one of {CALCULI}")
    if base.semantics not in SEMANTICS_NAMES:
        raise UsageError(
            f"unknown semantics {base.semantics!r}; expected one of {SEMANTICS_NAMES}"
        )
    if base.opt_level not in OPT_LEVELS:
        raise UsageError(
            f"unknown optimization level {base.opt_level!r}; "
            f"expected one of {OPT_LEVELS}"
        )
    if engine in VM_ENGINES and calculus != "S":
        raise UsageError(
            f"engine {engine!r} implements λS only (requested calculus {calculus!r}); "
            "use engine='machine' for λB or λC"
        )
    if engine == "subst" and base.semantics != "coercion":
        raise UsageError(
            "engine 'subst' reduces coercion terms literally and supports "
            f"only the 'coercion' semantics (requested {base.semantics!r}); "
            "use engine='machine' or engine='vm'"
        )
    if base.semantics != "coercion" and calculus != "S":
        raise UsageError(
            f"the {base.semantics!r} enforcement semantics implements λS only "
            f"(requested calculus {calculus!r})"
        )
    ir = IR_FOR_ENGINE.get(engine)
    if base.ir is not None and base.ir != ir:
        raise UsageError(
            f"ir {base.ir!r} does not apply to engine {engine!r}"
            + (f" (its IR is {ir!r})" if ir else " (tree interpreters have no IR)")
        )
    fuel = base.fuel if base.fuel is not None else DEFAULT_FUEL[engine]
    return replace(base, engine=engine, calculus=calculus, ir=ir, fuel=fuel,
                   cache=base.cache and engine in VM_ENGINES)


@dataclass(frozen=True)
class RunResult:
    """The outcome of running a surface program.

    ``kind`` is ``"value"``, ``"blame"``, or ``"timeout"``; the timeout shape
    is identical for every engine (``steps`` holds the fuel spent).
    ``config`` is the fully-resolved :class:`RunConfig` the run executed
    under (the engine actually used, the effective fuel and opt level) and
    ``cache_status`` the compile-cache disposition (``"hit"``, ``"miss"``,
    ``"recovered"``, or ``None`` when the run never touched the cache) — so
    a result is self-describing without re-deriving what ran.  ``semantics``
    is the enforcement semantics the run executed under (see
    :data:`repro.semantics.SEMANTICS`).
    """

    kind: str  # 'value' | 'blame' | 'timeout'
    value: object = None
    blame_label: Label | None = None
    type: Type | None = None
    calculus: str = "S"
    engine: str = "machine"
    semantics: str = "coercion"
    space_stats: dict | None = None
    steps: int = 0
    cache_status: str | None = None
    config: RunConfig | None = None

    @property
    def is_value(self) -> bool:
        return self.kind == "value"

    @property
    def is_blame(self) -> bool:
        return self.kind == "blame"

    @property
    def is_timeout(self) -> bool:
        return self.kind == "timeout"

    def describe(self) -> dict:
        """The JSON-ready record of the outcome, the one serve answers, batch
        prints and the experiment follows: ``kind``, ``steps`` and
        ``max_pending_mediators``, plus ``value`` (JSON-safe, see
        :func:`~repro.machine.values.json_value`) and ``type``, or
        ``blame``."""
        record = {
            "kind": self.kind,
            "steps": self.steps,
            "max_pending_mediators": (self.space_stats or {}).get("max_pending_mediators", 0),
        }
        if self.kind == "value":
            record["value"] = json_value(self.value)
            if self.type is not None:
                record["type"] = str(self.type)
        elif self.kind == "blame":
            record["blame"] = str(self.blame_label)
        return record

    def __str__(self) -> str:  # pragma: no cover - presentation
        if self.kind == "value":
            return f"{repr_value(self.value)} : {self.type}"
        if self.kind == "blame":
            return f"blame {self.blame_label}"
        return f"timeout after {self.steps} {self.engine} steps"


def error_record(exc: Exception) -> dict:
    """The JSON-ready record of a run that raised ``exc``: ``kind`` ``error``,
    the ``error`` message, and a ``reason`` the exception's type decides,
    wherever it was raised: ``"runtime"`` for an
    :class:`~repro.core.errors.EvaluationError` (say, an erasure ``if`` given
    ``7``), ``"static"`` for any other :class:`~repro.core.errors.ReproError`
    (a parse or type error, a rejected image), and ``"defect"`` for anything
    else, a fault of this library, whose message is ``worker exception:
    <repr>``."""
    if isinstance(exc, ReproError):
        reason = "runtime" if isinstance(exc, EvaluationError) else "static"
        return {"kind": "error", "error": str(exc), "reason": reason}
    return {"kind": "error", "error": f"worker exception: {exc!r}", "reason": "defect"}


def _from_machine_outcome(outcome, ty, calculus: str, engine: str,
                          semantics: str = "coercion",
                          config: RunConfig | None = None,
                          cache_status: str | None = None) -> RunResult:
    """Map a :class:`~repro.machine.cek.MachineOutcome` (machine or VM) to a
    :class:`RunResult` — one code path so the outcome shapes stay uniform."""
    return RunResult(outcome.kind, outcome.python_value() if outcome.is_value else None,
                     blame_label=outcome.label, type=ty, calculus=calculus, engine=engine,
                     semantics=semantics, space_stats=outcome.stats,
                     steps=(outcome.stats or {}).get("steps", 0), cache_status=cache_status,
                     config=config)


def reducer_value_to_python(term: Term) -> object:
    """Project a substitution-reducer value to a Python observable.

    The same projection as the machine's and the VMs' ``python_value()``
    (:func:`~repro.machine.values.machine_value_to_python`), so every
    engine's ``RunResult.value`` compares directly: constants project to
    themselves, pairs componentwise, functions to the opaque
    ``"<function>"`` marker, and mediators (casts, coercions) are erased.
    """

    def project(t: Term) -> object:
        if isinstance(t, Const):
            return t.value
        if isinstance(t, Pair):
            return (project(t.left), project(t.right))
        if isinstance(t, (Lam, Fix)):
            return "<function>"
        return str(t)

    return project(erase(term))


def run_image(image, fuel: int | None = None, *, opcode_counts: dict | None = None,
              metrics=None) -> RunResult:
    """Run a loaded ``.gradb`` image on the engine its IR fixes.

    A stack image runs on the vm engine and a register image on the rvm
    engine, with that engine's default fuel unless ``fuel`` is given.  The
    result reports the image's provenance (its semantics and static type).
    ``opcode_counts`` is filled with per-opcode dispatch counts; ``metrics``
    gets the ``run`` phase timer and the outcome counters.

    The engine entry points are looked up on :mod:`repro.compiler.vm` and
    :mod:`repro.compiler.rvm` at call time, so a caller that replaces
    ``vm.run_code`` or ``rvm.run_rcode`` (to time or trace them) sees every
    compiled run.
    """
    from .compiler import rvm, vm

    info = image.info
    engine = ENGINE_FOR_IR[info.ir]
    if fuel is None:
        fuel = DEFAULT_FUEL[engine]
    with phase(metrics, "run"):
        if engine == "rvm":
            outcome = rvm.run_rcode(image.code, fuel, opcode_counts=opcode_counts)
        else:
            outcome = vm.run_code(image.code, fuel, opcode_counts=opcode_counts)
    record_run(metrics, outcome.kind, outcome.stats, engine)
    return _from_machine_outcome(outcome, info.static_type, "S", engine, info.semantics)


def _maybe_tracing(trace: object, program: str | None):
    """A ``tracing`` context for ``RunConfig.trace`` (sink or path), or a no-op."""
    from contextlib import nullcontext

    if trace is None:
        return nullcontext()
    from .obs import JsonLinesSink, tracing

    sink = JsonLinesSink(trace) if isinstance(trace, str) else trace
    return tracing(sink, program=program or "<api.run>")


def run(source_or_term, config: RunConfig | None = None, *,
        type: Type | None = None, source_hash: str | None = None,
        opcode_counts: dict | None = None, program_name: str | None = None,
        **overrides) -> RunResult:
    """Run a surface program (``str``) or an elaborated λB term.

    The single execution façade: resolves ``config`` (plus field
    ``overrides``) through :func:`resolve_config`, dispatches on the input
    kind, and returns a :class:`RunResult` carrying the resolved
    configuration.  For sources on a caching engine the compiled image is
    looked up in — and stored to — the on-disk compile cache, keyed on the
    source text; a warm run skips the whole front end.

    ``type`` (term inputs) is the term's static type, if known;
    ``source_hash`` (term inputs) addresses the compile cache when the term
    was compiled from known source; ``opcode_counts`` (compiled engines) is
    an optional dict filled with per-opcode dispatch counts;
    ``program_name`` labels the trace stream when ``config.trace`` is set.
    """
    cfg = resolve_config(config, **overrides)
    with _maybe_tracing(cfg.trace, program_name):
        if isinstance(source_or_term, str):
            return _execute_source(source_or_term, cfg, opcode_counts)
        if not isinstance(source_or_term, Term):
            raise TypeError(
                "run() takes surface source (str) or an elaborated λB Term, "
                f"got {source_or_term.__class__.__name__}"
            )
        return _execute_term(source_or_term, type, cfg, source_hash, opcode_counts)


def _execute_source(source: str, cfg: RunConfig, opcode_counts: dict | None) -> RunResult:
    """The source path: through the compile cache when it is on (a hit
    skips the whole front end), else front end + term path."""
    # Late import: the front end stays monkeypatchable at
    # ``interp.compile_source``.
    from .surface import interp

    metrics = cfg.metrics
    if not cfg.cache:
        term, ty = interp.compile_source(source, metrics)
        return _execute_term(term, ty, cfg, None, opcode_counts)
    from .compiler.cache import cached_compile_source
    from .compiler.serialize import source_fingerprint

    found = cached_compile_source(
        source_fingerprint(source), lambda: interp.compile_source(source, metrics),
        cfg.semantics, cfg.opt_level, cfg.cache_dir, cfg.ir, metrics,
    )
    return _run_compiled(found.image, cfg, found.status, opcode_counts)


def _run_compiled(image, cfg: RunConfig, cache_status: str | None,
                  opcode_counts: dict | None) -> RunResult:
    """Run a compiled image as ``cfg`` asks, recording its cache status."""
    result = run_image(image, cfg.fuel, opcode_counts=opcode_counts, metrics=cfg.metrics)
    return replace(result, config=cfg, cache_status=cache_status)


def _execute_term(term: Term, ty: Type | None, cfg: RunConfig,
                  source_hash: str | None, opcode_counts: dict | None) -> RunResult:
    """The term path: compiled engines (optionally through the cache), the
    CEK machine, or the substitution oracle — all validated already."""
    metrics = cfg.metrics
    engine, semantics, calculus, fuel = cfg.engine, cfg.semantics, cfg.calculus, cfg.fuel

    if engine in VM_ENGINES:
        if cfg.cache:
            from .compiler.cache import cached_compile

            found = cached_compile(term, source_hash, ty, semantics, cfg.opt_level,
                                   cfg.cache_dir, cfg.ir, metrics)
            return _run_compiled(found.image, cfg, found.status, opcode_counts)
        from .compiler.cache import compile_image

        image = compile_image(term, source_hash or "", ty, semantics, cfg.opt_level,
                              cfg.ir, metrics)
        return _run_compiled(image, cfg, None, opcode_counts)

    if engine == "machine":
        with phase(metrics, "run"):
            outcome = run_on_machine(term, calculus, fuel, semantics)
        record_run(metrics, outcome.kind, outcome.stats, engine)
        return _from_machine_outcome(outcome, ty, calculus, engine, semantics,
                                     config=cfg)

    with phase(metrics, "run"):
        if calculus == "B":
            outcome = reduction_b.run(term, fuel)
        elif calculus == "C":
            outcome = reduction_c.run(b_to_c(term), fuel)
        else:
            outcome = reduction_s.run(c_to_s(b_to_c(term)), fuel)
    record_run(metrics, outcome.kind, {"steps": outcome.steps}, engine)
    return RunResult(outcome.kind,
                     reducer_value_to_python(outcome.term) if outcome.is_value else None,
                     blame_label=outcome.label, type=ty, calculus=calculus, engine=engine,
                     steps=outcome.steps, config=cfg)


__all__ = [
    "CALCULI",
    "DEFAULT_FUEL",
    "ENGINES",
    "ENGINE_FOR_IR",
    "IR_FOR_ENGINE",
    "RunConfig",
    "RunResult",
    "VM_ENGINES",
    "error_record",
    "resolve_config",
    "run",
    "run_image",
]
