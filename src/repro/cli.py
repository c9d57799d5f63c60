"""Command-line interface: run, type-check, translate, and profile gradual programs.

Installed as ``repro-gradual``.  Subcommands:

* ``run FILE``        — parse, type check, insert casts, evaluate (choose the
  calculus with ``--calculus``, the engine with ``--engine``: the CEK
  machine by default, the stack bytecode VM with ``--engine vm``, the
  register VM with ``--engine rvm`` (packed-stream dispatch; fastest), or
  the substitution-based reference oracle; the enforcement semantics with
  ``--semantics``: λS coercions composed with ``#`` by default, threesomes
  composed with labeled-type ``∘``, transient tag checks, or erasure; and
  the VMs' optimization level with ``-O {0,1,2}``, default ``-O2``).
  ``FILE`` may also be a serialized ``.gradb`` bytecode image, which runs directly —
  no front end at all — on the engine its IR fixes (vm for stack images,
  rvm for register images).  The compiled engines compile through the
  on-disk compile cache (``~/.cache/repro-gradual``) unless ``--no-cache``;
  ``--profile`` dumps dispatch counts, inline-cache hit rates, the space
  profile, and pipeline-phase timings as JSON on stderr; ``--trace FILE``
  records mediator lifecycle events as JSON lines; ``--metrics FILE``
  writes the metrics snapshot.
* ``trace FILE``      — run with mediator tracing on: event summary, space
  maxima, optional ``--timeline`` series and ``-o`` event export (JSON
  lines or ``--format chrome`` for Perfetto), and — on blame — the
  provenance trail of compositions that produced the failing mediator.
* ``compile FILE``    — lower to λS bytecode; print the disassembly and
  constant pool (``--ir register`` prints the packed register streams
  instead), or with ``-o IMAGE.gradb`` serialize a versioned binary image
  (``--ir register`` embeds the register streams too, so the image runs on
  the rvm engine; ``--semantics threesome`` pre-interns labeled types;
  ``-O`` selects the optimizer level).  Given an existing ``.gradb`` file,
  prints its provenance and disassembly.
* ``batch PATH...``   — compile a corpus (directories of ``*.grad``,
  manifest files, or programs) once, through the compile cache, and run it
  across a fault-tolerant worker pool (a worker killed mid-program yields
  a ``worker-lost`` error record, never a hang), streaming one JSON line
  per program plus an aggregate line.
* ``serve``           — run the persistent evaluation service: an asyncio
  front end (newline-delimited JSON over TCP or ``--socket``) over the
  same worker pool, keeping interned mediator tables and hot ``.gradb``
  images warm across requests.  Per-request fuel and wall-clock deadlines,
  bounded admission with ``overloaded`` shedding, worker recycling, crash
  retry, graceful SIGTERM drain, and deterministic fault injection via
  ``REPRO_GRADUAL_FAULTS``.
* ``check FILE``      — static gradual type checking only.
* ``translate FILE``  — print the elaborated λB term, or its λC / λS translation.
* ``space N``         — reproduce the space-efficiency experiment for the
  even/odd boundary workload at size ``N`` on all three machines.

The run flags ``--semantics``, ``-O``, ``--fuel`` and ``--no-cache`` are
declared once and shared by the subcommands that take them; a flag left
unset takes its default from :func:`repro.api.resolve_config` (or, for
``serve`` and ``experiment``, from ``ServeConfig``/``ExperimentConfig``).

Exit codes (uniform across subcommands): **0** — the program ran to a value
(or the subcommand succeeded); **1** — evaluation allocated blame; **2** — a
static error (file not found, parse error, ill-typed program, bad
engine/calculus/semantics combination, unreadable image, unknown flag);
**3** — evaluation timed out (fuel exhausted).  ``batch`` reports the most
severe per-program outcome: static error (2), then timeout (3), then blame
(1), then value (0).
Errors are single-line diagnostics on stderr carrying source locations when
the front end provides them.

Example::

    repro-gradual run examples/programs/square.grad --calculus S --show-space
    repro-gradual compile examples/programs/square.grad -O2 -o square.gradb
    repro-gradual run square.gradb --show-space
    repro-gradual batch examples/programs --workers 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import resolve_config, run, run_image
from .compiler.opt import OPT_LEVELS
from .core.errors import ParseError, ReproError, TypeCheckError
from .core.pretty import term_to_str
from .gen.programs import even_odd_boundary
from .machine import run_on_machine
from .semantics import SEMANTICS_NAMES
from .surface.cast_insertion import elaborate_program
from .surface.parser import parse_program
from .translate import b_to_c, b_to_s

#: The uniform exit-code scheme (documented in ``--help`` and the README).
EXIT_VALUE = 0
EXIT_BLAME = 1
EXIT_STATIC_ERROR = 2
EXIT_TIMEOUT = 3

_OUTCOME_EXIT_CODES = {"value": EXIT_VALUE, "blame": EXIT_BLAME, "timeout": EXIT_TIMEOUT}


def _given(**knobs) -> dict:
    """The knobs whose flags were passed (an unset flag parses to ``None``),
    so a config class's own defaults fill the rest."""
    return {name: value for name, value in knobs.items() if value is not None}


def _load_program(path: str):
    source = Path(path).read_text()
    return parse_program(source)


def _is_image(path: str) -> bool:
    """Is ``path`` a serialized ``.gradb`` image (by suffix or magic)?"""
    from .compiler import GRADB_MAGIC, GRADB_SUFFIX

    if path.endswith(GRADB_SUFFIX):
        return True
    try:
        with open(path, "rb") as handle:
            return handle.read(len(GRADB_MAGIC)) == GRADB_MAGIC
    except OSError:
        return False


def _print_result(result, show_space: bool) -> int:
    print(result)
    if show_space and result.space_stats is not None:
        stats = result.space_stats
        print(
            "space: pending-mediators max={max_pending_mediators} "
            "pending-size max={max_pending_size} kont-depth max={max_kont_depth} "
            "steps={steps}".format(**stats)
        )
    return _OUTCOME_EXIT_CODES[result.kind]


def _emit_profile(counts: dict | None, result, engine: str, metrics=None) -> None:
    """Dump one JSON object of dispatch counts, inline-cache hit rates, the
    space profile, and the metrics snapshot to stderr — stderr so it composes
    with the result (and exit code) on stdout.

    ``counts`` is ``None`` for the machine engine, which has no bytecode:
    the ``dispatches``/``opcodes`` keys are the only VM-specific part of the
    profile; space counters and pipeline phases apply to every engine.
    """
    import json

    profile: dict = {"engine": engine}
    if counts is not None:
        if engine == "rvm":
            from .compiler.regalloc import R_OPCODE_NAMES as names
        else:
            from .compiler.bytecode import OPCODE_NAMES as names
        profile["dispatches"] = sum(counts.values())
        profile["opcodes"] = {
            names[op]: n
            for op, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        }
    stats = result.space_stats or {}
    if counts is not None:
        hits = stats.get("cache_hits", 0)
        misses = stats.get("cache_misses", 0)
        consults = hits + misses
        profile["inline_cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / consults, 4) if consults else None,
        }
    profile["space"] = {k: v for k, v in stats.items() if isinstance(v, int)}
    if metrics is not None:
        profile["metrics"] = metrics.snapshot()
    print(json.dumps(profile), file=sys.stderr, flush=True)


def _write_metrics(metrics, path: str) -> None:
    """Write a metrics snapshot as one JSON object to ``path``."""
    import json

    with open(path, "w") as handle:
        json.dump(metrics.snapshot(), handle, sort_keys=True)
        handle.write("\n")


def _run_image(args: argparse.Namespace) -> int:
    """Run a serialized image directly: no parsing, no lowering, no cache.

    An image fixes its calculus (λS), engine (vm for stack images, rvm for
    register images), enforcement semantics, and optimization level at
    compile time, so passing any of those flags alongside an image is a
    contradiction — rejected rather than silently ignored (a user comparing
    engines must not get VM results labeled as the machine's).
    """
    from .api import ENGINE_FOR_IR
    from .compiler import load_image
    from .core.errors import UsageError

    image = load_image(args.file)
    engine = ENGINE_FOR_IR[image.info.ir]
    fixed = {
        "--engine": args.engine not in (None, engine),
        "--calculus": args.calculus is not None,
        "--semantics": args.semantics is not None,
        "-O/--opt-level": args.opt_level is not None,
        "--small-step": args.small_step,
    }
    offending = [flag for flag, given in fixed.items() if given]
    if offending:
        raise UsageError(
            f"{', '.join(offending)} cannot apply to a compiled .gradb image: "
            f"its engine ({engine}), calculus (S), semantics, and -O level were "
            "fixed at compile time (see `repro-gradual compile IMAGE` for its "
            "provenance)"
        )
    counts: dict | None = {} if args.profile else None
    metrics = None
    if args.profile or args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    with _maybe_tracing(args.trace, args.file):
        result = run_image(image, args.fuel, opcode_counts=counts, metrics=metrics)
    if args.profile:
        _emit_profile(counts, result, engine, metrics)
    if args.metrics:
        _write_metrics(metrics, args.metrics)
    return _print_result(result, args.show_space)


def _maybe_tracing(trace_path: str | None, program: str):
    """A ``tracing`` context writing JSON lines to ``trace_path``, or a no-op."""
    from contextlib import nullcontext

    if trace_path is None:
        return nullcontext()
    from .obs import JsonLinesSink, tracing

    return tracing(JsonLinesSink(trace_path), program=program)


def _cmd_run(args: argparse.Namespace) -> int:
    if _is_image(args.file):
        return _run_image(args)
    source = Path(args.file).read_text()
    engine = "subst" if args.small_step else (args.engine or "machine")
    counts: dict | None = None
    if args.profile:
        if engine == "subst":
            from .core.errors import UsageError

            raise UsageError(
                "--profile reports dispatch and space counters, which engine "
                "'subst' has none of; use --engine vm, rvm, or machine"
            )
        if engine in ("vm", "rvm"):
            counts = {}
    metrics = None
    if args.profile or args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    result = run(
        source,
        calculus=args.calculus,
        engine=engine,
        semantics=args.semantics,
        fuel=args.fuel,
        opt_level=args.opt_level,
        cache=not args.no_cache,
        trace=args.trace,
        metrics=metrics,
        opcode_counts=counts,
        program_name=args.file,
    )
    if args.profile:
        _emit_profile(counts, result, engine, metrics)
    if args.metrics:
        _write_metrics(metrics, args.metrics)
    return _print_result(result, args.show_space)


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import (
        compile_registers,
        compile_term,
        disassemble,
        disassemble_image,
        disassemble_registers,
        load_image,
        save_image,
        source_fingerprint,
    )

    if _is_image(args.file):
        from .core.errors import UsageError

        if args.output is not None:
            raise UsageError(
                "-o expects a source program to compile; "
                f"{args.file} is already a compiled image"
            )
        image = load_image(args.file)
        text = disassemble_image(image)
        if image.rcode is not None:
            text += "\n" + disassemble_registers(image.rcode)
        print(text)
        return EXIT_VALUE
    config = resolve_config(engine="rvm" if args.ir == "register" else "vm",
                            semantics=args.semantics, opt_level=args.opt_level)
    source = Path(args.file).read_text()
    term, ty = elaborate_program(parse_program(source))
    code = compile_term(term, config.semantics, config.opt_level)
    if args.output is not None:
        save_image(code, args.output, source_hash=source_fingerprint(source),
                   static_type=ty, ir=args.ir)
        print(f"wrote {args.output}")
    elif args.ir == "register":
        print(disassemble_registers(compile_registers(code)))
    else:
        print(disassemble(code))
    return EXIT_VALUE


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .api import RunConfig
    from .batch import run_batch

    def emit(result: dict) -> None:
        print(json.dumps(result, sort_keys=True), flush=True)

    metrics = None
    if args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    trace_sink = None
    if args.trace:
        from .obs import JsonLinesSink

        trace_sink = JsonLinesSink(args.trace)
    config = resolve_config(RunConfig(engine="vm"), semantics=args.semantics,
                            opt_level=args.opt_level, fuel=args.fuel,
                            cache=not args.no_cache)
    results, aggregate = run_batch(
        args.paths,
        config,
        workers=args.workers,
        on_result=emit,
        metrics=metrics,
        trace_sink=trace_sink,
    )
    if args.metrics:
        _write_metrics(metrics, args.metrics)
    print(json.dumps({"aggregate": aggregate}, sort_keys=True), flush=True)
    outcomes = aggregate["outcomes"]
    if outcomes["error"]:
        return EXIT_STATIC_ERROR
    if outcomes["timeout"]:
        return EXIT_TIMEOUT
    if outcomes["blame"]:
        return EXIT_BLAME
    return EXIT_VALUE


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .serve.server import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        queue_limit=args.queue_limit,
        **_given(semantics=args.semantics, opt_level=args.opt_level, fuel=args.fuel),
        engine=args.engine,
        deadline_s=args.deadline,
        use_cache=not args.no_cache,
        max_requests=args.max_requests,
        max_rss_mb=args.max_rss_mb,
        retries=args.retries,
        grace_s=args.grace,
        faults=args.faults,
    )

    def announce(ready: dict) -> None:
        print(json.dumps(ready, sort_keys=True), flush=True)

    return serve(config, announce=announce)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a program with mediator tracing on and report what the trace saw.

    Prints the result (stdout, same shape as ``run``), a one-line event
    summary, the space maxima, the timeline series with ``--timeline``, and
    — when the run allocated blame — the blame provenance trail: the chain
    of ``#``/``∘`` compositions that produced the failing mediator.  With
    ``-o`` the full event stream is also exported as JSON lines (default)
    or a Chrome trace-event array (``--format chrome``; open in Perfetto).
    Exit codes follow the ``run`` scheme.
    """
    import json
    from collections import Counter

    from .obs import (
        ChromeTraceSink,
        JsonLinesSink,
        ListSink,
        SpaceTimeline,
        TeeSink,
        blame_trail,
        format_trail,
    )

    source = Path(args.file).read_text()
    engine = args.engine or "machine"
    collector = ListSink()
    sink = collector
    if args.output is not None:
        exporter = (ChromeTraceSink(args.output) if args.format == "chrome"
                    else JsonLinesSink(args.output))
        sink = TeeSink([collector, exporter])
    timeline = None
    if args.timeline:
        timeline = SpaceTimeline(inner=sink)
        sink = timeline
    result = run(
        source,
        calculus=args.calculus,
        engine=engine,
        semantics=args.semantics,
        fuel=args.fuel,
        opt_level=args.opt_level,
        cache=not args.no_cache,
        trace=sink,
        program_name=args.file,
    )
    print(result)
    events = collector.events
    kinds = Counter(event["ev"] for event in events)
    summary = " ".join(
        f"{kind}={kinds[kind]}"
        for kind in ("mediator", "install", "merge", "collapse", "apply", "blame")
        if kinds.get(kind)
    )
    print(f"trace: {len(events)} events" + (f" ({summary})" if summary else ""))
    if result.space_stats is not None:
        print(
            "space: pending-mediators max={max_pending_mediators} "
            "pending-size max={max_pending_size}".format(**result.space_stats)
        )
    if timeline is not None:
        print(f"timeline: {json.dumps(timeline.series(), sort_keys=True)}")
    trail = blame_trail(events)
    if trail is not None:
        print(format_trail(trail))
    if args.output is not None:
        print(f"wrote {args.output}", file=sys.stderr)
    return _OUTCOME_EXIT_CODES[result.kind]


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    _, ty = elaborate_program(program)  # TypeCheckError propagates to main()
    print(f"well typed : {ty}")
    return EXIT_VALUE


def _cmd_translate(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    term, _ = elaborate_program(program)
    if args.to == "b":
        print(term_to_str(term))
    elif args.to == "c":
        print(term_to_str(b_to_c(term)))
    else:
        print(term_to_str(b_to_s(term)))
    return EXIT_VALUE


def _cmd_space(args: argparse.Namespace) -> int:
    n = args.n
    print(f"even/odd boundary workload, n = {n}")
    print(f"{'calculus':>8} {'pending frames':>16} {'pending size':>14} {'kont depth':>12} {'steps':>10}")
    for calculus in ("B", "C", "S"):
        outcome = run_on_machine(even_odd_boundary(n), calculus)
        stats = outcome.stats
        print(
            f"{calculus:>8} {stats['max_pending_mediators']:>16} "
            f"{stats['max_pending_size']:>14} {stats['max_kont_depth']:>12} {stats['steps']:>10}"
        )
    return EXIT_VALUE


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Rational-programmer blame evaluation over migration lattices.

    Emits one JSON line per trail (stdout, or ``--output``) followed by the
    aggregate report (``{"aggregate": ...}``); ``--report`` additionally
    writes the aggregate to a file.  Exit code 0 when every trail ran, 2
    for usage errors (unknown semantics, no programs).
    """
    import json
    from pathlib import Path

    from .core.errors import UsageError
    from .experiment import ExperimentConfig, run_experiment

    programs: list[tuple[str, str]] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.glob("*.grad"))
        else:
            files = [path]
        for file in files:
            programs.append((str(file), file.read_text()))
    if args.generate:
        from .gen import generate_corpus

        programs.extend(
            generate_corpus(args.generate, seed=args.seed, bindings=args.bindings)
        )
    if not programs:
        raise UsageError("experiment needs .grad paths and/or --generate N")

    semantics = tuple(s.strip() for s in args.semantics.split(",") if s.strip())
    config = ExperimentConfig(
        semantics=semantics,
        engine=args.engine,
        **_given(opt_level=args.opt_level, fuel=args.fuel),
        workers=args.workers,
        max_configs=args.max_configs,
        starts_per_fault=args.starts,
        faults_per_program=args.faults_per_program,
        seed=args.seed,
    )

    out = open(args.output, "w") if args.output else sys.stdout

    def emit(record: dict) -> None:
        print(json.dumps(record, sort_keys=True), file=out, flush=True)

    try:
        _, report = run_experiment(programs, config, emit=emit)
    finally:
        if out is not sys.stdout:
            out.close()
    print(json.dumps({"aggregate": report}, sort_keys=True), flush=True)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_VALUE


def _run_flags() -> dict[str, argparse.ArgumentParser]:
    """The shared run flags, each declared once as an argparse parent.

    Every one parses to ``None`` (``--no-cache``: ``False``) when unset, so
    the default comes from :func:`repro.api.resolve_config` — or from
    ``ServeConfig``/``ExperimentConfig`` for ``serve`` and ``experiment``.
    """
    semantics = argparse.ArgumentParser(add_help=False)
    semantics.add_argument(
        "--semantics", choices=list(SEMANTICS_NAMES), default=None,
        help="enforcement semantics of the λS machine/VMs: coercion (Natural via "
             "canonical coercions merged with #, the default), threesome (Natural "
             "via labeled types merged with ∘), transient (shallow tag checks; "
             "blame labels may differ from Natural), or erasure (no enforcement; "
             "never blames)")
    opt = argparse.ArgumentParser(add_help=False)
    opt.add_argument(
        "-O", "--opt-level", type=int, choices=list(OPT_LEVELS), default=None,
        help="bytecode optimizer level of the compiled engines: 0 none, 1 static "
             "coercion elision + pre-composition, 2 (default) superinstructions + "
             "inline mediator caches")
    fuel = argparse.ArgumentParser(add_help=False)
    fuel.add_argument("--fuel", type=int, default=None,
                      help="step budget of each run before it times out")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk compile cache (vm/rvm engines; "
                            "other engines never cache)")
    return {"semantics": semantics, "opt": opt, "fuel": fuel, "cache": cache}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gradual",
        description="Gradually typed language toolchain from 'Blame and Coercion' (PLDI 2015).",
        epilog="exit codes: 0 value, 1 blame, 2 static/parse error, 3 timeout",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _run_flags()
    all_run_flags = [flags["semantics"], flags["opt"], flags["fuel"], flags["cache"]]

    run_parser = sub.add_parser(
        "run", help="run a gradual program", parents=all_run_flags,
        epilog="exit codes: 0 value, 1 blame, 2 static/parse error, 3 timeout",
    )
    run_parser.add_argument("file")
    # Unset flags stay None, so running a compiled image can reject flags
    # the image has already fixed.
    run_parser.add_argument("--calculus", choices=["B", "C", "S", "b", "c", "s"], default=None,
                            help="calculus to evaluate (default S)")
    run_parser.add_argument("--engine", choices=["vm", "rvm", "machine", "subst"], default=None,
                            help="execution engine: the CEK machine (default), the λS "
                                 "stack bytecode VM, the register VM (packed-stream "
                                 "dispatch; fastest), or the substitution-based "
                                 "reference oracle")
    run_parser.add_argument("--small-step", action="store_true",
                            help="alias for --engine subst (the paper-faithful small-step reducer)")
    run_parser.add_argument("--show-space", action="store_true", help="print space statistics")
    run_parser.add_argument("--profile", action="store_true",
                            help="dump dispatch counts (vm/rvm), inline-mediator-cache "
                                 "hit rates, the space profile, and pipeline-phase "
                                 "timings as one JSON object on stderr (vm, rvm, and "
                                 "machine engines)")
    run_parser.add_argument("--trace", default=None, metavar="FILE",
                            help="record mediator lifecycle events (install/merge/"
                                 "collapse/apply/blame) as JSON lines into FILE; "
                                 "the traced outcome is bit-identical to an untraced run")
    run_parser.add_argument("--metrics", default=None, metavar="FILE",
                            help="write a metrics snapshot (counters, gauges, "
                                 "histograms, phase timings) as JSON into FILE")
    run_parser.set_defaults(handler=_cmd_run)

    trace_parser = sub.add_parser(
        "trace", help="run a program with mediator tracing and show the trace",
        parents=all_run_flags,
        epilog="exit codes: 0 value, 1 blame, 2 static/parse error, 3 timeout",
    )
    trace_parser.add_argument("file")
    trace_parser.add_argument("--calculus", choices=["B", "C", "S", "b", "c", "s"],
                              default=None, help="calculus to evaluate (default S)")
    trace_parser.add_argument("--engine", choices=["vm", "rvm", "machine"], default=None,
                              help="execution engine (default machine; the subst "
                                   "oracle has no mediator hooks and cannot trace)")
    trace_parser.add_argument("--format", choices=["jsonl", "chrome"], default="jsonl",
                              help="export format for -o: JSON lines (default) or a "
                                   "Chrome trace-event array for chrome://tracing "
                                   "or Perfetto")
    trace_parser.add_argument("-o", "--output", default=None, metavar="FILE",
                              help="export the full event stream here")
    trace_parser.add_argument("--timeline", action="store_true",
                              help="print the steps × pending-mediators space "
                                   "timeline series as JSON")
    trace_parser.set_defaults(handler=_cmd_trace)

    compile_parser = sub.add_parser(
        "compile", help="lower a program to λS bytecode: print the disassembly "
                        "or write a serialized .gradb image",
        parents=[flags["semantics"], flags["opt"]],
    )
    compile_parser.add_argument("file")
    compile_parser.add_argument("--ir", choices=["stack", "register"], default="stack",
                                help="instruction representation: the stack bytecode "
                                     "(default) or the packed register streams the rvm "
                                     "engine executes (-o images carry both IRs' code "
                                     "when register)")
    compile_parser.add_argument("-o", "--output", default=None, metavar="IMAGE",
                                help="serialize a versioned binary .gradb image here "
                                     "instead of printing the disassembly")
    compile_parser.set_defaults(handler=_cmd_compile)

    batch_parser = sub.add_parser(
        "batch", help="compile a corpus once and run it across a worker pool",
        parents=all_run_flags,
        epilog="per-program results stream as JSON lines, then one aggregate line; "
               "exit code is the most severe outcome (2 error, 3 timeout, 1 blame, 0 value)",
    )
    batch_parser.add_argument("paths", nargs="+", metavar="PATH",
                              help="directories of *.grad programs, manifest files "
                                   "(one path per line), or program files")
    batch_parser.add_argument("--workers", type=int, default=1,
                              help="multiprocessing pool size (default 1: run inline)")
    batch_parser.add_argument("--trace", default=None, metavar="FILE",
                              help="trace every program's run into FILE as JSON "
                                   "lines (forces inline execution: the tracer "
                                   "cannot span a worker pool)")
    batch_parser.add_argument("--metrics", default=None, metavar="FILE",
                              help="write the batch metrics snapshot (outcome/cache "
                                   "counters, per-program timing histograms) as "
                                   "JSON into FILE; the same snapshot is embedded "
                                   "in the aggregate line")
    batch_parser.set_defaults(handler=_cmd_batch)

    serve_parser = sub.add_parser(
        "serve", help="run the persistent evaluation service", parents=all_run_flags,
        epilog="prints one JSON 'ready' line (pid + bound address) when "
               "listening; SIGTERM drains gracefully (exit 0), a second "
               "SIGTERM force-exits 1",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (default 0: pick an ephemeral port, "
                                   "reported in the ready line)")
    serve_parser.add_argument("--socket", default=None, metavar="PATH",
                              help="serve on a Unix socket at PATH instead of TCP")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="persistent worker processes (default 1)")
    serve_parser.add_argument("--queue-limit", type=int, default=16,
                              help="max admitted run requests before shedding "
                                   "with the 'overloaded' outcome (default 16)")
    serve_parser.add_argument("--engine", choices=["vm", "rvm"], default="vm",
                              help="default engine for requests that name none")
    serve_parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                              help="default per-request wall-clock deadline "
                                   "(cooperative cancellation to a timeout outcome)")
    serve_parser.add_argument("--max-requests", type=int, default=0,
                              help="recycle a worker after this many requests "
                                   "(0 = never; warm state re-seeds from the "
                                   "compile cache)")
    serve_parser.add_argument("--max-rss-mb", type=int, default=0,
                              help="recycle a worker whose RSS exceeds this "
                                   "(0 = never)")
    serve_parser.add_argument("--retries", type=int, default=2,
                              help="re-dispatches after a worker crash before the "
                                   "request fails as worker-lost (default 2)")
    serve_parser.add_argument("--grace", type=float, default=5.0, metavar="SECONDS",
                              help="wall-clock slack past a request's deadline "
                                   "before the worker is presumed hung and killed")
    serve_parser.add_argument("--faults", default=None, metavar="SPEC",
                              help="fault-injection spec site:prob[:limit],... "
                                   "(default: $REPRO_GRADUAL_FAULTS); sites: "
                                   "worker_kill, slow_compile, torn_write")
    serve_parser.set_defaults(handler=_cmd_serve)

    check_parser = sub.add_parser("check", help="gradually type check a program")
    check_parser.add_argument("file")
    check_parser.set_defaults(handler=_cmd_check)

    translate_parser = sub.add_parser("translate", help="print a program's cast/coercion form")
    translate_parser.add_argument("file")
    translate_parser.add_argument("--to", choices=["b", "c", "s"], default="b")
    translate_parser.set_defaults(handler=_cmd_translate)

    space_parser = sub.add_parser("space", help="run the space-efficiency experiment")
    space_parser.add_argument("n", type=int, nargs="?", default=1000)
    space_parser.set_defaults(handler=_cmd_space)

    experiment_parser = sub.add_parser(
        "experiment",
        help="rational-programmer blame evaluation over migration lattices",
        parents=[flags["opt"], flags["fuel"]],
        epilog=(
            "plants type-level faults, follows blame labels across typed/untyped "
            "splits of each program's bindings, and reports localization rates "
            "and trail lengths per enforcement semantics"
        ),
    )
    experiment_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=".grad files or directories of .grad programs")
    experiment_parser.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="add N seeded generated programs to the corpus")
    experiment_parser.add_argument(
        "--bindings", type=int, default=5,
        help="definitions per generated program (lattice size 2^bindings)")
    experiment_parser.add_argument(
        "--semantics", default="coercion,threesome,transient,erasure",
        metavar="LIST", help="comma-separated enforcement semantics to sweep "
        "(erasure is the null baseline)")
    experiment_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker-pool processes (0 runs inline in-process)")
    experiment_parser.add_argument(
        "--engine", choices=["vm", "rvm"], default="vm")
    experiment_parser.add_argument(
        "--max-configs", type=int, default=64,
        help="lattice cutoff: enumerate fully below, sample above")
    experiment_parser.add_argument(
        "--starts", type=int, default=4,
        help="trail starting configurations per fault")
    experiment_parser.add_argument(
        "--faults-per-program", type=int, default=4)
    experiment_parser.add_argument("--seed", type=int, default=0)
    experiment_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write per-trail JSON lines here instead of stdout")
    experiment_parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the aggregate report to FILE as JSON")
    experiment_parser.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map every failure to the exit-code scheme.

    All static failures — unreadable files, parse errors (which carry
    line/column), type errors (which carry source locations), and invalid
    engine/calculus/semantics combinations — are caught uniformly here and
    reported as one-line diagnostics on stderr with exit code 2.  Dynamic
    outcomes (blame = 1, timeout = 3) are exit codes, not exceptions.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_STATIC_ERROR
    except TypeCheckError as exc:
        print(f"static type error: {exc}", file=sys.stderr)
        return EXIT_STATIC_ERROR
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_STATIC_ERROR
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
