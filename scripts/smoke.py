"""Quick smoke test exercised during development (not part of the test suite)."""

from repro.core import DYN, INT, Label, label
from repro.core.terms import App, Cast, Const, Lam, Var, const_int
from repro.lambda_b import run as run_b, type_of as type_b
from repro.lambda_c import run as run_c, type_of as type_c
from repro.lambda_s import run as run_s, type_of as type_s
from repro.lambda_b.embed import embed
from repro.translate import b_to_c, b_to_s, c_to_s

p = label("p")
q = label("q")

# (λx:?. x : ? => int) (7 : int => ?)
term = App(
    Lam("x", DYN, Cast(Var("x"), DYN, INT, q)),
    Cast(const_int(7), INT, DYN, p),
)
print("typeB:", type_b(term))
print("B:", run_b(term))
term_c = b_to_c(term)
print("typeC:", type_c(term_c))
print("C:", run_c(term_c))
term_s = c_to_s(term_c)
print("typeS:", type_s(term_s))
print("S:", run_s(term_s))

# A failing projection: (7 : int => ? => bool)
from repro.core import BOOL

bad = Cast(Cast(const_int(7), INT, DYN, p), DYN, BOOL, q)
print("B bad:", run_b(bad))
print("C bad:", run_c(b_to_c(bad)))
print("S bad:", run_s(b_to_s(bad)))

# Embedded dynamic program: (λx. x + 1) 41
from repro.core.terms import Op

dyn_prog = App(Lam("x", DYN, Op("+", (Var("x"), const_int(41)))), const_int(1))
emb = embed(dyn_prog)
print("embed B:", run_b(emb))
print("embed C:", run_c(b_to_c(emb)))
print("embed S:", run_s(b_to_s(emb)))

# The bytecode VM agrees with all of the above on the λS pipeline.
from repro.api import run

print("vm:", run(term, engine="vm"))
print("vm bad:", run(bad, engine="vm"))
print("vm embed:", run(emb, engine="vm"))

# The optimizer levels agree with each other (and the -O2 disassembly
# round-trips through the parser).
from repro.compiler import (
    compile_term,
    disassemble,
    instruction_streams,
    parse_disassembly,
)

for probe in (term, bad, emb):
    o0 = run(probe, engine="vm", opt_level=0)
    o2 = run(probe, engine="vm", opt_level=2)
    assert (o0.kind, o0.value, o0.blame_label) == (o2.kind, o2.value, o2.blame_label), (o0, o2)
for level in (0, 1, 2):
    code = compile_term(emb, opt_level=level)
    assert parse_disassembly(disassemble(code)) == instruction_streams(code), level
print("optimizer levels + disassembly round trip: ok")

# The threesome mediator backend (machine and VM) agrees too, and so does
# every engine × semantics × -O cell of the oracle matrix.
print("machine threesome:", run(term, engine="machine", semantics="threesome"))
print("vm threesome:", run(term, engine="vm", semantics="threesome"))
print("vm threesome bad:", run(bad, engine="vm", semantics="threesome"))

from repro.properties.bisimulation import check_oracle_matrix

for probe in (term, bad, emb):
    report = check_oracle_matrix(probe)
    assert report.ok, report.reason
print("oracle matrix: ok")

# The CLI front end end-to-end, including the new flags and exit codes
# (0 value, 1 blame, 2 static error, 3 timeout).
import pathlib
import tempfile

from repro.cli import main as cli_main

with tempfile.TemporaryDirectory() as tmp:
    good = pathlib.Path(tmp) / "good.grad"
    good.write_text("(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n")
    spin = pathlib.Path(tmp) / "spin.grad"
    spin.write_text("(define (spin [n : int]) : int (spin n))\n(spin 0)\n")
    assert cli_main(["run", str(good)]) == 0
    assert cli_main(["run", str(good), "--engine", "vm", "--semantics", "threesome"]) == 0
    assert cli_main(["run", str(good), "--semantics", "threesome", "--show-space"]) == 0
    assert cli_main(["compile", str(good), "--semantics", "threesome"]) == 0
    assert cli_main(["run", str(spin), "--fuel", "5000"]) == 3
    assert cli_main(["run", str(good), "--semantics", "threesome", "--calculus", "B"]) == 2
    # The optimizer flag: -O0 and -O2 agree end to end, on both subcommands.
    assert cli_main(["run", str(good), "--engine", "vm", "-O", "0"]) == 0
    assert cli_main(["run", str(good), "--engine", "vm", "-O", "2"]) == 0
    assert cli_main(["run", str(good), "--engine", "vm", "--opt-level", "1"]) == 0
    assert cli_main(["compile", str(good), "-O", "0"]) == 0
    assert cli_main(["compile", str(good), "-O", "2"]) == 0
    assert cli_main(["compile", str(good), "-O", "2", "--semantics", "threesome"]) == 0
    assert cli_main(["run", str(spin), "--engine", "vm", "-O", "0", "--fuel", "5000"]) == 3
    assert cli_main(["run", str(spin), "--engine", "vm", "-O", "2", "--fuel", "5000"]) == 3
print("cli flags + exit codes: ok")

# Serialized images and the compile cache: compile -o IMAGE -> run IMAGE ->
# batch over a corpus, with the cache isolated to a scratch directory.
import json
import os

with tempfile.TemporaryDirectory() as tmp:
    os.environ["REPRO_GRADUAL_CACHE_DIR"] = str(pathlib.Path(tmp) / "cache")
    try:
        corpus = pathlib.Path(tmp) / "corpus"
        corpus.mkdir()
        square_src = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
        (corpus / "square.grad").write_text(square_src)
        (corpus / "spin.grad").write_text(
            "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
        )
        image = pathlib.Path(tmp) / "square.gradb"
        assert cli_main(["compile", str(corpus / "square.grad"), "-O", "2",
                         "-o", str(image)]) == 0
        assert cli_main(["run", str(image), "--show-space"]) == 0
        assert cli_main(["compile", str(image)]) == 0  # provenance + disassembly
        # A cold then a warm cached run agree; --no-cache still agrees.
        assert cli_main(["run", str(corpus / "square.grad"), "--engine", "vm"]) == 0
        assert cli_main(["run", str(corpus / "square.grad"), "--engine", "vm"]) == 0
        assert cli_main(["run", str(corpus / "square.grad"), "--engine", "vm",
                         "--no-cache"]) == 0
        # Loaded images reproduce the in-memory run exactly.
        from repro.compiler import (
            compile_term as compile_vm,
            disassemble as disassemble_vm,
            load_image,
            run_code,
        )
        from repro.surface.interp import compile_source

        term_b, _ = compile_source(square_src)
        fresh_code = compile_vm(term_b)
        loaded = load_image(image)
        assert disassemble_vm(loaded.code) == disassemble_vm(fresh_code)
        assert run_code(loaded.code).python_value() == run_code(fresh_code).python_value()
        # The batch runner streams JSON-lines and exits 3 (timeout beats value).
        assert cli_main(["batch", str(corpus), "--workers", "2", "--fuel", "5000"]) == 3
        from repro.api import RunConfig
        from repro.batch import run_batch

        config = RunConfig(engine="vm", fuel=5000, cache=True)
        results, aggregate = run_batch([corpus], config, workers=1)
        json.dumps(results), json.dumps(aggregate)
        assert aggregate["outcomes"] == {"value": 1, "blame": 0, "timeout": 1, "error": 0}
        assert aggregate["cache"]["hit"] >= 1  # square was cached by the runs above
    finally:
        del os.environ["REPRO_GRADUAL_CACHE_DIR"]
print("images + compile cache + batch: ok")

# The persistent evaluation service: a real server subprocess, concurrent
# warm/cold requests, one worker SIGKILLed by fault injection (scoped to a
# single dispatch), and a graceful drain.  Every request must get exactly
# one terminal response.
import signal
import subprocess
import sys
import threading

from repro.serve.client import ServeClient
from repro.serve.protocol import TERMINAL_KINDS

with tempfile.TemporaryDirectory() as tmp:
    env = dict(
        os.environ,
        REPRO_GRADUAL_CACHE_DIR=str(pathlib.Path(tmp) / "cache"),
        # Kill the worker on exactly one dispatch: the retry must absorb it.
        REPRO_GRADUAL_FAULTS="worker_kill:1.0:1",
        REPRO_GRADUAL_FAULTS_SEED="20150613",
    )
    env.setdefault("PYTHONPATH", str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sock = str(pathlib.Path(tmp) / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         "--workers", "2", "--retries", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["event"] == "ready", ready

    square_src = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
    blame_src = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
    requests = [(f"c{i}", square_src if i % 2 else blame_src) for i in range(8)]
    responses: dict[str, dict] = {}

    def fire(rid: str, source: str) -> None:
        with ServeClient.from_ready(ready) as client:
            responses[rid] = client.run(source, id=rid)

    threads = [threading.Thread(target=fire, args=pair) for pair in requests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(responses) == len(requests), responses
    for rid, source in requests:
        response = responses[rid]
        assert response["id"] == rid
        assert response["kind"] in TERMINAL_KINDS, response
        # The single scoped kill is absorbed by a retry: no worker-lost.
        assert response["kind"] in ("value", "blame"), response
    # Warm repeat on one connection, then stats and a graceful SIGTERM drain.
    with ServeClient.from_ready(ready) as client:
        warm = client.run(square_src)
        assert warm["kind"] == "value" and warm["cache"] in ("warm", "hit")
        stats = client.stats()
        assert stats["pool"]["crashes"] == 1 and stats["pool"]["lost"] == 0
    proc.send_signal(signal.SIGTERM)
    _out, _err = proc.communicate(timeout=30)
    assert proc.returncode == 0, _err
print("serve + chaos + drain: ok")

# The rational-programmer experiment: one generated program, inline runner,
# blame-following must localize under Natural and erasure must never blame.
from repro.experiment import ExperimentConfig, run_experiment
from repro.gen import generate_corpus

exp_config = ExperimentConfig(
    semantics=("coercion", "erasure"), workers=0, max_configs=8,
    starts_per_fault=2, faults_per_program=2, seed=0,
)
_trails, exp_report = run_experiment(generate_corpus(1, seed=0, bindings=4), exp_config)
assert exp_report["semantics"]["coercion"]["localized"] >= 1, exp_report
assert exp_report["semantics"]["erasure"]["blame_records"] == 0, exp_report
json.dumps(exp_report)
print("rational-programmer experiment: ok")
