"""Bytecode compiler and coercion-aware VM — the fast λS engine.

The pipeline (surface → λB → bytecode → VM)::

    elaborated λB term
        │  repro.compiler.lower      each cast through |·|BS where it is found
        │                            (Section 5.2), lexical addressing,
        │                            interned canonical coercions
        ▼
    CodeObject over a ConstantPool   (repro.compiler.bytecode), the same
        │                            for every semantics
        │  lower.with_semantics      the pool mapped through the semantics'
        ▼                            pre_intern, into a fresh copy
    CodeObject of one semantics
        │  repro.compiler.opt        identity elision, static pre-composition
        ▼                            (the one stream both engines read)
    optimized CodeObject
        │  repro.compiler.vm         runs it: integer dispatch, pending-
        │                            coercion slot, -O2 inline caches
        │  repro.compiler.regalloc   or converts it: stack → register IR,
        ▼                            packed words (repro.compiler.rvm)
    MachineOutcome (value / blame / timeout) with space statistics

No λC or λS tree is built on the way: the translations ``b_to_c`` and
``c_to_s`` (Figures 4 & 6) stay the paper's executable reference, and
lowering a λB term gives exactly the code of lowering its λS image.
The CEK machine (:mod:`repro.machine`) remains the oracle for both VMs:
``repro.properties.bisimulation.check_oracle_matrix`` runs them, the
machine and the substitution reducer through ``repro.api.run`` and
compares observables.
"""

from __future__ import annotations

from .bytecode import CodeObject, ConstantPool, all_code_objects, opcode_fingerprint
from .cache import CacheOutcome, cache_path, cached_compile, default_cache_dir
from .disasm import (
    disassemble,
    disassemble_image,
    disassemble_registers,
    instruction_streams,
    parse_disassembly,
    parse_register_disassembly,
    register_streams,
)
from .lower import lower_program
from .opt import DEFAULT_OPT_LEVEL, OPT_LEVELS, optimize
from .regalloc import RCode, all_rcodes, compile_registers, register_fingerprint
from .rvm import (
    RVM,
    THE_RVM,
    RClosure,
    compile_register_program,
    run_rcode,
)
from .serialize import (
    FORMAT_VERSION,
    GRADB_MAGIC,
    GRADB_SUFFIX,
    ImageError,
    ImageInfo,
    LoadedImage,
    deserialize_image,
    load_image,
    save_image,
    serialize_image,
    source_fingerprint,
)
from .vm import (
    DEFAULT_VM_FUEL,
    THE_VM,
    VM,
    VMClosure,
    compile_term,
    run_code,
)

__all__ = [
    "CodeObject",
    "ConstantPool",
    "all_code_objects",
    "opcode_fingerprint",
    "CacheOutcome",
    "cache_path",
    "cached_compile",
    "default_cache_dir",
    "disassemble",
    "disassemble_image",
    "disassemble_registers",
    "instruction_streams",
    "parse_disassembly",
    "parse_register_disassembly",
    "register_streams",
    "FORMAT_VERSION",
    "GRADB_MAGIC",
    "GRADB_SUFFIX",
    "ImageError",
    "ImageInfo",
    "LoadedImage",
    "deserialize_image",
    "load_image",
    "save_image",
    "serialize_image",
    "source_fingerprint",
    "lower_program",
    "DEFAULT_OPT_LEVEL",
    "OPT_LEVELS",
    "optimize",
    "DEFAULT_VM_FUEL",
    "THE_VM",
    "VM",
    "VMClosure",
    "compile_term",
    "run_code",
    "RCode",
    "all_rcodes",
    "compile_registers",
    "register_fingerprint",
    "RVM",
    "THE_RVM",
    "RClosure",
    "compile_register_program",
    "run_rcode",
]
