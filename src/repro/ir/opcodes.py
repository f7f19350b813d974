"""Opcodes for dataflow-region operations.

The CGRA in the paper maps one operation per functional unit (a 32x32 grid
of homogeneous units, Dyser-style).  We model the operation mix the paper's
regions exhibit: integer ALU ops, floating-point ops, address generation,
constants/region inputs, and the two memory operations.

Latencies follow the cycle model of the paper's framework (Figure 3 and the
Chainsaw simulator it builds on): single-cycle integer ops, multi-cycle
floating point, and memory latency determined by the cache hierarchy rather
than the opcode.
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Operation kinds supported in an acceleration region."""

    # Hash by identity, not by name: members are singletons and the
    # simulator looks opcodes up in sets and dicts on every event.
    __hash__ = object.__hash__

    # Region plumbing.
    INPUT = "input"      # live-in value (from the host CPU / scratchpad)
    CONST = "const"      # compile-time constant

    # Integer compute.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SHIFT = "shift"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP = "cmp"
    SELECT = "select"    # predicated select (superblocks are branch-free)

    # Floating point compute.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"

    # Address generation (LLVM getelementptr analogue).
    GEP = "gep"

    # Scratchpad accesses: local data the compiler promoted out of the
    # coherent memory space (needs no disambiguation, 1-cycle access).
    SPAD_LOAD = "spad_load"
    SPAD_STORE = "spad_store"

    # Memory.
    LOAD = "load"
    STORE = "store"


#: Cycles each opcode occupies its functional unit.  Memory operations
#: list only the issue latency; completion is determined by the memory
#: hierarchy and the disambiguation backend.
_LATENCY = {
    Opcode.INPUT: 0,
    Opcode.CONST: 0,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 3,
    Opcode.SHIFT: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.CMP: 1,
    Opcode.SELECT: 1,
    Opcode.FADD: 3,
    Opcode.FSUB: 3,
    Opcode.FMUL: 4,
    Opcode.FDIV: 12,
    Opcode.GEP: 1,
    Opcode.SPAD_LOAD: 1,
    Opcode.SPAD_STORE: 1,
    Opcode.LOAD: 1,
    Opcode.STORE: 1,
}

_FP_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
_MEMORY_OPS = frozenset({Opcode.LOAD, Opcode.STORE})
_PLUMBING_OPS = frozenset({Opcode.INPUT, Opcode.CONST})


def latency_of(opcode: Opcode) -> int:
    """Return the functional-unit occupancy (cycles) of *opcode*."""
    return _LATENCY[opcode]


def is_fp(opcode: Opcode) -> bool:
    """Return True for floating-point compute opcodes."""
    return opcode in _FP_OPS


def is_memory(opcode: Opcode) -> bool:
    """Return True for LOAD/STORE."""
    return opcode in _MEMORY_OPS


def is_compute(opcode: Opcode) -> bool:
    """Return True for opcodes that execute on an ALU (incl. GEP)."""
    return opcode not in _MEMORY_OPS and opcode not in _PLUMBING_OPS
