"""Oracle labeling: the limit of *any* static alias analysis.

Builds the alias matrix a hypothetically perfect compiler would produce
for a given trace: a pair is ``NO`` when its addresses never overlap in
any invocation of the trace, ``MUST`` when they overlap in at least one
(a static schedule must order the pair for the whole run — it cannot
order it "only on Tuesdays").

This is the software-only performance ceiling: NACHOS-SW with oracle
labels.  The gap between it and NACHOS measures what *per-invocation*
hardware checking buys beyond anything a compiler could ever prove —
nonzero exactly on data-dependent access patterns, where the same pair
conflicts in some invocations and not others.

The labels are trace-specific by construction; running them against a
different trace would be unsound.  Use them only for limit studies.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Set, Tuple

from repro.compiler.aliasing.stage3 import prune_stage3
from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.compiler.mde import insert_mdes
from repro.ir.graph import DFGraph


def oracle_matrix(
    graph: DFGraph, envs: Iterable[Mapping[str, int]]
) -> Tuple[AliasMatrix, Set[Tuple[int, int]]]:
    """Ground-truth labels for *graph* over *envs*.

    Returns the matrix plus the pairs that are an exact (same address,
    same width) match in **every** invocation — the only pairs a static
    schedule could safely forward.
    """
    matrix = AliasMatrix.universe(graph, default=AliasLabel.NO)
    envs = list(envs)
    # Per op: its address in every invocation, its width, and the hull
    # [min, max + width) its footprints span across the trace.
    concrete = {}
    for op in graph.memory_ops:
        addrs = tuple(op.addr.evaluate(env) for env in envs)
        width = op.addr.width
        hull = (min(addrs), max(addrs) + width) if addrs else (0, 0)
        concrete[op.op_id] = (addrs, width, hull)
    always_exact: Set[Tuple[int, int]] = set()

    for pair in matrix.labels:
        va, wa, (lo_a, hi_a) = concrete[pair[0]]
        vb, wb, (lo_b, hi_b) = concrete[pair[1]]
        if lo_a >= hi_b or lo_b >= hi_a:
            continue  # disjoint hulls (or an empty trace): never overlap
        if va == vb and wa == wb:
            # Same address and width in every invocation: always an
            # exact, overlapping match.
            matrix.labels[pair] = AliasLabel.MUST
            always_exact.add(pair)
            continue
        for a, b in zip(va, vb):
            if a < b + wb and b < a + wa:
                matrix.labels[pair] = AliasLabel.MUST
                break
    return matrix, always_exact


def compile_with_oracle(
    graph: DFGraph, envs: Iterable[Mapping[str, int]], apply: bool = True
):
    """Install the oracle compiler's MDEs on *graph*; returns the edges."""
    envs = list(envs)
    matrix, exact = oracle_matrix(graph, envs)
    plan = prune_stage3(graph, matrix)
    return insert_mdes(graph, plan, exact, matrix, apply=apply)
