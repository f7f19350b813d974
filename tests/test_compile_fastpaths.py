"""The compile layer's closed-form paths against straightforward references.

Three hot loops of the compiler answer their question without visiting
every point the question ranges over.  Each must give exactly what the
plain loop gives:

* :func:`~repro.compiler.aliasing.stage5._enumerate_joint` decides a
  difference's overlap from its corner extremes plus a branch-and-bound
  search; the reference sweeps the joint domain with
  :func:`itertools.product`.
* :func:`~repro.compiler.oracle_labels.oracle_matrix` evaluates each op
  once per invocation and skips pairs whose address hulls are disjoint;
  the reference below is the per-invocation, per-pair loop.
* :meth:`~repro.compiler.labels.AliasMatrix.universe` tests each op for
  being a store once; the reference classifies every pair with
  :func:`~repro.compiler.labels.pair_kind`.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Set, Tuple

import pytest

from repro.compiler.aliasing.stage5 import _enumerate_joint
from repro.compiler.labels import AliasLabel, AliasMatrix, pair_kind
from repro.compiler.oracle_labels import oracle_matrix
from repro.ir import RegionBuilder
from repro.ir.address import AffineExpr, IVar, MemObject, Sym
from repro.workloads.generator import build_workload
from repro.workloads.micro import build_micro, micro_names
from repro.workloads.suite import benchmark_names, get_spec

LIMIT = 1 << 16


# ----------------------------------------------------------------------
# _enumerate_joint
# ----------------------------------------------------------------------
def _brute_force(diff: AffineExpr, wlo: int, whi: int, limit: int):
    """Every point of the joint domain, or ``None`` like the oracle."""
    dims = [(coeff, iv.domain) for iv, coeff in diff.iv_terms]
    for sym, coeff in diff.sym_terms:
        if not sym.bounded:
            return None
        dims.append((coeff, sym.domain))
    size = 1
    for _, domain in dims:
        size *= len(domain)
    if dims and size > limit:  # a constant is decided whatever the limit
        return None
    hits = [
        wlo <= diff.const + sum(c * v for (c, _), v in zip(dims, point)) <= whi
        for point in itertools.product(*(domain for _, domain in dims))
    ]
    return any(hits), all(hits)


def _random_difference(rng: random.Random) -> AffineExpr:
    ivs, syms = {}, {}
    for d in range(rng.randint(0, 4)):
        coeff = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 8, 16, 24, rng.randint(1, 64)))
        kind = rng.random()
        if kind < 0.45:
            ivs[IVar(f"i{d}", rng.randint(1, 7))] = coeff
        elif kind < 0.95:
            lo = rng.randint(-12, 12)
            hi = lo if rng.random() < 0.2 else lo + rng.randint(1, 6)
            syms[Sym(f"s{d}", lo, hi)] = coeff
        else:
            syms[Sym(f"u{d}")] = coeff
    return AffineExpr.of(const=rng.randint(-80, 80), ivs=ivs, syms=syms)


def _domain_size(diff: AffineExpr) -> int:
    size = 1
    for iv, _ in diff.iv_terms:
        size *= iv.trip_count
    for sym, _ in diff.sym_terms:
        if sym.bounded:
            size *= len(sym.domain)
    return size


def test_enumerate_joint_matches_brute_force():
    rng = random.Random(20260115)
    seen = {"none": 0, "no": 0, "always": 0, "sometimes": 0, "at_limit": 0}
    for _ in range(6000):
        diff = _random_difference(rng)
        wa, wb = rng.choice((1, 2, 4, 8, 16)), rng.choice((1, 2, 4, 8, 16))
        wlo, whi = -wa + 1, wb - 1
        size = _domain_size(diff)
        limit = rng.choice((LIMIT, LIMIT, size, size - 1))
        got = _enumerate_joint(diff, wlo, whi, limit)
        want = _brute_force(diff, wlo, whi, limit)
        assert got == want, f"{diff!r} window [{wlo}, {whi}] limit {limit}"
        if got is None:
            seen["none"] += 1
        elif not got[0]:
            seen["no"] += 1
        else:
            seen["always" if got[1] else "sometimes"] += 1
        if limit == size and got is not None:
            seen["at_limit"] += 1
    assert all(n > 100 for n in seen.values()), seen


def test_enumerate_joint_limit_is_inclusive():
    i, j = IVar("i", 4), IVar("j", 5)
    s = Sym("s", -3, -1)
    diff = AffineExpr.of(const=7, ivs={i: 8, j: -3}, syms={s: 2})
    assert _enumerate_joint(diff, -7, 7, 60) == _brute_force(diff, -7, 7, 60)
    assert _enumerate_joint(diff, -7, 7, 60) is not None
    assert _enumerate_joint(diff, -7, 7, 59) is None


def test_enumerate_joint_unbounded_symbol_is_none():
    i = IVar("i", 4)
    diff = AffineExpr.of(ivs={i: 8}, syms={Sym("u"): 16})
    assert _enumerate_joint(diff, -7, 7, LIMIT) is None


# ----------------------------------------------------------------------
# oracle_matrix
# ----------------------------------------------------------------------
def _reference_oracle_matrix(graph, envs) -> Tuple[AliasMatrix, Set[Tuple[int, int]]]:
    """The per-invocation, per-pair ground-truth loop."""
    matrix = AliasMatrix.universe(graph, default=AliasLabel.NO)
    ops = {op.op_id: op for op in graph.memory_ops}
    pairs = matrix.pairs()
    always_exact = set(pairs)
    ever_overlap: Set[Tuple[int, int]] = set()

    for env in envs:
        concrete = {
            oid: (op.addr.evaluate(env), op.addr.width) for oid, op in ops.items()
        }
        for older, younger in pairs:
            a, wa = concrete[older]
            b, wb = concrete[younger]
            if a < b + wb and b < a + wa:
                ever_overlap.add((older, younger))
            if not (a == b and wa == wb):
                always_exact.discard((older, younger))

    for pair in pairs:
        matrix.labels[pair] = (
            AliasLabel.MUST if pair in ever_overlap else AliasLabel.NO
        )
    return matrix, always_exact & ever_overlap


REGIONS = [f"micro.{name}" for name in micro_names()] + benchmark_names()


@functools.lru_cache(maxsize=None)
def _workload(region: str):
    """Every micro region and every suite benchmark's path-0 region."""
    if region.startswith("micro."):
        return build_micro(region[len("micro."):])
    return build_workload(get_spec(region), path_index=0)


@pytest.mark.parametrize("invocations", (0, 1, 40))
@pytest.mark.parametrize("region", REGIONS)
def test_oracle_matrix_matches_reference(region, invocations):
    workload = _workload(region)
    envs = workload.invocations(invocations)
    matrix, exact = oracle_matrix(workload.graph, iter(envs))
    want_matrix, want_exact = _reference_oracle_matrix(workload.graph, envs)
    assert list(matrix.labels.items()) == list(want_matrix.labels.items())
    assert exact == want_exact


def _random_byte_region(rng: random.Random):
    """Six loads/stores of mixed widths at symbolic byte offsets, so
    footprints often touch or overlap only at the edge of their hulls."""
    obj = MemObject("a", 256, base_addr=0x1000)
    syms = [Sym(f"s{k}") for k in range(3)]
    b = RegionBuilder("bytes")
    x = b.input("x")
    for _ in range(6):
        offset = AffineExpr.of(const=rng.randint(0, 12), syms={rng.choice(syms): 1})
        width = rng.choice((1, 2, 4, 8))
        if rng.random() < 0.5:
            b.store(obj, offset, value=x, width=width)
        else:
            b.load(obj, offset, width=width)
    envs = [
        {s.name: rng.randint(0, 8) for s in syms}
        for _ in range(rng.choice((1, 2, 3, 6)))
    ]
    return b.build(), envs


def test_oracle_matrix_matches_reference_on_byte_footprints():
    rng = random.Random(7)
    for _ in range(300):
        graph, envs = _random_byte_region(rng)
        matrix, exact = oracle_matrix(graph, envs)
        want_matrix, want_exact = _reference_oracle_matrix(graph, envs)
        assert list(matrix.labels.items()) == list(want_matrix.labels.items())
        assert exact == want_exact


# ----------------------------------------------------------------------
# AliasMatrix.universe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("region", REGIONS)
def test_universe_matches_pair_kind(region):
    graph = _workload(region).graph
    mem = graph.memory_ops
    want = [
        (older.op_id, younger.op_id)
        for i, older in enumerate(mem)
        for younger in mem[i + 1:]
        if pair_kind(older, younger) is not None
    ]
    assert list(AliasMatrix.universe(graph).labels) == want
