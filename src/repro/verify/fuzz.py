"""Differential alias fuzzer over all five disambiguation backends.

Generates adversarial little regions — dense MAY graphs from symbolic
offsets, exact/partial overlap mixes, narrow-within-wide widths,
cache-line-straddling accesses, slow store values, late addresses — and
runs each one under every backend, checking both oracles:

* **value**: ``golden_execute(graph, envs).matches(...)`` (program-order
  hash-token execution), and
* **timing**: :func:`repro.verify.sanitizer.sanitize_trace` over the
  traced event stream.

and — when enabled — two *static* cross-checks that need no execution
at all:

* **alias oracle** (``oracle=True``): every stage-1..4 NO/MUST verdict
  is compared against the independent stage-5 separation-logic oracle
  (:func:`repro.compiler.aliasing.stage5.oracle_verdict`); a
  contradiction means a compiler stage is unsound.
* **sync coverage** (``coverage=True``): the compiled MDE set must
  cover every happens-before pair the oracle requires
  (:func:`repro.compiler.coverage.check_sync_coverage`).

Any failure is shrunk to a locally-minimal region (greedy delta
debugging over ops, invocations, and op attributes) and reported as a
:class:`FuzzFailure` that :mod:`repro.verify.reproduce` can serialize
into a standalone JSON repro.

Everything is deterministic in the seed: region *k* of ``--seed S`` is
``RegionSpec`` generated from ``random.Random(S * 1_000_003 + k)``;
symbol bounds come from an independent second stream so the op/env
streams of historical seeds are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.compiler.aliasing.stage5 import OracleVerdict, oracle_verdict
from repro.compiler.coverage import CoverageGap, check_sync_coverage
from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.memory import MemoryHierarchy
from repro.obs.tracer import Tracer
from repro.sim import (
    DataflowEngine,
    NachosBackend,
    NachosSWBackend,
    OptLSQBackend,
    SerialMemBackend,
    SpecLSQBackend,
    golden_execute,
)
from repro.verify.sanitizer import SanitizerReport, sanitize_trace

BACKENDS: Dict[str, Callable] = {
    "opt-lsq": OptLSQBackend,
    "spec-lsq": SpecLSQBackend,
    "serial-mem": SerialMemBackend,
    "nachos-sw": NachosSWBackend,
    "nachos": NachosBackend,
}
#: Systems whose compiled MDEs are part of the contract under test.
NEEDS_MDES = frozenset({"nachos-sw", "nachos"})

#: Offsets chosen to collide: exact duplicates, partial overlaps at
#: every width, and accesses straddling the 64-byte line boundary.
OFFSET_POOL = (0, 1, 2, 4, 6, 8, 12, 16, 56, 60, 62, 63, 64, 66, 72, 120, 124, 128)
WIDTHS = (1, 2, 4, 8)
SYM_VALUES = (0, 1, 2, 3, 4, 6, 8)


@dataclass(frozen=True)
class MemOpSpec:
    """One memory op of a fuzzed region."""

    is_store: bool
    offset: int            # constant byte offset (or base for symbolic)
    width: int
    sym: Optional[str] = None   # symbolic term name (None = constant addr)
    stride: int = 0             # coefficient of the symbolic term
    slow: int = 0               # fdiv-chain length delaying a store value
    late_addr: bool = False     # address arrival gated on a prior load
    value_from_load: bool = False  # store value derived from a prior load


@dataclass(frozen=True)
class RegionSpec:
    """A fuzzed region: ops + invocation environments, fully declarative.

    ``sym_bounds`` optionally declares an inclusive value range per
    symbol name (region-level, so every op sharing the symbol sees the
    same :class:`~repro.ir.address.Sym`).  Declared bounds must contain
    every environment's value for that symbol — they feed the stage-5
    checker, and a violated bound would make its verdicts wrong rather
    than the backends'.
    """

    name: str
    ops: Tuple[MemOpSpec, ...]
    envs: Tuple[Tuple[Tuple[str, int], ...], ...]  # sorted (key, value) pairs
    size: int = 4096
    sym_bounds: Tuple[Tuple[str, Tuple[int, int]], ...] = ()

    def env_dicts(self) -> List[Dict[str, int]]:
        return [dict(pairs) for pairs in self.envs]


@dataclass
class FuzzFailure:
    """One backend (or static checker) disagreeing with an oracle.

    Dynamic failures (a backend against the golden model / sanitizer)
    have ``static_kind is None``.  Static failures
    carry ``system="static"``, ``static_kind`` in ``{"oracle",
    "coverage"}``, the located findings, and — for injected faults —
    the ``fault_seed`` that reproduces the flipped verdict.
    """

    spec: RegionSpec
    system: str
    oracle_ok: bool
    sanitizer: SanitizerReport
    shrunk_from: Optional[int] = None  # op count before shrinking
    static_kind: Optional[str] = None    # "oracle" | "coverage"
    static_findings: Tuple[str, ...] = ()
    fault_seed: Optional[int] = None     # seeded stage-fault that was injected

    def describe(self) -> str:
        parts = [f"{self.system} failed on {self.spec.name} "
                 f"({len(self.spec.ops)} mem ops, {len(self.spec.envs)} inv)"]
        if self.static_kind == "oracle":
            parts.append("  stage verdict contradicts the separation-logic "
                         "oracle" + (f" [injected fault seed {self.fault_seed}]"
                                     if self.fault_seed is not None else ""))
        elif self.static_kind == "coverage":
            parts.append("  compiled MDE set leaves oracle-required "
                         "happens-before pairs uncovered")
        for finding in self.static_findings[:5]:
            parts.append(f"  {finding}")
        if self.static_kind is None and not self.oracle_ok:
            parts.append("  golden-model mismatch (wrong load value or "
                         "final memory image)")
        if not self.sanitizer.ok:
            for v in self.sanitizer.violations[:5]:
                parts.append(f"  {v}")
        if self.shrunk_from is not None:
            parts.append(f"  (shrunk from {self.shrunk_from} ops)")
        return "\n".join(parts)


@dataclass
class FuzzResult:
    """Outcome of a fuzzing campaign."""

    regions: int = 0
    runs: int = 0
    static_checks: int = 0  # regions also cross-checked statically
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_spec(seed: int, index: int) -> RegionSpec:
    """Region *index* of campaign *seed* (deterministic)."""
    rng = random.Random(seed * 1_000_003 + index)
    n_ops = rng.randint(3, 8)
    ops: List[MemOpSpec] = []
    syms: List[str] = []
    for i in range(n_ops):
        is_store = rng.random() < 0.55
        width = rng.choice(WIDTHS)
        mode = rng.random()
        if mode < 0.3 and ops:
            # Exact collision: clone an earlier op's address so MUST
            # pairs (and FORWARD edges) form; this is what arms the
            # forward-chain patterns.
            prev = rng.choice(ops)
            spec = MemOpSpec(
                is_store=is_store,
                offset=prev.offset,
                width=prev.width,
                sym=prev.sym,
                stride=prev.stride,
            )
        elif mode < 0.55 and (syms or rng.random() < 0.7):
            # Symbolic offset: reuse a sym for dense MAY graphs, or mint
            # a fresh one.
            if syms and rng.random() < 0.6:
                sym = rng.choice(syms)
            else:
                sym = f"s{len(syms)}"
                syms.append(sym)
            spec = MemOpSpec(
                is_store=is_store,
                offset=rng.choice((0, 4, 8, 56, 60)),
                width=width,
                sym=sym,
                stride=rng.choice((1, 2, 4, 8)),
            )
        else:
            spec = MemOpSpec(
                is_store=is_store,
                offset=rng.choice(OFFSET_POOL),
                width=width,
            )
        if is_store and rng.random() < 0.4:
            spec = replace(spec, slow=rng.randint(2, 6))
        if is_store and rng.random() < 0.35:
            # Forward-chain pressure: a store whose value rides on a
            # prior load couples that load's (possibly forwarded)
            # completion into this store's issue time.
            spec = replace(spec, value_from_load=True)
        if rng.random() < 0.2:
            spec = replace(spec, late_addr=True)
        ops.append(spec)
    if not any(o.is_store for o in ops):
        ops[rng.randrange(len(ops))] = replace(ops[0], is_store=True)

    n_inv = rng.choice((1, 1, 2, 3))
    envs = []
    for _ in range(n_inv):
        env = {"x": rng.randrange(1, 1 << 16)}
        for s in syms:
            env[s] = rng.choice(SYM_VALUES)
        envs.append(tuple(sorted(env.items())))
    # Symbol bounds come from an independent stream so the op/env streams
    # above stay byte-identical for historical seeds.  Half the symbols
    # get the tight (and true: SYM_VALUES ⊆ [0, 8]) declared range, which
    # arms the stage-5 enumeration and interval paths.
    rng_bounds = random.Random(seed * 1_000_003 + index + 987_654_321)
    sym_bounds = tuple(
        (s, (0, max(SYM_VALUES))) for s in syms if rng_bounds.random() < 0.5
    )
    return RegionSpec(
        name=f"fuzz-{seed}-{index}",
        ops=ops_tuple(ops),
        envs=tuple(envs),
        sym_bounds=sym_bounds,
    )


def ops_tuple(ops: Sequence[MemOpSpec]) -> Tuple[MemOpSpec, ...]:
    return tuple(ops)


def build_graph(spec: RegionSpec):
    """Materialize a RegionSpec as a fresh DFGraph (no MDEs installed)."""
    obj = MemObject("a", spec.size, base_addr=0x1000)
    b = RegionBuilder(spec.name)
    x = b.input("x")
    # One canonical Sym per name: bounds live on the Sym, and AffineExpr
    # cancellation needs every op sharing a name to share the object.
    bounds = dict(spec.sym_bounds)
    sym_objs: Dict[str, Sym] = {}

    def sym_of(name: str) -> Sym:
        if name not in sym_objs:
            lo, hi = bounds.get(name, (None, None))
            sym_objs[name] = Sym(name, lo=lo, hi=hi)
        return sym_objs[name]

    last_load = None
    for i, m in enumerate(spec.ops):
        if m.sym is not None:
            expr = AffineExpr.of(const=m.offset, syms={sym_of(m.sym): m.stride})
        else:
            expr = AffineExpr.constant(m.offset)
        inputs: List = []
        if m.late_addr and last_load is not None:
            inputs = [b.gep(last_load)]
        if m.is_store:
            base_v = last_load if (m.value_from_load and last_load is not None) else x
            v = b.add(base_v, b.const(i + 1))
            for _ in range(m.slow):
                v = b.fdiv(v, x)
            b.store(obj, expr, value=v, width=m.width, inputs=inputs)
        else:
            last_load = b.load(obj, expr, width=m.width, inputs=inputs)
    return b.build()


# ----------------------------------------------------------------------
# Differential execution
# ----------------------------------------------------------------------
def run_spec(
    spec: RegionSpec, system: str
) -> Tuple[bool, SanitizerReport]:
    """Run one region under one backend; return (oracle_ok, sanitizer)."""
    graph = build_graph(spec)
    if system in NEEDS_MDES:
        compile_region(graph)
    else:
        graph.clear_mdes()
    tracer = Tracer()
    engine = DataflowEngine(
        graph,
        place_region(graph),
        MemoryHierarchy(),
        BACKENDS[system](),
        tracer=tracer,
    )
    envs = spec.env_dicts()
    result = engine.run(envs)
    golden = golden_execute(graph, envs)
    oracle_ok = golden.matches(result.load_values, result.memory_image)
    report = sanitize_trace(
        tracer.events, graph, system, region=spec.name
    )
    return oracle_ok, report


def check_spec(spec: RegionSpec, systems: Sequence[str]) -> List[FuzzFailure]:
    failures = []
    for system in systems:
        oracle_ok, report = run_spec(spec, system)
        if not oracle_ok or not report.ok:
            failures.append(FuzzFailure(spec, system, oracle_ok, report))
    return failures


# ----------------------------------------------------------------------
# Static cross-checks: stage verdicts vs the oracle, MDE sync coverage
# ----------------------------------------------------------------------
def _op_desc(graph, op_id: int) -> str:
    op = graph.op(op_id)
    kind = "ld" if op.is_load else "st"
    name = op.name or f"op{op_id}"
    return f"{kind}#{op_id}({name}) {op.addr!r}"


@dataclass(frozen=True)
class StaticContradiction:
    """A stage-1..4 NO/MUST verdict the separation-logic oracle refutes.

    The oracle is at least as precise as stages 1--4 (same TBAA axiom,
    heaplets subsuming stage-2 provenance, the same enumeration budget),
    so on a sound compiler no contradiction can fire: a stage ``NO``
    with the oracle proving overlap possible, or a stage ``MUST`` with
    the oracle proving disjointness possible, means the *stage* is
    wrong.
    """

    stage: str
    older: int
    younger: int
    stage_label: AliasLabel
    oracle: OracleVerdict
    older_desc: str
    younger_desc: str

    def __str__(self) -> str:
        if self.stage_label is AliasLabel.NO:
            why = "the oracle proves the pair can overlap"
        else:
            why = "the oracle proves the pair can be disjoint"
        return (
            f"{self.stage} labeled {self.stage_label.value.upper()} but {why}: "
            f"{self.older_desc} vs {self.younger_desc} "
            f"[oracle: {self.oracle.label.value.upper()} "
            f"via {self.oracle.decided_by}]"
        )


def _stage_matrices(result) -> List[Tuple[str, AliasMatrix]]:
    """The stage-1..4 matrices of one compilation, in refinement order."""
    out: List[Tuple[str, AliasMatrix]] = [("stage 1", result.stage1)]
    if result.stage2 is not None:
        out.append(("stage 2", result.stage2))
    if result.stage4 is not None:
        out.append(("stage 4", result.stage4))
    return out


def _eligible_fault_pairs(graph, matrix: AliasMatrix) -> List[Tuple[int, int]]:
    """MAY pairs the oracle *knows* can overlap.

    Flipping one of these to NO is a guaranteed-detectable unsoundness:
    the injected fault contradicts positive oracle knowledge, never a
    both-sides-uncertain stalemate.
    """
    out: List[Tuple[int, int]] = []
    for older, younger in matrix.pairs(AliasLabel.MAY):
        v = oracle_verdict(graph, older, younger)
        if v.label is AliasLabel.MUST or v.can_overlap is True:
            out.append((older, younger))
    return out


def crosscheck_stages(
    spec: RegionSpec, fault_seed: Optional[int] = None
) -> List[StaticContradiction]:
    """Cross-check every stage-1..4 NO/MUST verdict against the oracle.

    With ``fault_seed`` set, one eligible MAY pair of the final
    stage-1..4 matrix is flipped to NO *in a copy, at check time* — the
    executed enforcement is untouched — which must surface as a
    contradiction whenever the region has an eligible pair at all.
    """
    graph = build_graph(spec)
    result = compile_region(graph)
    matrices = _stage_matrices(result)
    if fault_seed is not None:
        faulted = result.pre_stage5_labels.copy()
        eligible = _eligible_fault_pairs(graph, faulted)
        if eligible:
            older, younger = eligible[fault_seed % len(eligible)]
            faulted.set(older, younger, AliasLabel.NO)
            matrices.append(("injected stage fault", faulted))
    cache: Dict[Tuple[int, int], OracleVerdict] = {}
    contradictions: List[StaticContradiction] = []
    for stage_name, matrix in matrices:
        for (older, younger), label in matrix:
            if label is AliasLabel.MAY:
                continue  # MAY can never contradict the oracle
            verdict = cache.get((older, younger))
            if verdict is None:
                verdict = oracle_verdict(graph, older, younger)
                cache[(older, younger)] = verdict
            unsound_no = label is AliasLabel.NO and (
                verdict.label is AliasLabel.MUST or verdict.can_overlap is True
            )
            unsound_must = label is AliasLabel.MUST and (
                verdict.label is AliasLabel.NO or verdict.always_overlaps is False
            )
            if unsound_no or unsound_must:
                contradictions.append(
                    StaticContradiction(
                        stage=stage_name,
                        older=older,
                        younger=younger,
                        stage_label=label,
                        oracle=verdict,
                        older_desc=_op_desc(graph, older),
                        younger_desc=_op_desc(graph, younger),
                    )
                )
    return contradictions


def coverage_gaps_spec(spec: RegionSpec) -> List[CoverageGap]:
    """Compile *spec* and sync-coverage-check the installed MDE set."""
    graph = build_graph(spec)
    compile_region(graph)
    return list(check_sync_coverage(graph).gaps)


def _static_oracle_fails(
    fault_seed: Optional[int],
) -> Callable[[RegionSpec, str], bool]:
    """Shrink predicate factory for oracle contradictions."""

    def fails(spec: RegionSpec, system: str) -> bool:
        try:
            return bool(crosscheck_stages(spec, fault_seed=fault_seed))
        except Exception:
            return False  # a repro must contradict, not crash elsewhere
    return fails


def _static_coverage_fails(spec: RegionSpec, system: str) -> bool:
    """Shrink predicate: does *spec* still have a coverage gap?"""
    try:
        return bool(coverage_gaps_spec(spec))
    except Exception:
        return False


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _still_fails(spec: RegionSpec, system: str) -> bool:
    try:
        oracle_ok, report = run_spec(spec, system)
    except Exception:
        return False  # a repro must fail the oracles, not crash elsewhere
    return not oracle_ok or not report.ok


def shrink(
    spec: RegionSpec,
    system: str,
    fails: Optional[Callable[[RegionSpec, str], bool]] = None,
) -> RegionSpec:
    """Greedy delta-debugging to a locally-minimal failing region.

    ``fails`` defaults to the differential check (:func:`run_spec` with
    the golden oracle and sanitizer); tests may supply their own
    predicate to exercise the shrink loop in isolation.
    """
    if fails is None:
        fails = _still_fails
    current = spec
    changed = True
    while changed:
        changed = False
        # Drop whole memory ops.
        for i in range(len(current.ops)):
            if len(current.ops) <= 2:
                break
            cand = replace(
                current, ops=current.ops[:i] + current.ops[i + 1:]
            )
            if fails(cand, system):
                current, changed = cand, True
                break
        if changed:
            continue
        # Truncate invocations.
        if len(current.envs) > 1:
            cand = replace(current, envs=current.envs[:1])
            if fails(cand, system):
                current, changed = cand, True
                continue
        # Simplify op attributes: drop slow chains, late addresses,
        # symbolic terms (freezing them at their first env value).
        env0 = dict(current.envs[0]) if current.envs else {}
        for i, m in enumerate(current.ops):
            cands = []
            if m.slow:
                cands.append(replace(m, slow=0))
            if m.late_addr:
                cands.append(replace(m, late_addr=False))
            if m.value_from_load:
                cands.append(replace(m, value_from_load=False))
            if m.sym is not None:
                frozen = m.offset + m.stride * env0.get(m.sym, 0)
                cands.append(replace(m, sym=None, stride=0, offset=frozen))
            for cand_op in cands:
                cand = replace(
                    current,
                    ops=current.ops[:i] + (cand_op,) + current.ops[i + 1:],
                )
                if fails(cand, system):
                    current, changed = cand, True
                    break
            if changed:
                break
    return current


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def fuzz(
    count: int,
    seed: int = 0,
    systems: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    shrink_failures: bool = True,
    max_failures: int = 5,
    oracle: bool = False,
    coverage: bool = False,
    fault_seed: Optional[int] = None,
) -> FuzzResult:
    """Run *count* regions through the differential harness.

    ``oracle=True`` cross-checks every stage-1..4 NO/MUST verdict of
    every region against the separation-logic oracle;
    ``coverage=True`` sync-coverage-checks each region's installed MDE
    set.  Both are static — no extra executions.  ``fault_seed``
    (requires ``oracle``) flips one oracle-refutable MAY verdict to NO
    per region at check time, exercising the detection path end to end;
    regions with no refutable pair pass through unchanged.
    """
    systems = list(systems) if systems else sorted(BACKENDS)
    for s in systems:
        if s not in BACKENDS:
            raise ValueError(
                f"unknown system {s!r}; expected one of {sorted(BACKENDS)}"
            )
    if fault_seed is not None and not oracle:
        raise ValueError("fault_seed requires oracle=True")
    result = FuzzResult()
    for k in range(count):
        if progress is not None:
            progress(k, count)
        spec = generate_spec(seed, k)
        result.regions += 1
        result.runs += len(systems)
        if oracle or coverage:
            result.static_checks += 1
            static_failures: List[FuzzFailure] = []
            if oracle:
                contras = crosscheck_stages(spec, fault_seed=fault_seed)
                if contras:
                    static_failures.append(
                        FuzzFailure(
                            spec,
                            "static",
                            True,
                            SanitizerReport(backend="static", region=spec.name),
                            static_kind="oracle",
                            static_findings=tuple(str(c) for c in contras),
                            fault_seed=fault_seed,
                        )
                    )
            if coverage:
                gaps = coverage_gaps_spec(spec)
                if gaps:
                    static_failures.append(
                        FuzzFailure(
                            spec,
                            "static",
                            True,
                            SanitizerReport(backend="static", region=spec.name),
                            static_kind="coverage",
                            static_findings=tuple(str(g) for g in gaps),
                        )
                    )
            for failure in static_failures:
                if shrink_failures:
                    n_before = len(failure.spec.ops)
                    if failure.static_kind == "oracle":
                        small = shrink(
                            failure.spec,
                            "static",
                            fails=_static_oracle_fails(fault_seed),
                        )
                        findings = tuple(
                            str(c)
                            for c in crosscheck_stages(small, fault_seed=fault_seed)
                        )
                    else:
                        small = shrink(
                            failure.spec, "static", fails=_static_coverage_fails
                        )
                        findings = tuple(str(g) for g in coverage_gaps_spec(small))
                    failure = replace(
                        failure,
                        spec=small,
                        shrunk_from=n_before,
                        static_findings=findings,
                    )
                result.failures.append(failure)
                if len(result.failures) >= max_failures:
                    return result
        for failure in check_spec(spec, systems):
            if shrink_failures:
                n_before = len(failure.spec.ops)
                small = shrink(failure.spec, failure.system)
                oracle_ok, report = run_spec(small, failure.system)
                failure = FuzzFailure(
                    small, failure.system, oracle_ok, report,
                    shrunk_from=n_before,
                )
            result.failures.append(failure)
            if len(result.failures) >= max_failures:
                return result
    return result
