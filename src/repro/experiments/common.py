"""Shared experiment plumbing: build, compile, place, simulate, compare.

The three evaluated systems (paper Section III):

* ``opt-lsq``    — no MDEs; the banked CAM + bloom LSQ orders memory,
* ``nachos-sw``  — full 4-stage pipeline; MAY edges serialized,
* ``nachos``     — full pipeline; MAY edges runtime-checked,

plus the ablation/extension systems:

* ``baseline-sw`` — stages 1+3 only (no inter-procedural, no polyhedral),
  enforced in software (Figure 12),
* ``spec-lsq``    — the store-set speculative LSQ ablation,
* ``serial-mem``  — strictly in-order memory (the Table I CFU class),
* ``oracle-sw``   — software-only with perfect trace-derived alias
  knowledge (the limit study's compiler ceiling).

Compilation never mutates ``workload.graph``: every system compiles
into a :meth:`~repro.ir.graph.DFGraph.clone`, so the workload object
stays pristine across systems and figures (and is safe to ship to
worker processes).

Both compile and simulation results are memoized twice over — an
in-process table for repeat calls within one ``nachos-repro all``, and
the content-addressed on-disk cache (:mod:`repro.runtime.cache`) shared
across processes and invocations.  ``nachos-sw`` and ``nachos`` share
one ``PipelineConfig.full()`` compile; correctness is always computed
on a cache miss and stored, so ``check=False`` callers can share
entries with ``check=True`` callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cgra.config import CGRAConfig
from repro.cgra.placement import Placement, place_region
from repro.compiler.oracle_labels import compile_with_oracle
from repro.compiler.pipeline import AliasPipeline, PipelineConfig, PipelineResult
from repro.ir.graph import DFGraph
from repro.memory.config import HierarchyConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.runtime.cache import ResultCache, get_cache
from repro.runtime.fingerprint import (
    combine,
    config_fingerprint,
    envs_fingerprint,
    graph_fingerprint,
)
from repro.sim.backends.lsq import LSQConfig, OptLSQBackend
from repro.sim.backends.nachos_hw import NachosBackend
from repro.sim.backends.nachos_sw import NachosSWBackend
from repro.sim.backends.serial import SerialMemBackend
from repro.sim.backends.spec_lsq import SpecLSQBackend
from repro.sim.config import EngineConfig
from repro.sim.factory import make_engine
from repro.sim.oracle import golden_execute
from repro.sim.result import SimResult
from repro.workloads.generator import Workload

SYSTEMS = ("opt-lsq", "nachos-sw", "nachos")

#: Default invocation count per region: enough to reach steady cache
#: behaviour while keeping the whole 27-benchmark sweep fast.
DEFAULT_INVOCATIONS = 40


@dataclass
class SystemRun:
    """One system's simulation of one workload."""

    system: str
    sim: SimResult
    pipeline: Optional[PipelineResult]
    correct: bool
    #: MDE count on the graph this system actually simulated (0 for the
    #: LSQ/serial systems, the oracle's edge count for ``oracle-sw``).
    n_mdes: int = 0


@dataclass
class ComparisonResult:
    """All systems on one workload."""

    workload: Workload
    runs: Dict[str, SystemRun] = field(default_factory=dict)

    def cycles(self, system: str) -> int:
        return self.runs[system].sim.cycles

    def slowdown_pct(self, system: str, baseline: str = "opt-lsq") -> float:
        """Positive = *system* slower than *baseline* (Figure 11/15 axis)."""
        return self.runs[system].sim.slowdown_pct_vs(self.runs[baseline].sim)

    def energy(self, system: str) -> float:
        return self.runs[system].sim.total_energy

    @property
    def all_correct(self) -> bool:
        return all(r.correct for r in self.runs.values())


_KNOWN_SYSTEMS = frozenset(
    SYSTEMS + ("baseline-sw", "spec-lsq", "serial-mem", "oracle-sw")
)


def _pipeline_for(system: str) -> Optional[PipelineConfig]:
    if system in ("opt-lsq", "spec-lsq", "serial-mem", "oracle-sw"):
        return None
    if system == "baseline-sw":
        return PipelineConfig.baseline_compiler()
    return PipelineConfig.full()


def _backend_for(system: str, lsq_config: Optional[LSQConfig]):
    if system == "opt-lsq":
        return OptLSQBackend(lsq_config)
    if system == "spec-lsq":
        return SpecLSQBackend()
    if system in ("nachos-sw", "baseline-sw", "oracle-sw"):
        return NachosSWBackend()
    if system == "nachos":
        return NachosBackend()
    if system == "serial-mem":
        return SerialMemBackend()
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


# ----------------------------------------------------------------------
# In-process memo tables (the on-disk cache sits underneath them)
# ----------------------------------------------------------------------
_compile_memo: Dict[Tuple[str, str], PipelineResult] = {}
_oracle_memo: Dict[Tuple[str, str], Tuple[DFGraph, int]] = {}
_bare_memo: Dict[str, DFGraph] = {}
_placement_memo: Dict[Tuple[str, str], Placement] = {}
_sim_memo: Dict[str, Tuple[SimResult, bool, int]] = {}
# Address streams and the golden model are MDE- and backend-independent:
# every system simulating one (graph, envs) pair consumes identical
# streams and checks against the identical golden result, so both are
# memoized by graph identity (graphs themselves are memoized above,
# held strongly here so an id() can't be recycled under a live entry).
_addr_memo: Dict[Tuple[int, str], Tuple[DFGraph, list]] = {}
_golden_memo: Dict[Tuple[int, str], Tuple[DFGraph, "GoldenResult"]] = {}


def clear_memos() -> None:
    """Drop the in-process memo tables (tests / benchmarks)."""
    _compile_memo.clear()
    _oracle_memo.clear()
    _bare_memo.clear()
    _placement_memo.clear()
    _sim_memo.clear()
    _addr_memo.clear()
    _golden_memo.clear()


def workload_fingerprint(workload: Workload) -> str:
    """Content fingerprint of the workload's (pristine) region graph.

    Memoized on the workload object — valid because nothing in the
    experiment layer mutates ``workload.graph`` anymore.
    """
    fp = getattr(workload, "_content_fp", None)
    if fp is None:
        fp = graph_fingerprint(workload.graph)
        workload._content_fp = fp
    return fp


def task_fingerprint(
    workload: Workload,
    system: str,
    invocations: int,
    warm: bool = True,
    kwargs: Optional[Dict] = None,
) -> str:
    """Content fingerprint of one sweep task (checkpoint journal key).

    Depends only on what determines the task's result — the pristine
    region graph, the system, the invocation count, warmup, and any
    config overrides — never on task order or process accidents, so a
    resumed sweep (:mod:`repro.runtime.checkpoint`) recognizes completed
    work across runs and even across figures that share tasks.
    ``check`` is deliberately excluded: correctness is part of the
    simulated record either way (see :func:`run_system`).
    """
    parts = [
        "sweeptask",
        workload_fingerprint(workload),
        system,
        str(int(invocations)),
        "warm" if warm else "cold",
    ]
    for key in sorted(kwargs or {}):
        parts.append(key)
        parts.append(config_fingerprint((kwargs or {})[key]))
    return combine(*parts)


def _bare_graph(workload: Workload, wfp: str) -> DFGraph:
    """The workload graph with MDEs stripped (runtime-only systems)."""
    graph = _bare_memo.get(wfp)
    if graph is None:
        graph = workload.graph.clone(with_mdes=False)
        _bare_memo[wfp] = graph
    return graph


def compile_workload(
    workload: Workload, cfg: PipelineConfig, cache: Optional[ResultCache] = None
) -> PipelineResult:
    """Run the alias pipeline on a clone of the workload's graph.

    Cached in-process per (workload, config) and on disk, so the full
    pipeline runs once per region per config across every figure —
    ``nachos-sw`` and ``nachos`` share the same ``PipelineConfig.full()``
    result.
    """
    cache = cache if cache is not None else get_cache()
    wfp = workload_fingerprint(workload)
    cfg_fp = config_fingerprint(cfg)
    memo_key = (wfp, cfg_fp)
    result = _compile_memo.get(memo_key)
    if result is not None:
        return result
    key = combine("compile", wfp, cfg_fp)
    result = cache.get(key)
    if result is ResultCache.MISS:
        result = AliasPipeline(cfg).run(workload.graph.clone())
        cache.put(key, result)
    _compile_memo[memo_key] = result
    return result


def _oracle_graph(
    workload: Workload, wfp: str, envs, envs_fp: str, cache: ResultCache
) -> Tuple[DFGraph, int]:
    """Graph annotated by the trace-derived perfect compiler."""
    memo_key = (wfp, envs_fp)
    entry = _oracle_memo.get(memo_key)
    if entry is not None:
        return entry
    key = combine("oracle", wfp, envs_fp)
    entry = cache.get(key)
    if entry is ResultCache.MISS:
        graph = workload.graph.clone(with_mdes=False)
        edges = compile_with_oracle(graph, envs)
        entry = (graph, len(edges))
        cache.put(key, entry)
    _oracle_memo[memo_key] = entry
    return entry


def _placement(wfp: str, graph: DFGraph, cgra_config: Optional[CGRAConfig]) -> Placement:
    """Placement is MDE-blind, so one placement serves every system."""
    key = (wfp, config_fingerprint(cgra_config))
    placement = _placement_memo.get(key)
    if placement is None:
        placement = place_region(graph, cgra_config)
        _placement_memo[key] = placement
    return placement


def run_system(
    workload: Workload,
    system: str,
    invocations: int = DEFAULT_INVOCATIONS,
    check: bool = True,
    hierarchy_config: Optional[HierarchyConfig] = None,
    cgra_config: Optional[CGRAConfig] = None,
    lsq_config: Optional[LSQConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    warm: bool = True,
) -> SystemRun:
    """Compile (as the system requires), place, and simulate one workload.

    ``warm=True`` pre-touches the run's working set *in the shared L2*
    so the measurement reflects steady state (the paper's regions execute
    thousands of iterations and their data is LLC resident); the private
    L1 still filters accesses dynamically, so streaming strides miss L1
    and hit the LLC.

    Results are served from the content-addressed cache when an
    identical (graph, trace, system, configs) combination has run
    before.  Correctness against the golden execution is part of the
    cached record; ``check=False`` merely skips *reporting* it.
    """
    if system not in _KNOWN_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    cache = get_cache()
    cfg = _pipeline_for(system)
    envs = workload.invocations(invocations)
    wfp = workload_fingerprint(workload)
    envs_fp = envs_fingerprint(envs)

    pipeline_result: Optional[PipelineResult] = None
    if cfg is not None:
        pipeline_result = compile_workload(workload, cfg, cache)

    sim_key = combine(
        "sim",
        wfp,
        envs_fp,
        system,
        "oracle" if system == "oracle-sw" else config_fingerprint(cfg),
        str(invocations),
        "warm" if warm else "cold",
        config_fingerprint(hierarchy_config),
        config_fingerprint(cgra_config),
        config_fingerprint(lsq_config),
        config_fingerprint(engine_config),
    )
    record = _sim_memo.get(sim_key)
    if record is None:
        cached = cache.get(sim_key)
        if cached is ResultCache.MISS:
            record = _simulate(
                workload,
                wfp,
                system,
                pipeline_result,
                envs,
                envs_fp,
                hierarchy_config,
                cgra_config,
                lsq_config,
                engine_config,
                warm,
                cache,
            )
            cache.put(sim_key, record)
        else:
            record = cached
        _sim_memo[sim_key] = record

    sim, correct, n_mdes = record
    return SystemRun(
        system=system,
        sim=sim,
        pipeline=pipeline_result,
        correct=correct if check else True,
        n_mdes=n_mdes,
    )


def _simulate(
    workload: Workload,
    wfp: str,
    system: str,
    pipeline_result: Optional[PipelineResult],
    envs,
    envs_fp: str,
    hierarchy_config: Optional[HierarchyConfig],
    cgra_config: Optional[CGRAConfig],
    lsq_config: Optional[LSQConfig],
    engine_config: Optional[EngineConfig],
    warm: bool,
    cache: ResultCache,
) -> Tuple[SimResult, bool, int]:
    if system == "oracle-sw":
        graph, n_mdes = _oracle_graph(workload, wfp, envs, envs_fp, cache)
    elif pipeline_result is not None:
        graph = pipeline_result.graph
        n_mdes = len(graph.mdes)
    else:
        graph = _bare_graph(workload, wfp)
        n_mdes = 0

    placement = _placement(wfp, graph, cgra_config)
    hierarchy = MemoryHierarchy(hierarchy_config)
    backend = _backend_for(system, lsq_config)
    engine = make_engine(graph, placement, hierarchy, backend, config=engine_config)

    # Evaluate every memory op's address once per invocation *per
    # graph*: the warm loop and the engine consume the same stream, and
    # every system over this (graph, envs) pair reuses it.
    mem_ops = graph.memory_ops
    stream_key = (id(graph), envs_fp)
    hit = _addr_memo.get(stream_key)
    if hit is None or hit[0] is not graph:
        addr_streams = [
            {op.op_id: (op.addr.evaluate(env), op.addr.width) for op in mem_ops}
            for env in envs
        ]
        _addr_memo[stream_key] = (graph, addr_streams)
    else:
        addr_streams = hit[1]
    if warm:
        for amap in addr_streams:
            for op in mem_ops:
                hierarchy.l2.access(amap[op.op_id][0], is_write=op.is_store)
        hierarchy.l2.stats.reset()
    sim = engine.run(envs, region_name=workload.name, addr_streams=addr_streams)

    hit = _golden_memo.get(stream_key)
    if hit is None or hit[0] is not graph:
        golden = golden_execute(graph, envs)
        _golden_memo[stream_key] = (graph, golden)
    else:
        golden = hit[1]
    correct = golden.matches(sim.load_values, sim.memory_image)
    return (sim, correct, n_mdes)


def compare_systems(
    workload: Workload,
    invocations: int = DEFAULT_INVOCATIONS,
    systems: tuple = SYSTEMS,
    check: bool = True,
) -> ComparisonResult:
    """Run every requested system on *workload*."""
    result = ComparisonResult(workload=workload)
    for system in systems:
        result.runs[system] = run_system(
            workload, system, invocations=invocations, check=check
        )
    return result
