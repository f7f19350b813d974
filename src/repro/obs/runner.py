"""Run one (workload, system) simulation with a live tracer attached.

The cached sweep path (:func:`repro.experiments.common.run_system`)
serves most runs straight from the content-addressed store, which is
exactly wrong for tracing — a trace needs a live engine.  This module
compiles and places through the same shared memo/caches (those are
trace-agnostic) but always simulates fresh, with the tracer and an
optional :class:`~repro.sim.timeline.TimelineRecorder` wired in, and
never writes the traced result back to the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.tracer import Tracer

# NOTE: repro.sim imports are deferred into the function bodies — the
# engine itself imports repro.obs.tracer, so importing sim here would
# close an import cycle through the obs package __init__.


@dataclass
class TracedRun:
    """Everything a traced simulation produces."""

    sim: Any                      # repro.sim.result.SimResult
    tracer: Tracer
    graph: Any
    placement: Any
    correct: bool
    recorder: Optional[Any] = None  # repro.sim.timeline.TimelineRecorder


def resolve_workload(name: str):
    """A workload from a micro name (``gather``/``micro.gather``) or a
    suite benchmark name (``bzip2``, hottest path)."""
    from repro.workloads.generator import build_workload
    from repro.workloads.micro import MICROS, build_micro
    from repro.workloads.suite import benchmark_names, get_spec

    short = name[len("micro."):] if name.startswith("micro.") else name
    if short in MICROS:
        return build_micro(short)
    try:
        spec = get_spec(name)
    except KeyError:
        known = [f"micro.{m}" for m in MICROS] + benchmark_names()
        raise KeyError(
            f"unknown region {name!r}; known: {', '.join(known)}"
        ) from None
    return build_workload(spec, path_index=0)


def traced_run(
    workload,
    system: str,
    invocations: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    record_timeline: bool = False,
    warm: bool = True,
) -> TracedRun:
    """Compile, place, and simulate *workload* under *system*, traced."""
    from repro.experiments.common import (
        DEFAULT_INVOCATIONS,
        _KNOWN_SYSTEMS,
        SYSTEMS,
        _backend_for,
        _bare_graph,
        _oracle_graph,
        _pipeline_for,
        _placement,
        compile_workload,
        workload_fingerprint,
    )
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.runtime.cache import get_cache
    from repro.runtime.fingerprint import envs_fingerprint
    from repro.sim.factory import make_engine
    from repro.sim.oracle import golden_execute
    from repro.sim.timeline import TimelineRecorder

    if system not in _KNOWN_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    if invocations is None:
        invocations = DEFAULT_INVOCATIONS
    tracer = tracer if tracer is not None else Tracer()
    envs = workload.invocations(invocations)
    wfp = workload_fingerprint(workload)

    cfg = _pipeline_for(system)
    if system == "oracle-sw":
        graph, _ = _oracle_graph(
            workload, wfp, envs, envs_fingerprint(envs), get_cache()
        )
    elif cfg is not None:
        graph = compile_workload(workload, cfg).graph
    else:
        graph = _bare_graph(workload, wfp)

    placement = _placement(wfp, graph, None)
    hierarchy = MemoryHierarchy()
    backend = _backend_for(system, None)
    recorder = TimelineRecorder() if record_timeline else None
    engine = make_engine(
        graph, placement, hierarchy, backend, recorder=recorder, tracer=tracer
    )

    mem_ops = graph.memory_ops
    addr_streams = [
        {op.op_id: (op.addr.evaluate(env), op.addr.width) for op in mem_ops}
        for env in envs
    ]
    if warm:
        for amap in addr_streams:
            for op in mem_ops:
                hierarchy.l2.access(amap[op.op_id][0], is_write=op.is_store)
        hierarchy.l2.stats.reset()
    sim = engine.run(envs, region_name=workload.name, addr_streams=addr_streams)
    golden = golden_execute(graph, envs)
    correct = golden.matches(sim.load_values, sim.memory_image)
    return TracedRun(
        sim=sim,
        tracer=tracer,
        graph=graph,
        placement=placement,
        correct=correct,
        recorder=recorder,
    )
