"""Layer probes: rebind the names the program calls through.

Nothing in ``src/`` is edited.  Each probe replaces a module attribute
(or a class attribute, for ``ResultCache``) with a wrapper that opens a
span around the original call and folds the call's deterministic work
counts into the recorder.  :class:`Patches` restores every original on
exit, so one process can run an untraced pass and a traced pass.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, List, Optional, Tuple

import cpuclock
from spans import SpanRecorder

#: Backend counters reported per layer (``BackendStats`` field names).
BACKEND_COUNTERS = (
    "bloom_probes",
    "cam_checks",
    "lsq_forwards",
    "comparator_checks",
    "comparator_conflicts",
    "order_waits",
    "speculations",
    "replays",
)


class Patches:
    """Attribute rebinding with guaranteed restore."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _spanned(
    rec: SpanRecorder,
    name: str,
    fn: Callable,
    after: Optional[Callable] = None,
    task_of: Optional[Callable] = None,
) -> Callable:
    """``fn`` inside a span; ``after(result, args, kwargs)`` runs inside
    it too, so its bookkeeping is charged to the same layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        task = task_of(*args, **kwargs) if task_of is not None else None
        with rec.span(name, task=task):
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
        return result

    return wrapper


def time_items(patches: Patches, record: Callable[[float, float, float], None],
               tick: Callable[[], None]) -> None:
    """Time every ``run_system`` call (one sweep item): ``record(start,
    end, CPU seconds)``.  ``tick`` runs before the timers start (the
    host-speed probe).  Used with tracing on and off."""
    from repro.experiments import common

    run_system = common.run_system

    @functools.wraps(run_system)
    def timed(*args, **kwargs):
        tick()
        c0 = cpuclock.self_s()
        t0 = time.perf_counter()
        try:
            return run_system(*args, **kwargs)
        finally:
            record(t0, time.perf_counter(), cpuclock.self_s() - c0)

    patches.set(common, "run_system", timed)


def install(patches: Patches, rec: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro.compiler import coverage, oracle_labels, pipeline
    from repro.compiler.labels import AliasLabel
    from repro.experiments import common
    from repro.runtime import executor, sweep
    from repro.runtime.cache import ResultCache
    from repro.workloads import generator

    def wrap(owner, attr, name, after=None, task_of=None):
        patches.set(owner, attr, _spanned(rec, name, getattr(owner, attr),
                                          after=after, task_of=task_of))

    # repro.workloads
    wrap(generator, "build_workload", "workloads.build",
         after=lambda r, a, k: rec.count("workloads.builds"))

    # repro.compiler: compile_workload, each stage as bound in the pipeline,
    # the trace-derived oracle and the sync-coverage checker.
    wrap(common, "compile_workload", "compiler.compile")
    wrap(pipeline, "analyze_stage1", "compiler.stage1",
         after=lambda r, a, k: rec.count("compiler.pairs", r.total))
    wrap(pipeline, "refine_stage2", "compiler.stage2")
    wrap(pipeline, "refine_stage4", "compiler.stage4")

    def stage5_counts(result, args, kwargs):
        stats = kwargs.get("stats")
        if stats is not None:
            rec.count("compiler.stage5_attempted", stats.symbolic_pairs)
            rec.count("compiler.stage5_resolved", stats.resolved)

    wrap(pipeline, "refine_stage5", "compiler.stage5", after=stage5_counts)

    def may_pairs(result, args, kwargs):
        rec.count("compiler.may_pairs", args[1].count(AliasLabel.MAY))

    wrap(pipeline, "prune_stage3", "compiler.stage3", after=may_pairs)
    wrap(pipeline, "retain_all", "compiler.stage3", after=may_pairs)
    wrap(pipeline, "insert_mdes", "compiler.mde_insert",
         after=lambda r, a, k: rec.count("compiler.mdes", len(r)))
    for owner in (common, oracle_labels):
        wrap(owner, "compile_with_oracle", "compiler.oracle_labels")
    wrap(coverage, "check_sync_coverage", "compiler.coverage")

    # repro.cgra
    wrap(common, "place_region", "cgra.place",
         after=lambda r, a, k: rec.count("cgra.places"))

    # repro.sim: engine construction, and the returned engine's run
    # under a span named for the simulated system.
    make_engine = common.make_engine

    @functools.wraps(make_engine)
    def traced_make_engine(graph, placement, hierarchy, backend, *args, **kwargs):
        with rec.span("sim.engine_build"):
            engine = make_engine(graph, placement, hierarchy, backend,
                                 *args, **kwargs)
        engine.run = _spanned(rec, f"sim.engine.{backend.name}", engine.run,
                              after=lambda r, a, k: count_sim(rec, r))
        return engine

    patches.set(common, "make_engine", traced_make_engine)

    golden_regions = set()

    def golden_counts(result, args, kwargs):
        rec.count("golden.calls")
        if args[0].name not in golden_regions:
            golden_regions.add(args[0].name)
            rec.count("golden.regions")

    wrap(common, "golden_execute", "golden.execute", after=golden_counts)

    # repro.runtime.cache: reads and writes, with bytes moved.
    def get_counts(result, args, kwargs):
        rec.count("cache.gets")
        if result is not ResultCache.MISS:
            rec.count("cache.hits")
            rec.count("cache.bytes_read", _size(args[0], args[1]))

    def put_counts(result, args, kwargs):
        rec.count("cache.puts")
        rec.count("cache.bytes_written", _size(args[0], args[1]))

    wrap(ResultCache, "get", "cache.get", after=get_counts)
    wrap(ResultCache, "put", "cache.put", after=put_counts)

    # repro.runtime.fingerprint, as the experiment layer calls it.
    for attr in ("graph_fingerprint", "config_fingerprint", "envs_fingerprint",
                 "workload_fingerprint", "task_fingerprint"):
        wrap(common, attr, "fingerprint",
             after=lambda r, a, k: rec.count("fingerprint.calls"))

    # repro.runtime.executor: the supervised task runner and one item.
    wrap(sweep, "run_tasks", "executor.run_tasks")

    def outcome_counts(outcome, args, kwargs):
        rec.count("executor.retries", outcome.retries)
        rec.count("executor.failed_tasks", len(outcome.failures))

    patches.set(executor, "run_tasks_detailed", _counted(
        executor.run_tasks_detailed, outcome_counts))
    wrap(common, "run_system", "experiments.run_system",
         task_of=lambda workload, system, *a, **k: f"{workload.name}/{system}")


def _counted(fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    return wrapper


def _size(cache, key: str) -> int:
    try:
        return cache._object_path(key).stat().st_size
    except OSError:
        return 0


def count_sim(rec: SpanRecorder, result) -> None:
    """Fold one ``SimResult``'s deterministic counts into ``rec``."""
    rec.count("sim.runs")
    rec.count("sim.events", sum(result.energy.counts.values()))
    rec.count("sim.cycles", result.cycles)
    stats = result.backend_stats
    for name in BACKEND_COUNTERS:
        rec.count(f"backends.{name}", getattr(stats, name))
    rec.count("memory.l1_hits", result.l1_hits)
    rec.count("memory.l1_misses", result.l1_misses)
    breakdown = result.energy_breakdown
    rec.count("energy.total", breakdown.total)
    rec.count("energy.disambiguation", breakdown.disambiguation)
