"""Metric definitions and their computation from a run's outcome.

End-to-end metrics come from an untraced run and are CPU times divided
by the host's slowdown (see :mod:`cpuclock`); the same run's wall times
and the slowdown itself are per-layer metrics.
Per-layer metrics come
from a traced run of the same workload: each timed layer is the self
time of its spans inside the measured passes, and each count is summed
over those passes; both are reported *per pass*.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import SpanRecorder, root_names, self_seconds_by_name
from stats import median, supported_percentile
from workloads import SYSTEMS, Outcome

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("item_cpu_p50_ms", "ms", "lower"),
    ("item_cpu_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Timed layers: metric name -> span name.
TIMED_LAYERS: Dict[str, str] = {
    "compiler.compile_s": "compiler.compile",
    "compiler.stage1_s": "compiler.stage1",
    "compiler.stage2_s": "compiler.stage2",
    "compiler.stage4_s": "compiler.stage4",
    "compiler.stage5_s": "compiler.stage5",
    "compiler.stage3_s": "compiler.stage3",
    "compiler.mde_insert_s": "compiler.mde_insert",
    "compiler.oracle_labels_s": "compiler.oracle_labels",
    "compiler.coverage_s": "compiler.coverage",
    "cgra.place_s": "cgra.place",
    "sim.engine_build_s": "sim.engine_build",
    **{f"sim.engine_s.{s}": f"sim.engine.{s}" for s in SYSTEMS},
    "golden.s": "golden.execute",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "fingerprint.s": "fingerprint",
    "executor.self_s": "executor.run_tasks",
    "experiments.self_s": "experiments.run_system",
    "serve.request_s": "serve.request",
    "trace.unaccounted_s": "bench.pass",
}

#: Counts summed over the measured passes (reported per pass).
PASS_COUNTS = (
    "compiler.pairs", "compiler.may_pairs", "compiler.mdes",
    "compiler.stage5_attempted", "compiler.stage5_resolved",
    "cgra.places", "sim.runs", "sim.events", "sim.cycles",
    "backends.bloom_probes", "backends.cam_checks", "backends.lsq_forwards",
    "backends.comparator_checks", "backends.comparator_conflicts",
    "backends.order_waits", "backends.speculations", "backends.replays",
    "memory.l1_hits", "memory.l1_misses", "golden.calls",
    "cache.gets", "cache.puts", "cache.bytes_read", "cache.bytes_written",
    "fingerprint.calls", "executor.retries", "executor.failed_tasks",
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("workloads.builds", "count", "lower"),
    ("compiler.compile_s", "s", "lower"),
    ("compiler.stage1_s", "s", "lower"),
    ("compiler.stage2_s", "s", "lower"),
    ("compiler.stage4_s", "s", "lower"),
    ("compiler.stage5_s", "s", "lower"),
    ("compiler.stage3_s", "s", "lower"),
    ("compiler.mde_insert_s", "s", "lower"),
    ("compiler.oracle_labels_s", "s", "lower"),
    ("compiler.coverage_s", "s", "lower"),
    ("compiler.pairs", "count", "lower"),
    ("compiler.may_pairs", "count", "lower"),
    ("compiler.mdes", "count", "lower"),
    ("compiler.stage5_attempted", "count", "lower"),
    ("compiler.stage5_resolved", "count", "higher"),
    ("compiler.stage5_useful_ratio", "ratio", "higher"),
    ("cgra.place_s", "s", "lower"),
    ("cgra.places", "count", "lower"),
    ("sim.engine_build_s", "s", "lower"),
    ("sim.engine_s", "s", "lower"),
    *((f"sim.engine_s.{s}", "s", "lower") for s in SYSTEMS),
    ("sim.runs", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("backends.bloom_probes", "count", "lower"),
    ("backends.cam_checks", "count", "lower"),
    ("backends.lsq_forwards", "count", "higher"),
    ("backends.comparator_checks", "count", "lower"),
    ("backends.comparator_conflicts", "count", "lower"),
    ("backends.order_waits", "count", "lower"),
    ("backends.speculations", "count", "lower"),
    ("backends.replays", "count", "lower"),
    ("memory.l1_hits", "count", "higher"),
    ("memory.l1_misses", "count", "lower"),
    ("memory.l1_hit_ratio", "ratio", "higher"),
    ("energy.disambiguation_fraction", "ratio", "lower"),
    ("golden.s", "s", "lower"),
    ("golden.calls", "count", "lower"),
    ("golden.calls_per_region", "ratio", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.puts", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_read", "B", "lower"),
    ("cache.bytes_written", "B", "lower"),
    ("fingerprint.s", "s", "lower"),
    ("fingerprint.calls", "count", "lower"),
    ("executor.self_s", "s", "lower"),
    ("executor.retries", "count", "lower"),
    ("executor.failed_tasks", "count", "lower"),
    ("serve.boot_s", "s", "lower"),
    ("serve.request_s", "s", "lower"),
    ("serve.daemon_p50_ms", "ms", "lower"),
    ("serve.overhead_p50_ms", "ms", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.dedup_ratio", "ratio", "higher"),
    ("serve.tasks_submitted", "count", "lower"),
    ("serve.tasks_failed", "count", "lower"),
    ("serve.pool_retries", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("sim_events_per_s", "1/s", "higher"),
    ("nachos_cycles_ratio", "ratio", "lower"),
    ("nachos_sw_cycles_ratio", "ratio", "lower"),
    ("nachos_energy_ratio", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
)

#: Serve scrape counters that accumulate over the run (reported per pass).
_SERVE_TOTALS = ("serve.batches", "serve.tasks_submitted", "serve.tasks_failed",
                 "serve.pool_retries")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def normalised(out: Outcome, cpu_s: List[float],
               spans: List[Tuple[float, float]]) -> List[float]:
    """CPU seconds divided by the host's slowdown over each interval."""
    return [cpu / out.speed.slowdown(t0, t1) for cpu, (t0, t1) in zip(cpu_s, spans)]


def normalised_passes(out: Outcome, items: List[float]) -> List[float]:
    """Each pass's normalised CPU seconds: its items' normalised times
    (``items``) plus the rest of the pass divided by the pass's mean
    slowdown.  Summing per item keeps a change of host speed within a
    long pass from weighting the pass's slow and fast parts wrongly."""
    passes = []
    for cpu, (t0, t1) in zip(out.pass_cpu, out.pass_t):
        inside = [i for i, (a, b) in enumerate(out.item_t) if t0 <= a and b <= t1]
        rest = cpu - sum(out.item_cpu_s[i] for i in inside)
        passes.append(sum(items[i] for i in inside) + rest / out.speed.slowdown(t0, t1))
    return passes


def end_to_end(out: Outcome) -> Dict[str, float]:
    items = normalised(out, out.item_cpu_s, out.item_t)
    return {
        "setup_s": out.setup_s,
        "cpu_s": median(normalised_passes(out, items)),
        "item_cpu_p50_ms": median(items) * 1e3,
        "item_cpu_p90_ms": supported_percentile(items, 90) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
    }


def wall(out: Outcome) -> Dict[str, float]:
    """The wall-time counterparts of ``cpu_s`` and the item percentiles,
    and the host's median slowdown over the run."""
    return {
        "wall_s": median(out.pass_walls),
        "item_p50_ms": median(out.item_s) * 1e3,
        "item_p90_ms": supported_percentile(out.item_s, 90) * 1e3,
        "host.slowdown": out.speed.median(),
    }


def failed_frac(out: Outcome) -> float:
    return _ratio(out.failed, out.attempted)


def sim_events_per_s(out: Outcome, events_per_pass: float) -> float:
    return _ratio(events_per_pass, end_to_end(out)["cpu_s"])


def per_layer(plain: Outcome, traced: Outcome, rec: SpanRecorder) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, from the traced run ``traced`` and
    the untraced run ``plain`` of the same workload."""
    passes = len(traced.pass_walls)
    selves = self_seconds_by_name(rec.spans, under="bench.pass")
    counts = {name: traced.pass_counters.get(name, 0.0) / passes
              for name in PASS_COUNTS}
    m: Dict[str, float] = {
        metric: selves.get(span, 0.0) / passes
        for metric, span in TIMED_LAYERS.items()
    }
    m.update(counts)
    m.update(wall(plain))

    setup_selves = self_seconds_by_name(rec.spans, under="bench.setup")
    in_setup = [s.name for s, root in zip(rec.spans, root_names(rec.spans))
                if root == "bench.setup"]
    setups = in_setup.count("bench.setup")
    builds = in_setup.count("workloads.build")
    m["workloads.build_s"] = _ratio(setup_selves.get("workloads.build", 0.0), setups)
    m["workloads.builds"] = _ratio(builds, setups) if m["workloads.build_s"] else 0.0

    m["compiler.stage5_useful_ratio"] = _ratio(
        counts["compiler.stage5_resolved"], counts["compiler.stage5_attempted"])
    m["sim.engine_s"] = sum(m[f"sim.engine_s.{s}"] for s in SYSTEMS)
    m["sim.host_ns_per_event"] = _ratio(m["sim.engine_s"] * 1e9, counts["sim.events"])
    m["memory.l1_hit_ratio"] = _ratio(
        counts["memory.l1_hits"], counts["memory.l1_hits"] + counts["memory.l1_misses"])
    m["energy.disambiguation_fraction"] = _ratio(
        traced.pass_counters.get("energy.disambiguation", 0.0),
        traced.pass_counters.get("energy.total", 0.0))
    m["golden.calls_per_region"] = _ratio(
        counts["golden.calls"], rec.counters.get("golden.regions", 0.0))
    m["cache.hit_ratio"] = _ratio(
        traced.pass_counters.get("cache.hits", 0.0) / passes, counts["cache.gets"])

    for name in ("serve.boot_s", "serve.daemon_p50_ms", "serve.batch_size_mean",
                 "serve.dedup_ratio"):
        m[name] = traced.extra.get(name, 0.0)
    for name in _SERVE_TOTALS:
        m[name] = traced.extra.get(name, 0.0) / passes
    m["serve.overhead_p50_ms"] = (
        median(traced.item_s) * 1e3 - m["serve.daemon_p50_ms"]
        if "serve.daemon_p50_ms" in traced.extra else 0.0
    )

    m["trace.wall_s"] = median(traced.pass_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - median(plain.pass_walls)
    m["sim_events_per_s"] = sim_events_per_s(plain, counts["sim.events"])
    for name in ("nachos_cycles_ratio", "nachos_sw_cycles_ratio",
                 "nachos_energy_ratio"):
        m[name] = plain.extra.get(name, 0.0)
    m["failed_frac"] = _ratio(plain.failed + traced.failed,
                              plain.attempted + traced.attempted)
    return {name: m[name] for name, _, _ in PER_LAYER}


def layer_table(metrics: Dict[str, float], traced: Outcome) -> str:
    """Self time per layer per pass, largest first, with its share of
    the traced run's mean pass wall.  ``trace.unaccounted_s`` is the
    pass time no timed layer covers.  Concurrent client spans (serve)
    overlap, so their shares can sum past 100%."""
    wall_s = sum(traced.pass_walls) / len(traced.pass_walls)
    rows: List[Tuple[str, float]] = [
        (name, metrics[name]) for name in TIMED_LAYERS
        if name in metrics and metrics[name] > 0
    ]
    rows.sort(key=lambda row: -row[1])
    lines = [f"{'layer (self time per pass)':<34} {'s':>10} {'share':>7}"]
    for name, value in rows:
        lines.append(f"{name:<34} {value:>10.4f} {value / wall_s:>7.1%}")
    total = sum(value for _, value in rows)
    lines.append(f"{'sum of layers':<34} {total:>10.4f} {total / wall_s:>7.1%}")
    lines.append(f"{'traced pass wall (mean)':<34} {wall_s:>10.4f}")
    lines.append(f"{'tracing overhead (median walls)':<34} "
                 f"{metrics['trace.overhead_s']:>+10.4f}")
    if metrics["serve.daemon_p50_ms"]:
        for name in ("serve.daemon_p50_ms", "serve.overhead_p50_ms"):
            lines.append(f"{name:<34} {metrics[name]:>10.3f} ms")
    return "\n".join(lines)
