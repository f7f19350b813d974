"""The perf-observatory run ledger: an append-only NDJSON time series.

Every instrumented entrypoint — ``benchmarks/bench_sweep.py``, the
sweep profiler behind ``nachos-repro profile``/``--ledger``, the
verify fuzz campaign, and
``tools/approx_coverage.py --json`` — folds its numbers into a
:class:`PerfRecord` and appends it to a :class:`PerfLedger`.  One
ledger, one schema, every perf *and* correctness-campaign series side
by side, so ``nachos-repro perf check`` (:mod:`repro.obs.regress`) can
enforce budgets over any of them and ``nachos-repro perf report``
(:mod:`repro.obs.report`) can render them as one dashboard.

Design constraints, all load-bearing:

* **Append-only.**  :meth:`PerfLedger.append` only ever opens the file
  in ``"a"`` mode; history is never rewritten.  Blessing an intentional
  regression happens in ``perf_budgets.toml``, not by editing history.
* **Schema-versioned.**  Every line carries ``schema``
  (:data:`LEDGER_SCHEMA`); readers skip lines from a *newer* schema
  (counted in :attr:`PerfLedger.skipped`) instead of misparsing them.
* **Byte-stable.**  A record's :meth:`~PerfRecord.fingerprint` covers
  ``(schema, source, metrics, context)`` — never the timestamp — and
  serialization is canonical JSON (sorted keys, fixed separators), so
  identical inputs produce identical bytes and fingerprints on every
  machine.  The timestamp rides along for humans only.
* **Comparable across machines.**  Context carries the git SHA, a host
  fingerprint, and the job count, so the regression
  checker can (via per-budget ``where`` filters) compare like with
  like.

See ``docs/perf.md`` for the file format and the CLI workflow.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Bump when the NDJSON line layout changes incompatibly.  Readers
#: accept records with ``schema <= LEDGER_SCHEMA`` and skip newer ones.
LEDGER_SCHEMA = 1

#: Default on-repo ledger location (the tracked history the scheduled
#: full-sweep workflow refreshes).  ``$NACHOS_PERF_LEDGER`` overrides.
DEFAULT_LEDGER = Path("perf") / "history.ndjson"


def default_ledger_path() -> Path:
    env = os.environ.get("NACHOS_PERF_LEDGER")
    return Path(env) if env else DEFAULT_LEDGER


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Context capture
# ----------------------------------------------------------------------
def git_sha() -> str:
    """The repo's short commit SHA (``$NACHOS_GIT_SHA`` overrides).

    Falls back to ``"unknown"`` outside a git checkout — records are
    still valid, just not attributable to a commit.
    """
    env = os.environ.get("NACHOS_GIT_SHA")
    if env:
        return env
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_fingerprint() -> str:
    """A short stable id for this machine (``$NACHOS_HOST_ID`` overrides).

    Hashes node name, platform, and CPU count — enough to tell two
    runners apart without leaking anything, stable across reboots.
    """
    env = os.environ.get("NACHOS_HOST_ID")
    if env:
        return env
    raw = "|".join(
        [platform.node(), platform.system(), platform.machine(),
         str(os.cpu_count() or 0)]
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]


def capture_context(
    jobs: Optional[int] = None,
    mode: Optional[str] = None,
    **extra: Any,
) -> Dict[str, str]:
    """Standard record context: git SHA + host + run shape."""
    ctx: Dict[str, str] = {"git_sha": git_sha(), "host": host_fingerprint()}
    if jobs is not None:
        ctx["jobs"] = str(jobs)
    if mode is not None:
        ctx["mode"] = str(mode)
    for key, value in extra.items():
        if value is not None:
            ctx[str(key)] = str(value)
    return ctx


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class PerfRecord:
    """One ledger line: a named bag of numbers plus its provenance."""

    source: str                       # "bench" | "profile" | "serve" | ...
    metrics: Dict[str, float]
    context: Dict[str, str] = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA
    ts: Optional[str] = None          # ISO-8601 UTC; informational only

    def fingerprint(self) -> str:
        """Content hash over everything except the timestamp."""
        body = {
            "schema": self.schema,
            "source": self.source,
            "metrics": self.metrics,
            "context": self.context,
        }
        return hashlib.sha256(
            _canonical_json(body).encode("utf-8")
        ).hexdigest()[:16]

    def to_line(self) -> str:
        """The NDJSON line (canonical JSON; byte-stable for fixed ts)."""
        payload = {
            "schema": self.schema,
            "source": self.source,
            "metrics": self.metrics,
            "context": self.context,
            "fp": self.fingerprint(),
        }
        if self.ts is not None:
            payload["ts"] = self.ts
        return _canonical_json(payload)

    @classmethod
    def from_line(cls, line: str) -> "PerfRecord":
        data = json.loads(line)
        return cls(
            source=data["source"],
            metrics={k: float(v) for k, v in data["metrics"].items()},
            context={k: str(v) for k, v in data.get("context", {}).items()},
            schema=int(data.get("schema", 0)),
            ts=data.get("ts"),
        )


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class PerfLedger:
    """Append-only NDJSON file of :class:`PerfRecord` s."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.skipped = 0  # newer-schema / unparsable lines seen by records()

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: PerfRecord, ts: Optional[str] = None) -> str:
        """Append one record (stamping ``ts`` unless already set).

        Returns the record's fingerprint.  The file is only ever opened
        for append — existing lines are never touched.
        """
        if record.ts is None:
            record.ts = ts if ts is not None else _utc_now_iso()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(record.to_line() + "\n")
        return record.fingerprint()

    def records(self) -> List[PerfRecord]:
        """All parseable records in file (= chronological) order.

        Lines with a newer schema than this reader understands, or that
        fail to parse, are skipped and counted in :attr:`skipped` — an
        old checkout reading a new ledger degrades, it doesn't crash.
        """
        self.skipped = 0
        out: List[PerfRecord] = []
        if not self.path.exists():
            return out
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = PerfRecord.from_line(line)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.skipped += 1
                continue
            if record.schema > LEDGER_SCHEMA:
                self.skipped += 1
                continue
            out.append(record)
        return out

    def __len__(self) -> int:
        return len(self.records())


# ----------------------------------------------------------------------
# Builders — one per instrumented entrypoint
# ----------------------------------------------------------------------
def record_from_bench(
    report: Mapping[str, Any], context: Optional[Dict[str, str]] = None
) -> PerfRecord:
    """Fold a ``bench_sweep.py`` report (``BENCH_sweep.json``) into a record.

    Carries cold/warm wall, the warm speedup, the cache hit rate, and
    the per-figure wall breakdown (``figure.<name>.wall_seconds``).
    """
    metrics: Dict[str, float] = {}
    for key in (
        "cold_seconds", "warm_seconds", "warm_speedup_vs_cold",
        "warm_speedup_vs_seed", "cold_speedup_vs_seed", "chaos_seconds",
    ):
        value = report.get(key)
        if value is not None:
            metrics[key] = float(value)
    cache = report.get("cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    if hits or misses:
        metrics["cache_hit_rate"] = hits / (hits + misses)
    for name, seconds in (report.get("per_figure_wall_seconds") or {}).items():
        metrics[f"figure.{name}.wall_seconds"] = float(seconds)
    ctx = context if context is not None else capture_context(
        jobs=report.get("jobs"),
        mode=report.get("mode"),
    )
    return PerfRecord(source="bench", metrics=metrics, context=ctx)


def record_from_profile(
    profile,
    stage_seconds: Optional[Mapping[str, float]] = None,
    context: Optional[Dict[str, str]] = None,
) -> PerfRecord:
    """Fold a :class:`~repro.obs.profile.SweepProfile` into a record.

    Per-figure wall comes from ``stage_seconds`` (the CLI's per-stage
    timings); the profile contributes the task/worker/cache/fault
    rollups.
    """
    hits = sum(t.hits for t in profile.tasks)
    misses = sum(t.misses for t in profile.tasks)
    metrics: Dict[str, float] = {
        "tasks": float(len(profile.tasks)),
        "task_seconds": profile.task_seconds,
        "sweep_wall_seconds": profile.wall_seconds,
        "utilization": profile.utilization(),
        "cache_hits": float(hits),
        "cache_misses": float(misses),
        "retries": float(profile.retries),
        "failures": float(len(profile.failures)),
        "checkpoint_hits": float(profile.checkpoint_hits),
    }
    if hits or misses:
        metrics["cache_hit_rate"] = hits / (hits + misses)
    for region, (count, seconds) in profile.per_region().items():
        metrics[f"region.{region}.seconds"] = seconds
        metrics[f"region.{region}.tasks"] = float(count)
    for name, seconds in (stage_seconds or {}).items():
        metrics[f"figure.{name}.wall_seconds"] = float(seconds)
    ctx = context if context is not None else capture_context()
    return PerfRecord(source="profile", metrics=metrics, context=ctx)


def record_from_coverage(
    summary: Mapping[str, Any], context: Optional[Dict[str, str]] = None
) -> PerfRecord:
    """Fold ``tools/approx_coverage.py --json`` output into a record."""
    metrics: Dict[str, float] = {
        "total_pct": float(summary["total"]["pct"]),
        "total_lines": float(summary["total"]["lines"]),
        "total_hit": float(summary["total"]["hit"]),
    }
    for pkg, entry in summary.get("packages", {}).items():
        name = pkg.replace("/", ".")
        metrics[f"package.{name}.pct"] = float(entry["pct"])
    ctx = context if context is not None else capture_context()
    return PerfRecord(source="coverage", metrics=metrics, context=ctx)


def record_from_fuzz(
    regions: int,
    runs: int,
    failures: int,
    wall_seconds: float,
    seed: int,
    context: Optional[Dict[str, str]] = None,
) -> PerfRecord:
    """Fold a verify fuzz campaign's stats into a record."""
    metrics = {
        "regions": float(regions),
        "runs": float(runs),
        "failures": float(failures),
        "wall_seconds": float(wall_seconds),
        "runs_per_second": runs / wall_seconds if wall_seconds > 0 else 0.0,
    }
    ctx = context if context is not None else capture_context(seed=seed)
    return PerfRecord(source="verify", metrics=metrics, context=ctx)


def record_from_stage5(
    regions: int,
    symbolic_pairs: int,
    resolved_no: int,
    resolved_must: int,
    context: Optional[Dict[str, str]] = None,
) -> PerfRecord:
    """Fold the stage-5 precision stats of a workload sweep into a record.

    ``symbolic_pairs`` counts the MAY pairs stages 1--4 left behind
    *because* of symbolic offsets; ``resolved_*`` count how many of
    those the separation-logic checker cracked.  Tracked by ``perf
    check`` so a precision regression (a refactor that stops resolving
    the sweep's symbolic pairs) fails CI like a throughput regression.
    """
    resolved = resolved_no + resolved_must
    metrics = {
        "regions": float(regions),
        "symbolic_pairs": float(symbolic_pairs),
        "resolved_no": float(resolved_no),
        "resolved_must": float(resolved_must),
        "resolved": float(resolved),
        "resolved_fraction": resolved / symbolic_pairs if symbolic_pairs else 0.0,
    }
    ctx = context if context is not None else capture_context()
    return PerfRecord(source="stage5", metrics=metrics, context=ctx)


def record_from_registries(
    registries: Iterable[MetricsRegistry],
    source: str = "metrics",
    context: Optional[Dict[str, str]] = None,
) -> PerfRecord:
    """Merge metrics registries into one flat ledger record.

    Counters and gauges keep their values; histograms flatten to their
    summary statistics (``<name>.p50`` etc.).  Multiple registries are
    combined with :meth:`~repro.obs.metrics.MetricsRegistry.merge`, so
    same-named counters sum and same-named histograms pool samples.
    """
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    metrics: Dict[str, float] = {}
    for name in merged.names():
        metric = merged._metrics[name]
        if isinstance(metric, (Counter, Gauge)):
            metrics[name] = float(metric.value)
        elif isinstance(metric, Histogram):
            for key, value in metric.summary().items():
                metrics[f"{name}.{key}"] = float(value)
    ctx = context if context is not None else capture_context()
    return PerfRecord(source=source, metrics=metrics, context=ctx)


def record_from_serve(
    report: Mapping[str, Any], context: Optional[Dict[str, str]] = None
) -> PerfRecord:
    """Fold a ``bench_serve.py`` report (``BENCH_serve.json``) into a record.

    Carries request latency percentiles, sustained QPS, the cache hit
    rate and request/task dedup rates, plus the daemon-side counters the
    load generator scraped from ``/metrics`` (``daemon.<name>``).  A
    ``--shards`` report (``mode="shards"``) additionally folds in the
    fleet metrics — cross-shard hit rate, peer-hop latency, and the
    kill/rejoin phase timings — which the ``mode = "shards"`` budgets
    in ``perf_budgets.toml`` then gate.
    """
    metrics: Dict[str, float] = {}
    for key in (
        "requests", "concurrency", "wall_seconds", "qps",
        "p50_latency_seconds", "p90_latency_seconds", "p99_latency_seconds",
        "mean_latency_seconds", "cache_hit_rate", "dedup_rate", "errors",
        "chaos_wall_seconds", "chaos_retries",
        # --shards fleet metrics
        "shards", "cross_shard_hits", "cross_shard_lookups",
        "cross_shard_hit_rate", "peer_fetch_count",
        "peer_fetch_mean_seconds", "peer_fetch_p50_seconds",
        "peer_fetch_p99_seconds", "store_hits",
        "killed_shard_wall_seconds", "killed_shard_errors",
        "rejoin_seconds", "rejoin_store_hits",
    ):
        value = report.get(key)
        if value is not None:
            metrics[key] = float(value)
    for name, value in (report.get("daemon") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[f"daemon.{name}"] = float(value)
    ctx = context if context is not None else capture_context(
        jobs=report.get("jobs"),
        mode=report.get("mode"),
    )
    return PerfRecord(source="serve", metrics=metrics, context=ctx)
