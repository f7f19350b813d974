#!/usr/bin/env python
"""Measure the sweep runner: cold vs warm cache, serial vs parallel.

Runs the experiment sweep in subprocesses against an isolated cache
directory (so timings never mix with the user's ``~/.cache``), verifies
that the warm run's rendered output is byte-identical to the cold run,
and writes the wall-clock numbers to ``BENCH_sweep.json``.

Modes::

    python benchmarks/bench_sweep.py                # full: nachos-repro all
    python benchmarks/bench_sweep.py --quick        # CI smoke: 2 regions x 3 systems
    python benchmarks/bench_sweep.py --jobs 4       # fan the sweep across workers
    python benchmarks/bench_sweep.py --quick --check-warm-vs BENCH_sweep_quick.json
    python benchmarks/bench_sweep.py --quick --jobs 4 \
        --chaos 'crash=0.12,hang=0.08,corrupt=0.08,seed=7,hang_s=60'

The ``--quick`` smoke sweep is what CI runs on every push: two micro
regions through all three paper systems, parallel, cache on, then a
warm re-run that must be 100% cache-served and identical.

``--check-warm-vs`` guards the hot path against observability overhead:
the warm run must stay within 10% (plus a small absolute slack for
machine noise) of a committed reference report's ``warm_seconds`` — a
regression here means the disabled-tracer path stopped being free.

``--chaos SPEC`` adds a third run on a fresh cache with the given
fault-injection profile active (``NACHOS_CHAOS``); workers crash, hang
past the timeout, and return corrupt results, yet the supervised
executor must recover and produce output byte-identical to the
fault-free cold run.

``--ledger PATH`` appends the report to the perf-observatory run
ledger (``repro.obs.perf``) — cold/warm wall+CPU, cache hit rate and
per-figure wall breakdown — so ``nachos-repro perf check`` can enforce
the committed ``perf_budgets.toml`` over the history and ``perf
report`` can render the trend dashboard.  All wall times here and in the child CLI come
from ``time.perf_counter()`` (one monotonic clock source end to end);
CPU times are ``os.times()`` children deltas.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall clock of ``nachos-repro all`` at the pre-cache seed commit,
#: measured on the same class of container this harness targets.  The
#: acceptance bar is warm-cache >= 3x faster than this serial baseline.
SEED_SERIAL_SECONDS = 200.9

_TIMING_LINE = re.compile(r"^\[(?:[a-z0-9_-]+: [0-9.]+s|cache: .*)\]$")

#: Per-experiment stage timing as printed by the CLI: ``[fig11: 3.2s]``.
_FIGURE_LINE = re.compile(r"^\[([a-z0-9_-]+): ([0-9.]+)s\]$")


def _child_env(cache_dir: Path, jobs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["NACHOS_CACHE_DIR"] = str(cache_dir)
    env["NACHOS_JOBS"] = str(jobs)
    return env


def _strip_timing(output: str) -> str:
    """Drop per-experiment timing and cache-counter lines before diffing."""
    return "\n".join(
        line for line in output.splitlines() if not _TIMING_LINE.match(line)
    )


def _parse_figure_walls(output: str) -> dict:
    """Per-figure wall seconds from the child CLI's stage-timing lines.

    The CLI times every experiment stage with ``time.perf_counter()``
    and prints ``[<name>: <seconds>s]``; folding those into the report
    gives the ledger a per-figure breakdown without a second profiling
    run.  Returns ``{}`` for quick mode (no figure stages).
    """
    walls = {}
    for line in output.splitlines():
        match = _FIGURE_LINE.match(line)
        if match and match.group(1) != "cache":
            walls[match.group(1)] = float(match.group(2))
    return walls


def _timed_run(cmd, env) -> tuple:
    """Run ``cmd``, returning (wall seconds, child CPU seconds, stdout).

    CPU time is the reaped children's user+system delta from
    ``os.times()`` — with ``--jobs N`` it exceeds wall time, which is
    exactly why both are reported: wall is what a user waits for, CPU
    is what an engine actually costs.
    """
    t0 = os.times()
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    t1 = os.times()
    cpu = (t1.children_user - t0.children_user) + (
        t1.children_system - t0.children_system
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child failed ({proc.returncode}): {' '.join(cmd)}")
    return elapsed, cpu, proc.stdout


def _cache_stats(cache_dir: Path) -> dict:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.runtime.cache import ResultCache

    stats = ResultCache(root=cache_dir).stats()
    return {
        "entries": stats["entries"],
        "bytes": stats["bytes"],
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def _smoke_sweep() -> None:
    """Child body for --quick: 2 regions x 3 systems through the sweep."""
    from repro.runtime.cache import get_cache
    from repro.runtime.executor import get_jobs
    from repro.runtime.sweep import sweep_comparisons
    from repro.workloads.micro import build_micro

    workloads = [build_micro("stream_triad"), build_micro("scatter")]
    comparisons = sweep_comparisons(workloads, invocations=8, jobs=get_jobs())
    for cmp in comparisons:
        for system, run in cmp.runs.items():
            print(
                f"{cmp.workload.name:>16} {system:<9} "
                f"cycles={run.sim.cycles} energy={run.sim.total_energy:.1f} "
                f"ok={run.correct}"
            )
    cache = get_cache()
    print(f"[cache: {cache.hits} hits, {cache.misses} misses]")


#: Absolute slack (seconds) added on top of the relative tolerance when
#: comparing warm times, so sub-second smoke sweeps don't flap on
#: scheduler noise while real hot-path regressions (which scale with the
#: sweep) still trip the relative bound.
WARM_ABS_SLACK_SECONDS = 0.75


def _check_warm(ref_path: str, report: dict, tolerance: float) -> int:
    """Compare this run's warm time against a committed reference."""
    ref = json.loads(Path(ref_path).read_text())
    if ref.get("mode") != report["mode"]:
        print(
            f"FAIL: reference {ref_path} is mode={ref.get('mode')!r}, "
            f"this run is mode={report['mode']!r}",
            file=sys.stderr,
        )
        return 1
    budget = ref["warm_seconds"] * (1.0 + tolerance) + WARM_ABS_SLACK_SECONDS
    verdict = "ok" if report["warm_seconds"] <= budget else "FAIL"
    print(
        f"[warm check: {report['warm_seconds']:.2f}s vs reference "
        f"{ref['warm_seconds']:.2f}s (budget {budget:.2f}s) -> {verdict}]"
    )
    if verdict == "FAIL":
        print(
            "FAIL: warm sweep regressed beyond the tolerance — the "
            "disabled-observability hot path got slower",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sweep")
    parser.add_argument("--jobs", type=int, default=1, help="sweep parallelism")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sweep.json"))
    parser.add_argument(
        "--keep-cache", action="store_true", help="keep the bench cache dir"
    )
    parser.add_argument(
        "--check-warm-vs",
        default=None,
        metavar="REF_JSON",
        help="fail if warm_seconds regresses >10%% vs this reference report",
    )
    parser.add_argument(
        "--warm-tolerance",
        type=float,
        default=0.10,
        help="relative warm-time regression tolerance for --check-warm-vs",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="also run once under this NACHOS_CHAOS fault profile on a "
        "fresh cache; output must match the fault-free cold run",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append this report to the perf-observatory run ledger "
        "(NDJSON; see docs/perf.md)",
    )
    parser.add_argument("--child-quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child_quick:
        _smoke_sweep()
        return 0

    cache_dir = Path(tempfile.mkdtemp(prefix="nachos-bench-cache-"))
    try:
        if args.quick:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child-quick"]
        else:
            cmd = [sys.executable, "-m", "repro.experiments.cli", "all"]
        env = _child_env(cache_dir, args.jobs)

        print(f"[cold run: jobs={args.jobs}, cache={cache_dir}]")
        cold_s, cold_cpu, cold_out = _timed_run(cmd, env)
        print(f"[cold: {cold_s:.1f}s wall, {cold_cpu:.1f}s cpu]")

        print("[warm run: same cache]")
        warm_s, _warm_cpu, warm_out = _timed_run(cmd, env)
        print(f"[warm: {warm_s:.1f}s]")

        identical = _strip_timing(cold_out) == _strip_timing(warm_out)

        chaos_identical = None
        chaos_s = None
        if args.chaos:
            # Fresh cache so every task really executes (and really gets
            # crashed/hung/corrupted) rather than being cache-served.
            chaos_cache = Path(tempfile.mkdtemp(prefix="nachos-bench-chaos-"))
            try:
                chaos_env = _child_env(chaos_cache, args.jobs)
                chaos_env["NACHOS_CHAOS"] = args.chaos
                chaos_env.setdefault("NACHOS_TIMEOUT", "10")
                chaos_env.setdefault("NACHOS_MAX_RETRIES", "3")
                chaos_env.setdefault("NACHOS_BACKOFF_BASE", "0.05")
                print(f"[chaos run: NACHOS_CHAOS={args.chaos}]")
                chaos_s, _chaos_cpu, chaos_out = _timed_run(cmd, chaos_env)
                print(f"[chaos: {chaos_s:.1f}s]")
                chaos_identical = _strip_timing(chaos_out) == _strip_timing(cold_out)
            finally:
                shutil.rmtree(chaos_cache, ignore_errors=True)

        stats = _cache_stats(cache_dir)
        report = {
            "mode": "quick" if args.quick else "full",
            "jobs": args.jobs,
            "seed_serial_seconds": None if args.quick else SEED_SERIAL_SECONDS,
            "cold_seconds": round(cold_s, 2),
            "warm_seconds": round(warm_s, 2),
            "warm_speedup_vs_cold": round(cold_s / warm_s, 2),
            "warm_speedup_vs_seed": (
                None if args.quick else round(SEED_SERIAL_SECONDS / warm_s, 2)
            ),
            "cold_speedup_vs_seed": (
                None if args.quick else round(SEED_SERIAL_SECONDS / cold_s, 2)
            ),
            "outputs_identical_cold_vs_warm": identical,
            "cache": stats,
        }
        figure_walls = _parse_figure_walls(cold_out)
        if figure_walls:
            report["per_figure_wall_seconds"] = figure_walls
        if args.chaos:
            report["chaos_spec"] = args.chaos
            report["chaos_seconds"] = round(chaos_s, 2)
            report["outputs_identical_chaos_vs_cold"] = chaos_identical
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        if args.ledger:
            # _cache_stats already put src/ on sys.path for this import.
            from repro.obs import PerfLedger, record_from_bench

            ledger = PerfLedger(args.ledger)
            fp = ledger.append(record_from_bench(report))
            print(f"[ledger {ledger.path}: appended bench record {fp}]")
        if not identical:
            print("FAIL: warm output differs from cold output", file=sys.stderr)
            return 1
        if args.chaos and not chaos_identical:
            print(
                "FAIL: chaos-run output differs from the fault-free cold run",
                file=sys.stderr,
            )
            return 1
        if not args.quick and SEED_SERIAL_SECONDS / warm_s < 3.0:
            print("FAIL: warm sweep is not >= 3x the seed baseline", file=sys.stderr)
            return 1
        if args.check_warm_vs:
            return _check_warm(args.check_warm_vs, report, args.warm_tolerance)
        return 0
    finally:
        if args.keep_cache:
            print(f"[cache kept at {cache_dir}]")
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
