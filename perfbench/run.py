#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced, prints the
per-layer self-time table and reports the per-layer metrics; the spans
are written to ``.perfbench-out/`` when the run ends.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every item's
outputs passed the correctness gate.

``--regenerate-expected`` (default seed only) rewrites the committed
digests under ``perfbench/expected/`` from this run, for a deliberate
model change.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-cold", "sweep-warm", "compile-all-paths", "serve-wide")


def hermetic_env() -> dict:
    """Drop every ``NACHOS_*`` setting (engine, jobs, cache, chaos,
    peers, ...) from this process and return the environment the serve
    daemon inherits."""
    for key in [k for k in os.environ if k.startswith("NACHOS_")]:
        del os.environ[key]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def pin_one_cpu() -> None:
    """Run this process, and the serve daemon it starts, on one CPU, so
    that the host-speed probes time the CPU the work runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    env = hermetic_env()
    pin_one_cpu()
    # A terminated run still unwinds: the serve daemon is stopped and the
    # scratch directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))

    import gate
    import probes
    import report
    import workloads
    from spans import SpanRecorder

    if args.regenerate_expected and args.seed != workloads.DEFAULT_SEED:
        parser.error("--regenerate-expected needs the default seed "
                     f"({workloads.DEFAULT_SEED})")

    def run(rec: SpanRecorder):
        with workloads.opened(ROOT, args.seed, args.seconds, rec,
                              regenerate=args.regenerate_expected) as bench:
            return workloads.run(args.workload, bench, env)

    plain = run(SpanRecorder())
    outcomes = [plain]
    print(f"== {args.workload} seed={args.seed} passes={len(plain.pass_walls)} "
          f"items={len(plain.item_s)} attempted={plain.attempted} "
          f"failed={plain.failed} failed_frac={report.failed_frac(plain):.4f}")
    print("pass_cpu_s   " + " ".join(f"{c:.3f}" for c in plain.pass_cpu)
          + "  (raw, before dividing by the host's slowdown)")
    print("pass_walls_s " + " ".join(f"{w:.3f}" for w in plain.pass_walls))
    items = report.normalised(plain, plain.item_cpu_s, plain.item_t)
    print("pass_norm_s  " + " ".join(
        f"{c:.3f}" for c in report.normalised_passes(plain, items)))
    e2e = report.end_to_end(plain)
    layer_units = {name: unit for name, unit, _ in report.PER_LAYER}
    for name, unit, _ in report.END_TO_END:
        print(f"{name:<16} {e2e[name]:>14.4f} {unit}")
    for name, value in report.wall(plain).items():
        print(f"{name:<16} {value:>14.4f} {layer_units[name]}")
    if args.workload == "sweep-cold":
        events = sum(sum(r["energy_counts"].values()) for r in plain.records.values())
        print(f"{'sim_events_per_s':<16} "
              f"{report.sim_events_per_s(plain, events):>14.1f} 1/s")
    for name, value in sorted(plain.extra.items()):
        print(f"{name:<24} {value:.6f}")

    if args.trace:
        rec = SpanRecorder()
        with probes.Patches() as patches:
            probes.install(patches, rec)
            traced = run(rec)
        outcomes.append(traced)
        rec.write(ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = report.per_layer(plain, traced, rec)
        print(report.layer_table(metrics, traced))
        units = layer_units
    else:
        metrics = e2e
        units = {name: unit for name, unit, _ in report.END_TO_END}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        for problem in outcome.problems[:20]:
            print(f"FAIL {problem}")
    if args.regenerate_expected and failed == 0:
        path = gate.save(workloads.EXPECTED_FILE[args.workload], plain.records)
        print(f"wrote {path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
