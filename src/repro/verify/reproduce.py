"""Standalone JSON repros for shrunken fuzz failures.

A repro file is a complete, self-describing record of one failing
(region, system) pair: the declarative :class:`~repro.verify.fuzz.RegionSpec`
(ops, environments, object size, symbol bounds) plus the failing system
and the violations observed when it was captured.  ``nachos-repro verify
--repro FILE`` re-materializes the region and re-runs the differential
check, so a failure found on one machine replays exactly anywhere —
the spec is content, not pickled state.

Static failures (the oracle cross-check and the sync-coverage check)
serialize the same way, with a ``static`` block recording which checker
fired and — for injected stage faults — the ``fault_seed`` that
deterministically re-flips the same verdict on replay.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Tuple

from repro.verify.fuzz import (
    FuzzFailure,
    MemOpSpec,
    RegionSpec,
    coverage_gaps_spec,
    crosscheck_stages,
    run_spec,
)
from repro.verify.sanitizer import SanitizerReport

FORMAT = "nachos-repro/fuzz-repro@1"


def failure_to_dict(failure: FuzzFailure) -> dict:
    payload = {
        "format": FORMAT,
        "system": failure.system,
        "oracle_ok": failure.oracle_ok,
        "violations": [str(v) for v in failure.sanitizer.violations],
        "spec": {
            "name": failure.spec.name,
            "size": failure.spec.size,
            "ops": [asdict(op) for op in failure.spec.ops],
            "envs": [
                {k: v for k, v in pairs} for pairs in failure.spec.envs
            ],
            "sym_bounds": {
                name: [lo, hi] for name, (lo, hi) in failure.spec.sym_bounds
            },
        },
    }
    if failure.static_kind is not None:
        payload["static"] = {
            "kind": failure.static_kind,
            "fault_seed": failure.fault_seed,
            "findings": list(failure.static_findings),
        }
    return payload


def save_failure(failure: FuzzFailure, path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(failure_to_dict(failure), indent=2) + "\n")
    return path


def load_repro(path: Path) -> Tuple[RegionSpec, str]:
    """Read a repro file back into a (spec, system) pair."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"{path}: not a fuzz repro (format={payload.get('format')!r})"
        )
    raw = payload["spec"]
    spec = RegionSpec(
        name=raw["name"],
        size=raw["size"],
        ops=tuple(MemOpSpec(**op) for op in raw["ops"]),
        envs=tuple(
            tuple(sorted(env.items())) for env in raw["envs"]
        ),
        sym_bounds=tuple(
            sorted(
                (name, (lo, hi))
                for name, (lo, hi) in raw.get("sym_bounds", {}).items()
            )
        ),
    )
    return spec, payload["system"]


def rerun(path: Path) -> Tuple[bool, SanitizerReport]:
    """Re-execute a saved repro; returns (oracle_ok, sanitizer_report).

    A *static* repro re-runs its checker (re-injecting the recorded
    fault seed, if any) instead of executing: ok means the checker no
    longer fires.
    """
    spec, system = load_repro(path)
    payload = json.loads(Path(path).read_text())
    static = payload.get("static")
    if static is not None:
        if static["kind"] == "oracle":
            findings = crosscheck_stages(spec, fault_seed=static["fault_seed"])
        else:
            findings = coverage_gaps_spec(spec)
        report = SanitizerReport(backend="static", region=spec.name)
        report.violations.extend(str(f) for f in findings)
        return not findings, report
    return run_spec(spec, system)
