"""Output-correctness gate: per-item records against committed digests.

Each item's outputs are reduced to a small JSON record (cycles, energy
ledger counts, backend counters, L1 hits and misses, the golden match,
the compiler's NO/MUST/MAY census, serve payload fields).  For the
default seed the records must equal the ones committed under
``expected/``; a mismatch names the item and the field.  Records are
regenerated with ``run.py --regenerate-expected`` after a deliberate
model change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Bump when a record's layout changes.
RECORD_SCHEMA = 1


def digest(values: Any) -> str:
    """Short content digest of a JSON-able value."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_record(run) -> Dict[str, Any]:
    """What one (region, system) simulation must reproduce exactly."""
    from repro.sim.result import BackendStats

    sim = run.sim
    return {
        "cycles": int(sim.cycles),
        "per_invocation_cycles": digest([int(c) for c in sim.per_invocation_cycles]),
        "energy_counts": {e.value: int(n) for e, n in sim.energy.counts.items()},
        "backend": {
            name: int(getattr(sim.backend_stats, name))
            for name in BackendStats.COUNTERS
        },
        "l1_hits": int(sim.l1_hits),
        "l1_misses": int(sim.l1_misses),
        "golden_match": bool(run.correct),
        "n_mdes": int(run.n_mdes),
    }


def compile_record(result) -> Dict[str, Any]:
    """NO/MUST/MAY census of the final labels plus the MDE count."""
    counts = result.final_labels.counts()
    record = {label.value: int(n) for label, n in counts.items()}
    record["mdes"] = len(result.mdes)
    return record


def serve_record(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The payload fields of one system in a serve response."""
    fields = ("cycles", "invocations", "energy", "correct", "n_mdes",
              "l1_hits", "l1_misses")
    return {name: payload[name] for name in fields}


def diff_records(key: str, expected: Mapping, actual: Mapping) -> List[str]:
    """One located message per differing field."""
    out = []
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name, "<absent>")
        got = actual.get(name, "<absent>")
        if want != got:
            out.append(f"{key}: {name} expected {want!r}, got {got!r}")
    return out


def check(expected: Mapping[str, Mapping], actual: Mapping[str, Mapping]
          ) -> Dict[str, List[str]]:
    """Mismatch messages per item key (items without any are absent)."""
    failures: Dict[str, List[str]] = {}
    for key, record in actual.items():
        want = expected.get(key)
        if want is None:
            failures[key] = [f"{key}: no expected record"]
            continue
        messages = diff_records(key, want, record)
        if messages:
            failures[key] = messages
    return failures


def load(name: str) -> Dict[str, Dict]:
    with open(EXPECTED_DIR / f"{name}.json") as fh:
        data = json.load(fh)
    if data.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"expected/{name}.json has schema {data.get('schema')}, "
                         f"want {RECORD_SCHEMA}; regenerate it")
    return data["records"]


def save(name: str, records: Mapping[str, Mapping]) -> Path:
    """Write ``records`` one item per line, so a model change diffs by item."""
    path = EXPECTED_DIR / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"  {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
             for key in sorted(records)]
    with open(path, "w") as fh:
        fh.write(f'{{"schema": {RECORD_SCHEMA}, "records": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    return path
