"""Real-region behaviour snapshot: every path-0 suite region x every system.

Each of the 27 suite benchmarks' path-0 region runs through
:func:`~repro.experiments.common.run_system` on all seven systems at
:data:`INVOCATIONS` invocations, cold (memos cleared, result cache off),
and its observable outputs are pinned against
``tests/golden/real_regions.json``:

* cycles and per-invocation cycles,
* energy event counts,
* every :class:`~repro.sim.result.BackendStats` counter,
* L1 and L2 hits and misses,
* digests of the load values and the final memory image,
* the golden-model match and the MDE count.

This is the tier-1 corpus that drives real compiled regions through
every backend; the litmus timelines (``tests/golden/<pattern>.json``)
pin the same engine on hand-built patterns.  Regenerate intentionally
with ``pytest --update-golden`` and review the diff like any other
behaviour change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import common
from repro.memory.hierarchy import MemoryHierarchy
from repro.runtime.cache import configure_cache, get_cache
from repro.sim.result import BackendStats
from repro.workloads.generator import build_workload
from repro.workloads.suite import benchmark_names, get_spec

SNAPSHOT = Path(__file__).parent / "golden" / "real_regions.json"
INVOCATIONS = 8
SYSTEMS = (
    "opt-lsq",
    "spec-lsq",
    "serial-mem",
    "baseline-sw",
    "nachos-sw",
    "nachos",
    "oracle-sw",
)


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _CapturingHierarchy(MemoryHierarchy):
    """The hierarchy ``run_system`` builds, kept so L2 stats are readable."""

    built = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.built.append(self)


@pytest.fixture
def cold_runs(monkeypatch):
    """``run_system`` with nothing memoized or cached, hierarchy captured."""
    prev = get_cache()
    configure_cache(enabled=False)
    common.clear_memos()
    monkeypatch.setattr(common, "MemoryHierarchy", _CapturingHierarchy)
    _CapturingHierarchy.built = []
    yield _CapturingHierarchy.built
    common.clear_memos()
    configure_cache(root=prev.root, enabled=prev.enabled)


def _record(run, hierarchy) -> dict:
    sim = run.sim
    l2 = hierarchy.l2.stats
    return {
        "cycles": sim.cycles,
        "per_invocation_cycles": list(sim.per_invocation_cycles),
        "energy_counts": {e.value: n for e, n in sim.energy.counts.items()},
        "backend_stats": {
            name: getattr(sim.backend_stats, name)
            for name in BackendStats.COUNTERS
        },
        "l1_hits": sim.l1_hits,
        "l1_misses": sim.l1_misses,
        "l2_hits": l2.hits,
        "l2_misses": l2.misses,
        "load_values": _digest(sorted(
            [inv, op, value] for (inv, op), value in sim.load_values.items()
        )),
        "memory_image": _digest([list(pair) for pair in sim.memory_image]),
        "golden_match": run.correct,
        "n_mdes": run.n_mdes,
    }


def _region_records(bench: str, built: list) -> dict:
    workload = build_workload(get_spec(bench), path_index=0)
    records = {}
    for system in SYSTEMS:
        del built[:]
        run = common.run_system(workload, system, invocations=INVOCATIONS)
        assert len(built) == 1, f"{bench}/{system}: expected one cold simulation"
        records[system] = _record(run, built[0])
    return records


@pytest.mark.parametrize("bench", benchmark_names())
def test_real_region_snapshot(bench, cold_runs, update_golden):
    current = _region_records(bench, cold_runs)
    snapshot = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}
    if update_golden:
        snapshot[bench] = current
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        return
    assert bench in snapshot, (
        f"{bench}: missing from {SNAPSHOT.name}; generate with pytest --update-golden"
    )
    mismatches = []
    for system in SYSTEMS:
        want = snapshot[bench].get(system, {})
        got = current[system]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                mismatches.append(
                    f"{bench}/{system}: {name} expected {want.get(name)!r}, "
                    f"got {got.get(name)!r}"
                )
    assert not mismatches, (
        "real-region behaviour drifted from the snapshot (if intended, "
        "regenerate with pytest --update-golden and review the diff):\n  "
        + "\n  ".join(mismatches)
    )
