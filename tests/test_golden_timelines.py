"""Golden timeline corpus for the litmus patterns.

Serializes the :class:`TimelineRecorder` output (per-op start/complete
times for every invocation, every backend) of each litmus pattern and
pins it against committed JSON under ``tests/golden/``: an engine or
backend change that moves *when* ops execute shows up as a golden diff,
even if final values stay correct.

Regenerate intentionally with ``pytest --update-golden`` (then review
the diff like any other behavior change).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.test_litmus import BACKENDS, LITMUS, NEEDS_MDES

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.memory import MemoryHierarchy
from repro.sim import TimelineRecorder, make_engine

GOLDEN_DIR = Path(__file__).parent / "golden"
INVOCATION_REPEATS = 2  # the second repeat runs against a warm L1


def _record_timelines(name: str) -> dict:
    """One pattern's serialized timelines for every backend."""
    build_fn, envs = LITMUS[name]
    envs = envs * INVOCATION_REPEATS
    per_backend = {}
    for backend_name in sorted(BACKENDS):
        graph = build_fn()
        if backend_name in NEEDS_MDES:
            compile_region(graph)
        else:
            graph.clear_mdes()
        recorder = TimelineRecorder()
        engine = make_engine(
            graph,
            place_region(graph),
            MemoryHierarchy(),
            BACKENDS[backend_name](),
            recorder=recorder,
        )
        engine.run(envs)
        per_backend[backend_name] = [
            {
                "index": tl.index,
                "start": tl.start,
                "end": tl.end,
                "timings": [
                    [t.op_id, t.opcode, t.name, t.start, t.complete]
                    for t in tl.timings
                ],
            }
            for tl in recorder.invocations
        ]
    return {"pattern": name, "invocations": per_backend}


@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_golden_timeline(litmus, update_golden):
    current = _record_timelines(litmus)
    path = GOLDEN_DIR / f"{litmus}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; generate with pytest --update-golden"
    )
    golden = json.loads(path.read_text())
    assert current == golden, (
        f"{litmus}: timelines drifted from golden corpus — if intended, "
        "regenerate with pytest --update-golden and review the diff"
    )

