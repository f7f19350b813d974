"""Compile-layer snapshot: every path-0 suite region x three pipeline configs.

Each of the 27 suite benchmarks' path-0 region is compiled from a fresh
clone of its graph under ``full``, ``paper_faithful`` and
``baseline_compiler``, and the compiler's observable outputs are pinned
against ``tests/golden/compile_regions.json``:

* the NO/MUST/MAY census of stages 1, 2, 4, 5 and of the final labels
  (``None`` for a stage the config skips),
* digests of the final label matrix, of ``exact_pairs`` and of the MDE
  list ``(src, dst, kind)`` in insertion order,
* the :class:`~repro.compiler.aliasing.stage5.Stage5Stats` counters.

Per region it also pins the two compile-time checks that do not depend
on the config:

* ``oracle``: digests of :func:`~repro.compiler.oracle_labels.oracle_matrix`
  and of its always-exact set over :data:`INVOCATIONS` invocations,
* ``coverage``: a digest of :func:`~repro.compiler.coverage.required_pairs`
  with each verdict's label, ``exact``, ``decided_by``, ``can_overlap``
  and ``always_overlaps``.

Optimisations of the compiler must leave every field unchanged.
Regenerate intentionally with ``pytest --update-golden`` and review the
diff like any other behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.compiler.coverage import required_pairs
from repro.compiler.oracle_labels import oracle_matrix
from repro.compiler.pipeline import AliasPipeline, PipelineConfig
from repro.workloads.generator import build_workload
from repro.workloads.suite import benchmark_names, get_spec
from tests.conftest import digest

SNAPSHOT = Path(__file__).parent / "golden" / "compile_regions.json"
INVOCATIONS = 40
CONFIGS = {
    "full": PipelineConfig.full(),
    "paper_faithful": PipelineConfig.paper_faithful(),
    "baseline_compiler": PipelineConfig.baseline_compiler(),
}


def _census(matrix):
    if matrix is None:
        return None
    return {label.value: n for label, n in matrix.counts().items()}


def _labels_digest(matrix) -> str:
    return digest([[older, younger, label.value] for (older, younger), label in matrix])


def _config_record(result) -> dict:
    stats = result.stage5_stats
    return {
        "stage1": _census(result.stage1),
        "stage2": _census(result.stage2),
        "stage4": _census(result.stage4),
        "stage5": _census(result.stage5),
        "final": _census(result.final_labels),
        "labels": _labels_digest(result.final_labels),
        "exact_pairs": digest(sorted(list(p) for p in result.exact_pairs)),
        "mdes": digest([[e.src, e.dst, e.kind.value] for e in result.mdes]),
        "n_mdes": len(result.mdes),
        "stage5_stats": None if stats is None else {
            "symbolic_pairs": stats.symbolic_pairs,
            "resolved_no": stats.resolved_no,
            "resolved_must": stats.resolved_must,
        },
    }


def _region_records(bench: str) -> dict:
    workload = build_workload(get_spec(bench), path_index=0)
    records = {
        name: _config_record(AliasPipeline(cfg).run(workload.graph.clone()))
        for name, cfg in CONFIGS.items()
    }
    graph = workload.graph.clone(with_mdes=False)
    matrix, always_exact = oracle_matrix(graph, workload.invocations(INVOCATIONS))
    records["oracle"] = {
        "census": _census(matrix),
        "labels": _labels_digest(matrix),
        "always_exact": digest(sorted(list(p) for p in always_exact)),
    }
    required = required_pairs(graph)
    records["coverage"] = {
        "required": len(required),
        "required_pairs": digest([
            [older, younger, kind.value, v.label.value, v.exact, v.decided_by,
             v.can_overlap, v.always_overlaps]
            for older, younger, kind, v in required
        ]),
    }
    return records


@pytest.mark.parametrize("bench", benchmark_names())
def test_compile_snapshot(bench, update_golden):
    current = _region_records(bench)
    snapshot = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}
    if update_golden:
        snapshot[bench] = current
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        return
    assert bench in snapshot, (
        f"{bench}: missing from {SNAPSHOT.name}; generate with pytest --update-golden"
    )
    mismatches = []
    for config in sorted(set(snapshot[bench]) | set(current)):
        want = snapshot[bench].get(config, {})
        got = current.get(config, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                mismatches.append(
                    f"{bench}/{config}: {name} expected {want.get(name)!r}, "
                    f"got {got.get(name)!r}"
                )
    assert not mismatches, (
        "compiler output drifted from the snapshot (if intended, "
        "regenerate with pytest --update-golden and review the diff):\n  "
        + "\n  ".join(mismatches)
    )
