"""Soundness of the per-region golden-model and address-stream memo.

``run_system`` computes the golden execution and the address streams
once per (workload, invocation trace) and shares them across every
system, although each system simulates its own graph: bare, compiled,
baseline-compiled or oracle-annotated.  That is sound only while
compilation rewrites MDEs and nothing else.  These tests pin both
halves on real path-0 regions x all seven systems:

* every simulated graph carries exactly the workload's ops (``op_id``,
  ``opcode``, ``inputs`` and ``addr``, in program order),
* ``golden_execute`` runs once per (region, invocation count) however
  many systems check against it, once more for a new invocation count,
  and afresh after :func:`~repro.experiments.common.clear_memos`.
"""

from __future__ import annotations

import pytest

from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

REGIONS = ("parser", "histogram", "povray")
SYSTEMS = (
    "opt-lsq",
    "spec-lsq",
    "serial-mem",
    "baseline-sw",
    "nachos-sw",
    "nachos",
    "oracle-sw",
)
INVOCATIONS = 8


def _op_table(graph) -> list:
    return [(op.op_id, op.opcode, op.inputs, op.addr) for op in graph.ops]


@pytest.fixture
def golden_calls(cold_experiments, monkeypatch):
    """``common.golden_execute`` wrapped to record each call's graph name
    and invocation count."""
    calls = []
    golden_execute = cold_experiments.golden_execute

    def counted(graph, envs):
        calls.append((graph.name, len(envs)))
        return golden_execute(graph, envs)

    monkeypatch.setattr(cold_experiments, "golden_execute", counted)
    return calls


@pytest.mark.parametrize("bench", REGIONS)
def test_every_system_simulates_the_workload_ops(bench, cold_experiments, monkeypatch):
    simulated = []
    make_engine = cold_experiments.make_engine

    def capturing(graph, *args, **kwargs):
        simulated.append(graph)
        return make_engine(graph, *args, **kwargs)

    monkeypatch.setattr(cold_experiments, "make_engine", capturing)
    workload = build_workload(get_spec(bench), path_index=0)
    for system in SYSTEMS:
        run = cold_experiments.run_system(workload, system, invocations=INVOCATIONS)
        assert run.correct, f"{bench}/{system}: golden mismatch"
    assert len(simulated) == len(SYSTEMS)
    expected = _op_table(workload.graph)
    for system, graph in zip(SYSTEMS, simulated):
        assert _op_table(graph) == expected, (
            f"{bench}/{system}: the simulated graph's ops differ from the "
            "workload's, so one golden result cannot serve every system"
        )


@pytest.mark.parametrize("bench", REGIONS)
def test_golden_runs_once_per_region_and_trace(bench, cold_experiments, golden_calls):
    workload = build_workload(get_spec(bench), path_index=0)
    name = workload.graph.name

    for system in SYSTEMS:
        cold_experiments.run_system(workload, system, invocations=INVOCATIONS)
    assert golden_calls == [(name, INVOCATIONS)]

    for system in SYSTEMS:
        cold_experiments.run_system(workload, system, invocations=INVOCATIONS + 4)
    assert golden_calls == [(name, INVOCATIONS), (name, INVOCATIONS + 4)]

    cold_experiments.clear_memos()
    cold_experiments.run_system(workload, "nachos", invocations=INVOCATIONS)
    assert golden_calls == [
        (name, INVOCATIONS),
        (name, INVOCATIONS + 4),
        (name, INVOCATIONS),
    ]
