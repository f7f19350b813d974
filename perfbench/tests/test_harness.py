import json
import subprocess
import sys
from pathlib import Path

import probes
import report
import run
import workloads
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.EXPECTED_FILE)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in report.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in report.PER_LAYER
    ]


def _cli(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )


def test_unknown_workload_is_rejected():
    result = _cli("--workload", "sweep-hot", "--seed", "1", "--seconds", "1")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr
    assert result.stdout == ""


def test_regeneration_needs_the_default_seed():
    result = _cli("--workload", "sweep-cold", "--seed", "5", "--regenerate-expected")
    assert result.returncode == 2
    assert "default seed" in result.stderr


def test_probes_restore_every_rebound_name():
    from repro.compiler import pipeline
    from repro.experiments import common
    from repro.runtime.cache import ResultCache

    before = (common.run_system, common.make_engine, pipeline.refine_stage5,
              ResultCache.__dict__["get"])
    with probes.Patches() as patches:
        probes.install(patches, SpanRecorder())
        assert common.run_system is not before[0]
        assert ResultCache.__dict__["get"] is not before[3]
    after = (common.run_system, common.make_engine, pipeline.refine_stage5,
             ResultCache.__dict__["get"])
    assert after == before
