"""Simulation outputs must not depend on the interpreter's hash seed.

``Opcode`` and ``EnergyEvent`` hash by identity, so their hashes differ
from run to run, and before that they hashed by name, which
``PYTHONHASHSEED`` salts.  Any output that followed the iteration order
of a set of either enum would therefore vary between processes.  This
runs real path-0 regions through every sweep system in two interpreters
with different hash seeds and requires byte-identical records: cycles,
energy counts by event (in ledger order), backend counters and digests
of the load values and the final memory image.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
REGIONS = ("bzip2", "histogram")
SYSTEMS = ("opt-lsq", "spec-lsq", "serial-mem", "nachos-sw", "nachos")
INVOCATIONS = 8

CHILD_SCRIPT = f"""
import json
from repro.experiments import common
from repro.runtime.cache import configure_cache
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec
from tests.conftest import sim_record

configure_cache(enabled=False)
records = {{}}
for bench in {REGIONS!r}:
    workload = build_workload(get_spec(bench), path_index=0)
    for system in {SYSTEMS!r}:
        run = common.run_system(workload, system, invocations={INVOCATIONS})
        records[bench + "/" + system] = {{
            **sim_record(run.sim), "golden_match": run.correct,
        }}
print(json.dumps(records))
"""


def _records_under(hash_seed: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NACHOS_")}
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_identical_across_hash_seeds():
    first = _records_under("0")
    second = _records_under("12345")
    records = json.loads(first)
    assert len(records) == len(REGIONS) * len(SYSTEMS)
    assert all(record["golden_match"] for record in records.values())
    assert first == second, (
        "simulation outputs differ between PYTHONHASHSEED=0 and 12345: "
        "something iterates a hash-ordered collection"
    )
