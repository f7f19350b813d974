"""Exact pins for the engine's non-default operand-delivery paths.

The default engine delivers operands through a precomputed plan with
network energy folded in.  Two :class:`~repro.sim.config.EngineConfig`
switches take other paths through the same code:

* ``model_link_contention=True`` walks every operand's XY route and
  reserves links, delivering through a separate loop,
* ``charge_network=False`` drops the operand-network and memory-edge
  ``NET_LINK`` charges.

``tests/test_noc_contention.py`` checks these paths only for "never
faster" and "still correct".  This test pins their exact outputs on
four compiled path-0 regions (bzip2: MAY-heavy; histogram and povray:
comparator conflicts and LSQ forwards; art: LSQ forwards) for the LSQ,
speculative-LSQ and NACHOS backends against
``tests/golden/engine_config_pins.json``: cycles, energy counts by
event, every backend counter, L1 stats and digests of the load values
and the final memory image.  Regenerate intentionally with
``pytest --update-golden`` and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.config import EngineConfig
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec
from tests.conftest import sim_record

PINS = Path(__file__).parent / "golden" / "engine_config_pins.json"
INVOCATIONS = 8
REGIONS = ("bzip2", "histogram", "povray", "art")
SYSTEMS = ("opt-lsq", "spec-lsq", "nachos")
CONFIGS = {
    "contention": EngineConfig(model_link_contention=True),
    "no-charge": EngineConfig(charge_network=False),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("bench", REGIONS)
def test_engine_config_pin(bench, config, cold_experiments, update_golden):
    workload = build_workload(get_spec(bench), path_index=0)
    current = {}
    for system in SYSTEMS:
        run = cold_experiments.run_system(
            workload, system, invocations=INVOCATIONS,
            engine_config=CONFIGS[config],
        )
        current[system] = {**sim_record(run.sim), "golden_match": run.correct}

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    if update_golden:
        pins.setdefault(bench, {})[config] = current
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return
    assert config in pins.get(bench, {}), (
        f"{bench}/{config}: missing from {PINS.name}; "
        "generate with pytest --update-golden"
    )
    mismatches = []
    for system in SYSTEMS:
        want = pins[bench][config].get(system, {})
        got = current[system]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                mismatches.append(
                    f"{bench}/{system}/{config}: {name} expected "
                    f"{want.get(name)!r}, got {got.get(name)!r}"
                )
    assert not mismatches, (
        "engine-config behaviour drifted from the pins (if intended, "
        "regenerate with pytest --update-golden and review the diff):\n  "
        + "\n  ".join(mismatches)
    )
