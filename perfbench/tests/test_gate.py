import copy

import pytest

import gate

REGION = "gzip/path0"


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """One committed sweep task, simulated afresh in an empty cache."""
    from repro.experiments import common
    from repro.runtime.cache import configure_cache, get_cache
    from repro.workloads.generator import build_workload
    from repro.workloads.suite import get_spec
    from workloads import INVOCATIONS

    previous = get_cache()
    configure_cache(root=tmp_path_factory.mktemp("cache"), enabled=True)
    common.clear_memos()
    try:
        workload = build_workload(get_spec(REGION.split("/")[0]), 0)
        yield common.run_system(workload, "nachos", invocations=INVOCATIONS)
    finally:
        get_cache().flush_stats()
        configure_cache(root=previous.root, enabled=previous.enabled)
        common.clear_memos()


def test_real_run_matches_the_committed_record(real_run):
    key = f"{REGION}|nachos"
    expected = gate.load("sweep")
    assert gate.check(expected, {key: gate.sweep_record(real_run)}) == {}


def test_a_planted_one_cycle_change_is_caught_and_located(real_run):
    key = f"{REGION}|nachos"
    expected = gate.load("sweep")
    perturbed = copy.deepcopy(real_run)
    perturbed.sim.cycles += 1
    failures = gate.check(expected, {key: gate.sweep_record(perturbed)})
    assert list(failures) == [key]
    assert failures[key][0].startswith(f"{key}: cycles expected")


def test_a_one_cycle_shift_inside_one_invocation_is_caught(real_run):
    key = f"{REGION}|nachos"
    perturbed = copy.deepcopy(real_run)
    perturbed.sim.per_invocation_cycles[3] += 1
    failures = gate.check(gate.load("sweep"), {key: gate.sweep_record(perturbed)})
    assert [m.split(":")[1].split()[0] for m in failures[key]] == [
        "per_invocation_cycles"
    ]


def test_unknown_items_and_missing_fields_fail():
    expected = {"a|x": {"cycles": 1, "l1_hits": 2}}
    assert gate.check(expected, {"b|x": {"cycles": 1}}) == {
        "b|x": ["b|x: no expected record"]
    }
    failures = gate.check(expected, {"a|x": {"cycles": 1}})
    assert failures == {"a|x": ["a|x: l1_hits expected 2, got '<absent>'"]}


def test_committed_files_cover_every_item():
    from workloads import SYSTEMS, draw_requests

    sweep = gate.load("sweep")
    assert len(sweep) == 27 * len(SYSTEMS)
    assert all(r["golden_match"] for r in sweep.values())
    compile_records = gate.load("compile")
    assert len(compile_records) == 135 * 4
    serve = gate.load("serve")
    tasks = {r.task_key(s) for batch in draw_requests(0) for r in batch
             for s in r.systems}
    assert tasks == set(serve)
    assert all(r["correct"] for r in serve.values())
