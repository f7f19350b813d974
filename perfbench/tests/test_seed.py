from repro.runtime.fingerprint import graph_fingerprint
from repro.workloads.generator import build_workload
from repro.workloads.suite import SUITE

from workloads import DEFAULT_SEED, build_regions, draw_requests


def test_default_seed_reproduces_the_generator_regions():
    regions = build_regions(DEFAULT_SEED, 5)
    reference = [build_workload(spec, k) for spec in SUITE for k in range(5)]
    assert [w.name for w in regions] == [w.name for w in reference]
    assert [graph_fingerprint(w.graph) for w in regions] == [
        graph_fingerprint(w.graph) for w in reference
    ]


def test_other_seeds_reseed_every_region_deterministically():
    default = build_regions(DEFAULT_SEED, 1)
    first = build_regions(7, 1)
    fingerprints = [graph_fingerprint(w.graph) for w in first]
    assert fingerprints == [graph_fingerprint(w.graph) for w in build_regions(7, 1)]
    assert fingerprints != [graph_fingerprint(w.graph) for w in build_regions(8, 1)]
    # Every region gets a new generator seed (which also drives its
    # invocation stream); a few regions' graphs do not depend on it.
    assert all(a.seed != b.seed for a, b in zip(first, default))
    changed = sum(graph_fingerprint(b.graph) != fp for b, fp in zip(default, fingerprints))
    assert changed > len(default) // 2


def test_serve_draw_follows_the_seed():
    assert draw_requests(3, 4) == draw_requests(3, 4)
    assert draw_requests(3, 4) != draw_requests(4, 4)
    for batch in draw_requests(3, 4):
        regions = [request.region for request in batch]
        assert len(set(regions)) == len(regions) == 35
        for request in batch:
            assert 1 <= len(request.systems) <= 3
            assert len(set(request.systems)) == len(request.systems)
            assert 2 <= request.invocations <= 12
