"""Equivalence of the ways to build and observe the one dataflow engine.

``make_engine`` is the single construction entry point, and tracing and
timeline recording are meant to be pure observers.  The contract is
*byte-identity*: for every (litmus pattern, backend) pair over a
multi-invocation stream, ``pickle.dumps(SimResult)`` is the same whether
the engine comes from ``make_engine`` or from ``DataflowEngine``
directly, and whether or not a :class:`Tracer` or a
:class:`TimelineRecorder` is attached — same cycles, load values,
memory image, energy counts, cache stats, backend stats, everything.
Each build uses a fresh graph, placement and hierarchy, so the check
also pins run-to-run determinism.

Two corpora are on the hook: the memory-ordering litmus suite (every
pattern x every backend x every build variant) and a fixed-seed slice
of the differential alias fuzzer's region generator, where the traced
build is the one the fuzz campaign checks against ``golden_execute``
and the untraced one is what the figures run.
"""

from __future__ import annotations

import pickle

import pytest

from tests.test_litmus import BACKENDS, LITMUS, NEEDS_MDES

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.memory import MemoryHierarchy
from repro.obs.tracer import Tracer
from repro.sim import DataflowEngine, TimelineRecorder, golden_execute, make_engine
from repro.verify.fuzz import build_graph, generate_spec

FUZZ_SEED = 0
FUZZ_SPECS = 200
FUZZ_CHUNK = 25

#: Invocation-stream repeats: later repeats run against a warm hierarchy
#: and carried-over backend state, which a single invocation never sees.
INVOCATION_REPEATS = 3

#: How each variant builds its engine from (graph, placement, hierarchy,
#: backend).
BUILDS = {
    "make_engine": lambda *parts: make_engine(*parts),
    "direct": lambda *parts: DataflowEngine(*parts),
    "traced": lambda *parts: make_engine(*parts, tracer=Tracer()),
    "recorded": lambda *parts: make_engine(
        *parts, recorder=TimelineRecorder()
    ),
}


def _run(build_fn, backend_name, envs, build):
    """Fresh graph (from ``build_fn``) and engine for one backend;
    returns the graph and the run's SimResult."""
    graph = build_fn()
    if backend_name in NEEDS_MDES:
        compile_region(graph)
    else:
        graph.clear_mdes()
    engine = BUILDS[build](
        graph, place_region(graph), MemoryHierarchy(), BACKENDS[backend_name]()
    )
    return graph, engine.run(envs)


# ---------------------------------------------------------------------------
# Corpus 1: litmus patterns
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_litmus_equivalence(backend, litmus):
    build_fn, envs = LITMUS[litmus]
    envs = envs * INVOCATION_REPEATS
    graph, ref = _run(build_fn, backend, envs, "make_engine")
    golden = golden_execute(graph, envs)
    assert golden.matches(ref.load_values, ref.memory_image), (
        f"{litmus}/{backend}: diverges from program order"
    )
    ref_bytes = pickle.dumps(ref)
    for build in sorted(BUILDS):
        _, other = _run(build_fn, backend, envs, build)
        assert pickle.dumps(other) == ref_bytes, (
            f"{litmus}/{backend}/{build}: SimResults diverge"
        )


# ---------------------------------------------------------------------------
# Corpus 2: fuzzer regions (fixed seed => fixed corpus)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(FUZZ_SPECS // FUZZ_CHUNK))
def test_fuzz_corpus_equivalence(chunk):
    for index in range(chunk * FUZZ_CHUNK, (chunk + 1) * FUZZ_CHUNK):
        spec = generate_spec(FUZZ_SEED, index)
        envs = spec.env_dicts()
        for system in sorted(BACKENDS):
            _, ref = _run(lambda: build_graph(spec), system, envs, "make_engine")
            _, traced = _run(lambda: build_graph(spec), system, envs, "traced")
            assert pickle.dumps(ref) == pickle.dumps(traced), (
                f"{spec.name}/{system}: traced and untraced SimResults diverge"
            )
