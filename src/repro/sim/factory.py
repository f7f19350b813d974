"""Engine construction.

The simulation entry points (``run_system``, ``traced_run``) build
their engine through :func:`make_engine`, the one seam instrumentation
rebinds to observe or wrap engine construction.  There is one engine,
:class:`DataflowEngine`; ``docs/simulation.md`` records why the
alternative engines were removed.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.config import EngineConfig
from repro.sim.engine import DataflowEngine


def make_engine(
    graph,
    placement,
    hierarchy,
    backend,
    energy=None,
    config: Optional[EngineConfig] = None,
    recorder=None,
    tracer=None,
) -> DataflowEngine:
    """Build the dataflow engine for one placed region and backend."""
    return DataflowEngine(
        graph,
        placement,
        hierarchy,
        backend,
        energy=energy,
        config=config,
        recorder=recorder,
        tracer=tracer,
    )
