"""SERIAL-MEM: strictly in-order memory execution (Table I's CFU class).

Compound-function-unit accelerators (CFU, C-Cores) terminate accelerated
blocks at memory operations, so memory executes in program order with no
disambiguation hardware at all — the paper's Table I lists this as the
"Inorder" memory-ordering class whose granularity NACHOS unlocks.

This backend models that class on the same fabric: every memory
operation waits for the previous memory operation to complete before
touching the cache.  It needs no compiler labels and no hardware, and it
is trivially correct; it exists to quantify the granularity argument
(``experiments/granularity.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.ops import Operation
from repro.obs import tracer as obs
from repro.sim.engine import DisambiguationBackend


class SerialMemBackend(DisambiguationBackend):
    """Program-order memory execution; zero disambiguation cost."""

    name = "serial-mem"

    def __init__(self) -> None:
        super().__init__()
        self._order: list = []
        self._index: Dict[int, int] = {}
        self._addr_ready: Dict[int, int] = {}
        self._value_ready: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}
        self._issued: set = set()
        self._t0 = 0
        self._blocked_since: Dict[int, int] = {}  # tracing only

    def attach(self, engine, graph, placement) -> None:
        super().attach(engine, graph, placement)
        self._order = [op.op_id for op in graph.memory_ops]
        self._index = {oid: k for k, oid in enumerate(self._order)}

    def begin_invocation(self, inv, t0, addr_of) -> None:
        self._addr_ready.clear()
        self._value_ready.clear()
        self._completed.clear()
        self._issued.clear()
        self._t0 = t0
        self._blocked_since.clear()

    # ------------------------------------------------------------------
    def on_addr_ready(self, op: Operation, t: int) -> None:
        self._addr_ready[op.op_id] = t
        self._try(op, t)

    def on_value_ready(self, op: Operation, t: int) -> None:
        self._value_ready[op.op_id] = t
        self._try(op, t)

    def on_memory_complete(self, op: Operation, t: int) -> None:
        self._completed[op.op_id] = t
        idx = self._index[op.op_id] + 1
        if idx < len(self._order):
            nxt = self.graph.op(self._order[idx])
            self.engine.schedule(t + 1, lambda: self._try(nxt, t + 1))

    # ------------------------------------------------------------------
    def _try(self, op: Operation, now: int) -> None:
        oid = op.op_id
        if oid in self._issued:
            return
        if oid not in self._addr_ready:
            return
        if op.is_store and oid not in self._value_ready:
            return
        idx = self._index[oid]
        t = max(self._addr_ready[oid], now)
        if op.is_store:
            t = max(t, self._value_ready[oid])
        if idx > 0:
            prev = self._order[idx - 1]
            if prev not in self._completed:
                if self._trace is not None:
                    # Ready but serialized behind the previous memory op.
                    self._blocked_since.setdefault(oid, t)
                return
            t = max(t, self._completed[prev] + 1)
        self._issued.add(oid)
        if self._trace is not None:
            since = self._blocked_since.pop(oid, None)
            if since is not None and t > since:
                self._trace.emit(obs.OP_BLOCKED, since, dur=t - since, op=oid)
        if op.is_load:
            self.engine.do_load(op, t)
        else:
            self.engine.do_store(op, t)
