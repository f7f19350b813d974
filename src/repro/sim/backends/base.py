"""Shared MDE-enforcement machinery for the NACHOS backends.

Both NACHOS-SW and NACHOS enforce compiler-inserted MDEs instead of using
an LSQ.  The difference is confined to MAY edges:

* NACHOS-SW resolves a MAY edge only when the older operation completes
  (it is treated exactly like an ORDER edge);
* NACHOS additionally owns a ``==?`` comparator at the younger op's
  functional unit and can resolve a MAY edge early when the runtime
  addresses do not overlap — and can even *forward* a conflicting store's
  value to a load.

This base class implements the whole protocol with the hardware checks
behind a flag (:attr:`hardware_checks`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.energy.config import EnergyEvent
from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge
from repro.ir.ops import Operation
from repro.obs import tracer as obs
from repro.sim.engine import DataflowEngine, DisambiguationBackend

Pair = Tuple[int, int]


def ranges_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Do byte ranges (addr, width) intersect?"""
    return a[0] < b[0] + b[1] and b[0] < a[0] + a[1]


def ranges_exact(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a == b


class MDEBackendBase(DisambiguationBackend):
    """Enforces ORDER / FORWARD / MAY edges over the dataflow fabric."""

    #: Subclasses set this: True enables the runtime ==? comparator.
    hardware_checks = False
    #: Comparators available at each younger op's functional unit.
    comparators_per_fu = 1

    def __init__(self) -> None:
        super().__init__()
        self._parents: Dict[int, List[MemoryDependencyEdge]] = {}
        self._children: Dict[int, List[MemoryDependencyEdge]] = {}
        self._forward_src: Dict[int, int] = {}  # load -> forwarding store
        # Per-invocation state:
        self._addr_ready: Dict[int, int] = {}
        self._value_ready: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}
        self._resolved: Dict[Pair, int] = {}       # edge -> resolution cycle
        self._conflict: Dict[Pair, bool] = {}      # comparator verdicts
        self._checked: Set[Pair] = set()
        self._fu_free: Dict[int, List[int]] = {}   # comparator pool per op
        self._issued: Set[int] = set()
        self._addr_of: Dict[int, Tuple[int, int]] = {}
        self._t0 = 0
        self._blocked_since: Dict[int, int] = {}   # tracing only

    # ------------------------------------------------------------------
    def attach(self, engine: DataflowEngine, graph: DFGraph, placement) -> None:
        super().attach(engine, graph, placement)
        self._parents = {op.op_id: [] for op in graph.memory_ops}
        self._children = {op.op_id: [] for op in graph.memory_ops}
        self._forward_src = {}
        for edge in graph.mdes:
            self._parents[edge.dst].append(edge)
            self._children[edge.src].append(edge)
            if edge.kind is MDEKind.FORWARD:
                self._forward_src[edge.dst] = edge.src

    def begin_invocation(self, inv, t0, addr_of) -> None:
        self._addr_ready.clear()
        self._value_ready.clear()
        self._completed.clear()
        self._resolved.clear()
        self._conflict.clear()
        self._checked.clear()
        self._fu_free.clear()
        self._issued.clear()
        self._addr_of = addr_of
        self._t0 = t0
        self._blocked_since.clear()

    # ------------------------------------------------------------------
    # Engine notifications
    # ------------------------------------------------------------------
    def on_addr_ready(self, op: Operation, t: int) -> None:
        self._addr_ready[op.op_id] = t
        if self.hardware_checks:
            self._schedule_checks_for(op, t)
        self._try_issue(op.op_id, t)

    def on_value_ready(self, op: Operation, t: int) -> None:
        self._value_ready[op.op_id] = t
        self._try_issue(op.op_id, t)
        # A store's value becoming ready can unblock forwarded loads.
        for edge in self._children.get(op.op_id, []):
            if edge.kind in (MDEKind.FORWARD, MDEKind.MAY):
                self._retry(edge.dst, t)

    def on_memory_complete(self, op: Operation, t: int) -> None:
        self._completed[op.op_id] = t
        signal = self.engine.config.order_signal_latency
        for edge in self._children.get(op.op_id, []):
            pair = (edge.src, edge.dst)
            if pair in self._resolved:
                continue
            when = t + signal
            self._resolved[pair] = when
            if edge.kind is MDEKind.ORDER or (
                edge.kind is MDEKind.MAY and not self.hardware_checks
            ):
                # A MAY edge without hardware checks (NACHOS-SW) is
                # serialized exactly like an ORDER edge (1-bit).
                self.engine.energy.charge(EnergyEvent.MDE_MUST)
                self.stats.order_waits += 1
                if self._trace is not None:
                    self._emit_order_wait(edge, when)
            elif (
                edge.kind is MDEKind.MAY
                and self.hardware_checks
                and self._conflict.get(pair) is True
                and edge.dst not in self._issued
            ):
                # NACHOS with a conflicting `==?` verdict that was not
                # satisfied by a forward: the younger op really stalled
                # until this completion — an order wait, even though no
                # 1-bit MDE signal was charged for it.
                self.stats.order_waits += 1
                if self._trace is not None:
                    self._emit_order_wait(edge, when)
            self._retry(edge.dst, when)

    # ------------------------------------------------------------------
    def _retry(self, op_id: int, when: int) -> None:
        self.engine.schedule(when, lambda: self._try_issue(op_id, when))

    # ------------------------------------------------------------------
    # Tracing helpers (no-ops unless a tracer is attached)
    # ------------------------------------------------------------------
    def _emit_order_wait(self, edge: MemoryDependencyEdge, when: int) -> None:
        """One order-wait span per serialized edge resolution.

        The wait extent runs from the younger op's address readiness
        (if it was already waiting) to the resolution instant.
        """
        dst_ready = self._addr_ready.get(edge.dst)
        wait = max(0, when - dst_ready) if dst_ready is not None else 0
        self._trace.emit(
            obs.ORDER_WAIT,
            when - wait,
            dur=wait,
            op=edge.dst,
            args={"src": edge.src, "edge": edge.kind.name.lower()},
        )

    def _note_blocked(self, op_id: int, now: int) -> None:
        self._blocked_since.setdefault(op_id, now)

    def _emit_unblocked(self, op_id: int, t_issue: int) -> None:
        since = self._blocked_since.pop(op_id, None)
        if since is not None and t_issue > since:
            self._trace.emit(
                obs.OP_BLOCKED, since, dur=t_issue - since, op=op_id
            )

    # ------------------------------------------------------------------
    # NACHOS comparator (hardware_checks only)
    # ------------------------------------------------------------------
    def _schedule_checks_for(self, op: Operation, t: int) -> None:
        """New address available: schedule ==? checks it participates in."""
        oid = op.op_id
        for edge in self._parents.get(oid, []):
            if edge.kind is MDEKind.MAY and edge.src in self._addr_ready:
                self._schedule_check(edge)
        for edge in self._children.get(oid, []):
            if edge.kind is MDEKind.MAY and edge.dst in self._addr_ready:
                self._schedule_check(edge)

    def _schedule_check(self, edge: MemoryDependencyEdge) -> None:
        pair = (edge.src, edge.dst)
        if pair in self._checked or pair in self._resolved:
            return
        self._checked.add(pair)
        route = self.placement.route_latency(edge.src, edge.dst)
        ready = max(
            self._addr_ready[edge.dst],
            self._addr_ready[edge.src] + route,
        )
        # One comparison per comparator per cycle at the younger op's
        # functional unit; simultaneous parents arbitrate (round-robin
        # modeled as FCFS over the comparator pool).
        pool = self._fu_free.setdefault(
            edge.dst, [self._t0] * self.comparators_per_fu
        )
        slot = min(range(len(pool)), key=lambda k: pool[k])
        start = max(ready, pool[slot])
        pool[slot] = start + 1
        self.engine.schedule(start + 1, lambda: self._run_check(edge, start + 1))

    def _run_check(self, edge: MemoryDependencyEdge, t: int) -> None:
        pair = (edge.src, edge.dst)
        if pair in self._resolved:
            return  # parent completed first
        self.engine.energy.charge(EnergyEvent.MDE_MAY_CHECK)
        self.stats.comparator_checks += 1
        conflict = ranges_overlap(self._addr_of[edge.src], self._addr_of[edge.dst])
        self._conflict[pair] = conflict
        if self._trace is not None:
            self._trace.emit(
                obs.COMPARATOR_CHECK,
                t,
                op=edge.dst,
                args={"src": edge.src, "conflict": conflict},
            )
        if conflict:
            self.stats.comparator_conflicts += 1
            # Resolution waits for the older op's completion — but the
            # younger op must still re-evaluate: an exactly-matching
            # conflicting store can forward its value (ST->LD).
            self._retry(edge.dst, t)
            return
        self._resolved[pair] = t
        self._retry(edge.dst, t)

    # ------------------------------------------------------------------
    # Issue logic
    # ------------------------------------------------------------------
    def _try_issue(self, op_id: int, now: int) -> None:
        if op_id in self._issued:
            return
        op = self.graph.op(op_id)
        if op_id not in self._addr_ready:
            return
        if op.is_store and op_id not in self._value_ready:
            return

        if op.is_load and op_id in self._forward_src:
            self._try_forward_static(op, now)
            return

        parents = self._parents.get(op_id, [])
        unresolved = [e for e in parents if (e.src, e.dst) not in self._resolved]

        if unresolved:
            if self._trace is not None:
                self._note_blocked(op_id, now)
            if self.hardware_checks and op.is_load:
                self._try_forward_runtime(op, unresolved, now)
            return

        t_start = self._addr_ready[op_id]
        if op.is_store:
            t_start = max(t_start, self._value_ready[op_id])
        for e in parents:
            t_start = max(t_start, self._resolved[(e.src, e.dst)])
        self._issued.add(op_id)
        if self._trace is not None:
            self._emit_unblocked(op_id, t_start)
        if op.is_load:
            self.engine.do_load(op, t_start)
        else:
            self.engine.do_store(op, t_start)

    # ------------------------------------------------------------------
    def _try_forward_static(self, op: Operation, now: int) -> None:
        """Complete a load via its compile-time FORWARD edge.

        MDE insertion guarantees the forwarding store is the youngest
        older store that can alias the load, so only its value matters.
        """
        src_id = self._forward_src[op.op_id]
        if src_id not in self._value_ready:
            return
        src = self.graph.op(src_id)
        route = self.placement.route_latency(src_id, op.op_id)
        t = max(
            self._addr_ready[op.op_id],
            self._value_ready[src_id] + route,
        ) + self.engine.config.forward_latency
        self._issued.add(op.op_id)
        if self._trace is not None:
            self._emit_unblocked(op.op_id, t)
        self.engine.energy.charge(EnergyEvent.MDE_FORWARD)
        self.engine.forward_load(op, src, t)

    def _try_forward_runtime(
        self, op: Operation, unresolved: List[MemoryDependencyEdge], now: int
    ) -> None:
        """NACHOS-only: forward from a conflicting MAY store.

        Safe when exactly one parent is unresolved, it is a store whose
        verdict is a *conflict* that exactly covers the load, and its
        value has arrived: every other potentially-aliasing older store
        has either completed (writing memory the conflicting store will
        logically supersede — the two conflicting stores overlap each
        other and are therefore mutually ordered) or was proven
        non-conflicting.
        """
        if len(unresolved) != 1:
            return
        edge = unresolved[0]
        pair = (edge.src, edge.dst)
        if self._conflict.get(pair) is not True:
            return
        src = self.graph.op(edge.src)
        if not src.is_store:
            return
        if not ranges_exact(self._addr_of[edge.src], self._addr_of[op.op_id]):
            return
        if edge.src not in self._value_ready:
            return
        route = self.placement.route_latency(edge.src, op.op_id)
        t = max(
            self._addr_ready[op.op_id],
            self._value_ready[edge.src] + route,
        ) + self.engine.config.forward_latency
        self._issued.add(op.op_id)
        self.stats.runtime_forwards += 1
        if self._trace is not None:
            self._trace.emit(
                obs.RUNTIME_FORWARD, t, op=op.op_id, args={"src": edge.src}
            )
            self._emit_unblocked(op.op_id, t)
        self.engine.energy.charge(EnergyEvent.MDE_FORWARD)
        self.engine.forward_load(op, src, t)
