"""The cycle-level dataflow execution engine.

One :class:`DataflowEngine` simulates a placed region over a sequence of
invocations.  Within an invocation:

* source ops (INPUT/CONST) complete at the invocation start,
* a compute op starts when all operands have arrived (operand-network hop
  latency included) and completes after its opcode latency,
* memory ops hand control to the disambiguation backend once their
  address (and, for stores, value) operands arrive; the backend decides
  *when* the cache access or forward happens, using the engine's
  ``do_load`` / ``do_store`` / ``forward_load`` services.

The engine also runs the functional value semantics of
:mod:`repro.sim.values` so that backend ordering mistakes corrupt values
observably (see :mod:`repro.sim.oracle`): loads read byte-granular value
memory at their completion instant, stores publish at theirs, and every
ordering constraint between conflicting operations separates the two
instants by at least one cycle.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cgra.placement import Placement
from repro.energy.accounting import EnergyLedger
from repro.energy.config import EnergyEvent
from repro.ir.graph import DFGraph
from repro.ir.opcodes import Opcode, is_fp
from repro.ir.ops import Operation
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import tracer as obs
from repro.sim.config import EngineConfig
from repro.sim.result import BackendStats, SimResult
from repro.sim.values import ValueMemory, forwarded_value, mix

_OPCODE_ID = {opcode: i for i, opcode in enumerate(Opcode)}


class _OpRun:
    """Per-invocation dynamic state of one operation."""

    __slots__ = (
        "pending_addr",
        "pending_value",
        "addr_time",
        "value_time",
        "inputs_time",
        "addr_notified",
        "value_notified",
        "completed",
        "start_time",
        "complete_time",
    )

    def __init__(self, pending_addr: int, pending_value: int, t0: int = 0) -> None:
        self.pending_addr = pending_addr
        self.pending_value = pending_value
        self.addr_time = t0
        self.value_time = t0
        self.inputs_time = t0
        self.addr_notified = False
        self.value_notified = False
        self.completed = False
        self.start_time = -1
        self.complete_time = -1


class DataflowEngine:
    """Simulates a region graph against one disambiguation backend."""

    def __init__(
        self,
        graph: DFGraph,
        placement: Placement,
        hierarchy: MemoryHierarchy,
        backend: "DisambiguationBackend",
        energy: Optional[EnergyLedger] = None,
        config: Optional[EngineConfig] = None,
        recorder: Optional["TimelineRecorder"] = None,
        tracer: Optional["obs.Tracer"] = None,
    ) -> None:
        self.graph = graph
        self.placement = placement
        self.hierarchy = hierarchy
        self.backend = backend
        self.energy = energy if energy is not None else EnergyLedger()
        self.config = config or EngineConfig()
        self.recorder = recorder
        self.tracer = tracer if tracer is not None else obs.NULL_TRACER
        # Hot paths test `self._trace is not None`: one load + identity
        # check when tracing is off, so production sweeps pay ~nothing.
        self._trace = self.tracer if self.tracer.enabled else None

        self.memory = ValueMemory()
        self.values: Dict[int, int] = {}
        self.addr_of: Dict[int, Tuple[int, int]] = {}
        self.load_values: Dict[Tuple[int, int], int] = {}

        self._events: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = count()
        self._run: Dict[int, _OpRun] = {}
        self._inv_index = 0
        self._inv_end = 0

        self._ops = graph.ops
        # Per-producer delivery plan, precomputed once per engine:
        # src op_id -> [(user, n_addr, n_value, multiplicity, hops, route)].
        # n_addr/n_value count how many of the user's operand positions
        # this producer feeds (a store's value slot counted separately);
        # multiplicity is the raw position count (network traffic).
        self._targets: Dict[int, List[Tuple[Operation, int, int, int, int, int]]] = {
            op.op_id: [] for op in self._ops
        }
        for user in self._ops:
            last = len(user.inputs) - 1
            counts: Dict[int, List[int]] = {}
            for pos, src in enumerate(user.inputs):
                c = counts.setdefault(src, [0, 0, 0])
                if user.is_store and pos == last:
                    c[1] += 1
                else:
                    c[0] += 1
                c[2] += 1
            uid = user.op_id
            for src, (n_addr, n_value, mult) in counts.items():
                self._targets[src].append(
                    (
                        user,
                        n_addr,
                        n_value,
                        mult,
                        placement.hops(src, uid),
                        placement.route_latency(src, uid),
                    )
                )
        # The common-case (no link contention) delivery plan folds the
        # per-target branches of _finish into data: the NET_LINK count is
        # pre-multiplied (hops * mult, zero when network charging is off)
        # so the hot loop is one charge + one delivery per target.
        charge_net = self.config.charge_network
        self._contention = self.config.model_link_contention
        self._plans: Dict[int, List[Tuple[Operation, int, int, int, int]]] = {
            src: [
                (user, n_addr, n_value, hops * mult if charge_net else 0, route)
                for user, n_addr, n_value, mult, hops, route in targets
            ]
            for src, targets in self._targets.items()
        }
        # Per-op execution plan: (latency, ALU energy event, opcode mix
        # id, input tuple) resolved once instead of per event.
        self._exec_plan: Dict[int, Tuple[int, EnergyEvent, int, Tuple[int, ...]]] = {
            op.op_id: (
                op.latency,
                EnergyEvent.ALU_FP if is_fp(op.opcode) else EnergyEvent.ALU_INT,
                _OPCODE_ID[op.opcode],
                tuple(op.inputs),
            )
            for op in self._ops
        }
        # Per-op invocation-reset plan (avoids per-invocation property
        # calls): (op, pending_addr, pending_value, kick) where kick is
        # 1 = source, 2 = constant-address memory, 3 = zero-input compute.
        self._op_init: List[Tuple[Operation, int, int, int]] = []
        self._mem_ops: List[Operation] = []
        for op in self._ops:
            n_inputs = len(op.inputs)
            if op.is_store:
                pa, pv = n_inputs - 1, 1
            else:
                pa, pv = n_inputs, 0
            if op.opcode in (Opcode.INPUT, Opcode.CONST):
                kick = 1
            elif op.is_memory and pa == 0:
                kick = 2
            elif not op.is_memory and not op.inputs:
                kick = 3
            else:
                kick = 0
            self._op_init.append((op, pa, pv, kick))
            if op.is_memory:
                self._mem_ops.append(op)
        self._addr_streams: Optional[List[Dict[int, Tuple[int, int]]]] = None
        # Per-directed-link next-free cycle (only with link contention).
        self._link_free: Dict[Tuple, int] = {}
        backend.attach(self, graph, placement)

    # ------------------------------------------------------------------
    # Event plumbing (also used by backends)
    # ------------------------------------------------------------------
    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), fn))

    def _drain_events(self) -> None:
        while self._events:
            _, _, fn = heapq.heappop(self._events)
            fn()

    # ------------------------------------------------------------------
    # Public run loop
    # ------------------------------------------------------------------
    def run(
        self,
        invocations: Iterable[Mapping[str, int]],
        region_name: Optional[str] = None,
        addr_streams: Optional[List[Dict[int, Tuple[int, int]]]] = None,
    ) -> SimResult:
        """Simulate *invocations* and return the result.

        ``addr_streams`` optionally supplies pre-evaluated memory
        addresses — one ``{op_id: (addr, width)}`` map per invocation —
        so callers that already walked the trace (e.g. to warm the L2)
        don't pay for ``AddressExpr.evaluate`` twice.
        """
        self._addr_streams = addr_streams
        per_inv: List[int] = []
        clock = 0
        n = 0
        for env in invocations:
            start = clock
            end = self._run_invocation(n, start, env)
            per_inv.append(end - start)
            clock = end + self.config.invocation_gap
            n += 1

        total = max(clock - self.config.invocation_gap, 0) if n else 0
        return SimResult(
            region=region_name or self.graph.name,
            backend=self.backend.name,
            invocations=n,
            cycles=total,
            per_invocation_cycles=per_inv,
            energy=self.energy,
            backend_stats=self.backend.stats,
            load_values=dict(self.load_values),
            memory_image=self.memory.snapshot(),
            l1_hits=self.hierarchy.l1.stats.hits,
            l1_misses=self.hierarchy.l1.stats.misses,
        )

    # ------------------------------------------------------------------
    def _run_invocation(self, inv: int, t0: int, env: Mapping[str, int]) -> int:
        self._inv_index = inv
        self._inv_end = t0
        if self._trace is not None:
            self._trace.inv = inv
        self.values.clear()
        if self._addr_streams is not None:
            self.addr_of = self._addr_streams[inv]
        else:
            self.addr_of = {
                op.op_id: (op.addr.evaluate(env), op.addr.width)
                for op in self._mem_ops
            }
        run_map = self._run
        run_map.clear()
        for op, pa, pv, _ in self._op_init:
            run_map[op.op_id] = _OpRun(pa, pv, t0)

        self.backend.begin_invocation(inv, t0, self.addr_of)

        for op, _, _, kick in self._op_init:
            if kick == 0:
                continue
            if kick == 1:
                self._complete_source(op, t0)
            elif kick == 2:
                # Constant-address memory op: address is ready at t0.
                run_map[op.op_id].addr_notified = True
                self.schedule(t0, self._make_addr_notify(op, t0))
            else:
                # Zero-input compute (e.g. a promoted scratchpad access
                # with a constant address) fires at the invocation start.
                self._start_compute(op, t0)

        self._drain_events()
        self.backend.end_invocation()
        if self._trace is not None:
            self._trace.emit(obs.INVOCATION, t0, dur=self._inv_end - t0)
        if self.recorder is not None:
            self.recorder.capture(self.graph, inv, t0, self._inv_end, self._run)
        return self._inv_end

    def _make_addr_notify(self, op: Operation, t: int) -> Callable[[], None]:
        return lambda: self.backend.on_addr_ready(op, t)

    # ------------------------------------------------------------------
    # Value helpers
    # ------------------------------------------------------------------
    def _source_value(self, op: Operation, inv: int) -> int:
        if op.opcode is Opcode.CONST:
            return mix(0xC0, op.op_id)
        return mix(0x1F, op.op_id, inv)

    def _compute_value(self, op: Operation) -> int:
        _, _, mix_id, inputs = self._exec_plan[op.op_id]
        return mix(mix_id, *(self.values[i] for i in inputs))

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def _complete_source(self, op: Operation, t: int) -> None:
        self.values[op.op_id] = self._source_value(op, self._inv_index)
        self._run[op.op_id].start_time = t
        if self._trace is not None:
            self._trace.emit(obs.OP_SOURCE, t, op=op.op_id)
        self._finish(op, t)

    def _start_compute(self, op: Operation, t: int) -> None:
        latency, alu_event, mix_id, inputs = self._exec_plan[op.op_id]
        done = t + latency
        self._run[op.op_id].start_time = t
        if self._trace is not None:
            self._trace.emit(obs.OP_EXEC, t, dur=latency, op=op.op_id)
        self.energy.charge(alu_event)

        def complete() -> None:
            values = self.values
            values[op.op_id] = mix(mix_id, *(values[i] for i in inputs))
            self._finish(op, done)

        self.schedule(done, complete)

    def _finish(self, op: Operation, t: int) -> None:
        """Deliver *op*'s value to consumers and record completion."""
        state = self._run[op.op_id]
        state.completed = True
        state.complete_time = t
        self._inv_end = max(self._inv_end, t)
        if op.is_memory:
            self.backend.on_memory_complete(op, t)

        if self._contention:
            charge_network = self.config.charge_network
            for user, n_addr, n_value, mult, hops, route in self._targets[op.op_id]:
                if charge_network and hops:
                    self.energy.charge(EnergyEvent.NET_LINK, hops * mult)
                if hops:
                    # One route walk (and link reservation) per operand
                    # position; the delivery lands at the first walk's
                    # arrival, matching per-position delivery order.
                    arrive = self._route_with_contention(op.op_id, user.op_id, t)
                    for _ in range(mult - 1):
                        self._route_with_contention(op.op_id, user.op_id, t)
                else:
                    arrive = t + route
                self._deliver(user, n_addr, n_value, arrive)
            return

        charge = self.energy.charge
        deliver = self._deliver
        for user, n_addr, n_value, net, route in self._plans[op.op_id]:
            if net:
                charge(EnergyEvent.NET_LINK, net)
            deliver(user, n_addr, n_value, t + route)

    def _route_with_contention(self, src: int, dst: int, t: int) -> int:
        """Walk the XY route reserving one cycle per directed link."""
        hop_latency = self.placement.config.hop_latency
        when = t
        for link in self.placement.xy_route(src, dst):
            start = max(when, self._link_free.get(link, 0))
            self._link_free[link] = start + 1
            when = start + hop_latency
        return when

    def _deliver(self, user: Operation, n_addr: int, n_value: int, t: int) -> None:
        """Credit *user* with operand arrivals from one producer.

        ``n_addr`` / ``n_value`` are the position counts precomputed in
        ``_targets`` — a producer may feed several operand positions
        (e.g. both the address and the value of a store).
        """
        state = self._run[user.op_id]
        if n_value:
            state.pending_value -= n_value
            if t > state.value_time:
                state.value_time = t
        if n_addr:
            state.pending_addr -= n_addr
            if t > state.addr_time:
                state.addr_time = t
        if t > state.inputs_time:
            state.inputs_time = t

        if user.is_memory:
            if state.pending_addr == 0 and not state.addr_notified:
                state.addr_notified = True
                self.backend.on_addr_ready(user, state.addr_time)
            if (
                user.is_store
                and state.pending_value == 0
                and not state.value_notified
            ):
                state.value_notified = True
                self.backend.on_value_ready(user, state.value_time)
        elif state.pending_addr == 0:
            self._start_compute(user, state.inputs_time)

    # ------------------------------------------------------------------
    # Backend services
    # ------------------------------------------------------------------
    def state_of(self, op_id: int) -> _OpRun:
        return self._run[op_id]

    def do_load(self, op: Operation, t_start: int) -> int:
        """Issue *op*'s cache read beginning at ``t_start``.

        Returns the completion cycle.  The value is read from value
        memory at the completion instant; every ordered older store has
        published strictly earlier and every ordered younger store
        publishes strictly later (backends guarantee both).

        Same-cycle semantics: completion events draining in the same
        cycle run in scheduling (FIFO) order, and a store publishes at
        its completion instant — so a store whose completion has already
        drained *is* observed by a load reading at the same cycle.
        ``tests/test_litmus.py::test_same_cycle_drain_order`` pins this.
        """
        addr, width = self.addr_of[op.op_id]
        edge = self.placement.edge_latency(op.op_id)
        result = self.hierarchy.access(addr, is_write=False, cycle=t_start + edge)
        self.energy.charge(EnergyEvent.L1_READ)
        if self.config.charge_network:
            hops = self.placement.edge_hops(op.op_id)
            if hops:
                self.energy.charge(EnergyEvent.NET_LINK, 2 * hops)
        done = result.complete + edge
        self._run[op.op_id].start_time = t_start
        if self._trace is not None:
            self._trace.emit(
                obs.MEM_LOAD,
                t_start,
                dur=done - t_start,
                op=op.op_id,
                args={"addr": addr, "width": width},
            )

        def complete() -> None:
            value = self.memory.load(addr, width)
            self.values[op.op_id] = value
            self.load_values[(self._inv_index, op.op_id)] = value
            self._finish(op, done)

        self.schedule(done, complete)
        return done

    def do_store(self, op: Operation, t_start: int) -> int:
        """Issue *op*'s cache write beginning at ``t_start``."""
        addr, width = self.addr_of[op.op_id]
        edge = self.placement.edge_latency(op.op_id)
        result = self.hierarchy.access(addr, is_write=True, cycle=t_start + edge)
        self.energy.charge(EnergyEvent.L1_WRITE)
        if self.config.charge_network:
            hops = self.placement.edge_hops(op.op_id)
            if hops:
                self.energy.charge(EnergyEvent.NET_LINK, hops)
        value = self.values[op.inputs[-1]]
        done = result.complete
        self._run[op.op_id].start_time = t_start
        if self._trace is not None:
            self._trace.emit(
                obs.MEM_STORE,
                t_start,
                dur=done - t_start,
                op=op.op_id,
                args={"addr": addr, "width": width},
            )

        def complete() -> None:
            self.memory.store(addr, width, value)
            self.values[op.op_id] = value
            self._finish(op, done)

        self.schedule(done, complete)
        return done

    def forward_load(self, op: Operation, src_store: Operation, t: int) -> int:
        """Complete load *op* at ``t`` with *src_store*'s value."""
        addr, width = self.addr_of[op.op_id]
        value = forwarded_value(self.values[src_store.inputs[-1]], width)
        self._run[op.op_id].start_time = t
        if self._trace is not None:
            self._trace.emit(
                obs.MEM_FORWARD,
                t,
                op=op.op_id,
                args={"src": src_store.op_id, "addr": addr, "width": width},
            )

        def complete() -> None:
            self.values[op.op_id] = value
            self.load_values[(self._inv_index, op.op_id)] = value
            self._finish(op, t)

        self.schedule(t, complete)
        return t


class DisambiguationBackend:
    """Interface every memory-ordering backend implements."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = BackendStats()
        self.engine: Optional[DataflowEngine] = None
        self.graph: Optional[DFGraph] = None
        self.placement: Optional[Placement] = None
        self._trace = None

    # -- lifecycle ------------------------------------------------------
    def attach(
        self, engine: DataflowEngine, graph: DFGraph, placement: Placement
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.placement = placement
        self._trace = engine.tracer if engine.tracer.enabled else None

    def begin_invocation(
        self, inv: int, t0: int, addr_of: Dict[int, Tuple[int, int]]
    ) -> None:
        raise NotImplementedError

    def end_invocation(self) -> None:
        pass

    # -- engine notifications -------------------------------------------
    def on_addr_ready(self, op: Operation, t: int) -> None:
        raise NotImplementedError

    def on_value_ready(self, op: Operation, t: int) -> None:
        raise NotImplementedError

    def on_memory_complete(self, op: Operation, t: int) -> None:
        raise NotImplementedError
