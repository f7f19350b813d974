"""OPT-LSQ: the paper's optimized load-store-queue baseline (§VIII-C).

An address-partitioned LSQ (banked by line address, 48 entries and 2
ports per bank) fronted by a bloom filter:

* memory operations carry compiler-assigned ages (8-bit ids, TRIPS-style)
  and must **issue into the LSQ in program order** — the in-order-issue
  effect that puts the LSQ on the load-to-use critical path (+2 cycles on
  every access);
* every access probes the bloom filter; only bloom hits pay the CAM
  search energy;
* loads search the store queue: an exactly-matching youngest older store
  forwards its value; partial overlaps wait for the stores to retire and
  then read the cache;
* stores wait for every conflicting older in-flight access before
  writing (ST-ST write ordering and LD-ST anti-dependences);
* a full bank stalls issue — and, because issue is in-order, everything
  younger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.energy.config import EnergyEvent
from repro.ir.graph import DFGraph
from repro.ir.ops import Operation
from repro.obs import tracer as obs
from repro.sim.backends.base import ranges_exact, ranges_overlap
from repro.sim.engine import DataflowEngine, DisambiguationBackend
from repro.sim.values import mix


@dataclass(frozen=True)
class LSQConfig:
    """Geometry of the optimized LSQ (paper Figure 3)."""

    banks: int = 4
    entries_per_bank: int = 48
    issue_width: int = 2          # CAM ports per bank (ops/cycle/bank)
    pipeline_penalty: int = 2     # load-to-use cycles added by the LSQ
    bloom_bits: int = 1024
    bloom_hashes: int = 2
    forward_latency: int = 1
    line_bytes: int = 64

    @classmethod
    def paper_default(cls) -> "LSQConfig":
        return cls()


class _Bloom:
    """A counting bloom filter over cache-line addresses."""

    def __init__(self, bits: int, hashes: int) -> None:
        self.bits = bits
        self.hashes = hashes
        self._counts: Dict[int, int] = {}

    def signature(self, line: int) -> Tuple[int, ...]:
        return tuple(mix(line, k + 1) % self.bits for k in range(self.hashes))

    def probe(self, line: int) -> bool:
        return all(self._counts.get(b, 0) > 0 for b in self.signature(line))

    def insert(self, line: int) -> None:
        for b in self.signature(line):
            self._counts[b] = self._counts.get(b, 0) + 1

    def remove(self, line: int) -> None:
        # An invocation-boundary reset may clear the filter while an
        # access is still draining; its removal must not underflow
        # counters the matching insert no longer owns.
        for b in self.signature(line):
            count = self._counts.get(b, 0)
            if count <= 1:
                self._counts.pop(b, None)
            else:
                self._counts[b] = count - 1

    def clear(self) -> None:
        self._counts.clear()


class OptLSQBackend(DisambiguationBackend):
    """The centralized hardware baseline."""

    name = "opt-lsq"

    def __init__(self, config: Optional[LSQConfig] = None) -> None:
        super().__init__()
        self.config = config or LSQConfig.paper_default()
        self._order: List[int] = []
        self._rank: Dict[int, int] = {}
        # Per-invocation state:
        self._addr_ready: Dict[int, int] = {}
        self._value_ready: Dict[int, int] = {}
        self._addr_of: Dict[int, Tuple[int, int]] = {}
        self._inflight: Dict[int, Tuple[int, int]] = {}  # op -> (addr, width)
        self._bank_load: Dict[int, int] = {}
        self._next = 0
        self._slot_time = 0
        self._bank_slot: Dict[int, List[int]] = {}
        self._issue_time: Dict[int, int] = {}
        self._load_bloom = _Bloom(1, 1)
        self._store_bloom = _Bloom(1, 1)
        self._load_waits: Dict[int, Set[int]] = {}
        self._store_waits: Dict[int, Set[int]] = {}
        self._resume_time: Dict[int, int] = {}
        self._forward_from: Dict[int, List[int]] = {}  # store -> loads
        self._done: Set[int] = set()

    # ------------------------------------------------------------------
    def attach(self, engine: DataflowEngine, graph: DFGraph, placement) -> None:
        super().attach(engine, graph, placement)
        self._order = [op.op_id for op in graph.memory_ops]
        self._rank = {oid: i for i, oid in enumerate(self._order)}

    def begin_invocation(self, inv, t0, addr_of) -> None:
        self._addr_ready.clear()
        self._value_ready.clear()
        self._addr_of = addr_of
        self._inflight.clear()
        self._bank_load = {b: 0 for b in range(self.config.banks)}
        self._next = 0
        self._slot_time = t0
        self._bank_slot = {}
        self._issue_time.clear()
        self._load_bloom = _Bloom(self.config.bloom_bits, self.config.bloom_hashes)
        self._store_bloom = _Bloom(self.config.bloom_bits, self.config.bloom_hashes)
        self._load_waits.clear()
        self._store_waits.clear()
        self._resume_time.clear()
        self._forward_from.clear()
        self._done.clear()

    # ------------------------------------------------------------------
    def _bank_of(self, addr: int) -> int:
        return (addr // self.config.line_bytes) % self.config.banks

    def _line_of(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def _alloc_slot(self, t: int, bank: int) -> int:
        """Respect in-order issue and the per-bank CAM port count."""
        # Program order: never issue earlier than the previous op.
        t = max(t, self._slot_time)
        slot = self._bank_slot.get(bank)
        if slot is None or t > slot[0]:
            self._bank_slot[bank] = [t, 1]
        elif slot[1] < self.config.issue_width:
            slot[1] += 1
            t = slot[0]
        else:
            self._bank_slot[bank] = [slot[0] + 1, 1]
            t = slot[0] + 1
        self._slot_time = t
        return t

    # ------------------------------------------------------------------
    # Engine notifications
    # ------------------------------------------------------------------
    def on_addr_ready(self, op: Operation, t: int) -> None:
        self._addr_ready[op.op_id] = t
        self._pump(t)

    def on_value_ready(self, op: Operation, t: int) -> None:
        self._value_ready[op.op_id] = t
        if op.op_id in self._issue_time:
            self._maybe_execute_store(op.op_id, t)
        for load_id in self._forward_from.pop(op.op_id, []):
            self._complete_forward(load_id, op.op_id, t)

    def on_memory_complete(self, op: Operation, t: int) -> None:
        oid = op.op_id
        self._done.add(oid)
        if oid in self._inflight:
            addr, _ = self._inflight.pop(oid)
            self._bank_load[self._bank_of(addr)] -= 1
            bloom = self._store_bloom if op.is_store else self._load_bloom
            bloom.remove(self._line_of(addr))
            if self._trace is not None:
                self._trace.emit(
                    obs.LSQ_DEQUEUE,
                    t,
                    op=oid,
                    args={"occupancy": sum(self._bank_load.values())},
                )

        resume = t + 1
        for waiter, waiting in list(self._load_waits.items()):
            if oid in waiting:
                waiting.discard(oid)
                self._resume_time[waiter] = max(
                    self._resume_time.get(waiter, 0), resume
                )
                if not waiting:
                    del self._load_waits[waiter]
                    self._launch_load(waiter, self._resume_time[waiter])
        for waiter, waiting in list(self._store_waits.items()):
            if oid in waiting:
                waiting.discard(oid)
                self._resume_time[waiter] = max(
                    self._resume_time.get(waiter, 0), resume
                )
                if not waiting:
                    self._maybe_execute_store(waiter, resume)
        self.engine.schedule(resume, lambda: self._pump(resume))

    # ------------------------------------------------------------------
    # In-order issue
    # ------------------------------------------------------------------
    def _pump(self, now: int) -> None:
        while self._next < len(self._order):
            oid = self._order[self._next]
            if oid not in self._addr_ready:
                return
            addr, _ = self._addr_of[oid]
            bank = self._bank_of(addr)
            if self._bank_load[bank] >= self.config.entries_per_bank:
                return  # head-of-line blocked on a full bank
            t = self._alloc_slot(max(self._addr_ready[oid], now), bank)
            self._next += 1
            self._issue(oid, t)

    def _issue(self, oid: int, t: int) -> None:
        op = self.graph.op(oid)
        addr, width = self._addr_of[oid]
        line = self._line_of(addr)
        self._issue_time[oid] = t
        self._inflight[oid] = (addr, width)
        self._bank_load[self._bank_of(addr)] += 1

        # Bloom probe: loads check the store bloom; stores check both.
        self.engine.energy.charge(EnergyEvent.LSQ_BLOOM)
        self.stats.bloom_probes += 1
        if op.is_load:
            hit = self._store_bloom.probe(line)
        else:
            hit = self._store_bloom.probe(line) or self._load_bloom.probe(line)
        if self._trace is not None:
            self._trace.emit(obs.BLOOM_PROBE, t, op=oid, args={"hit": hit})
            self._trace.emit(
                obs.LSQ_ENQUEUE,
                t,
                op=oid,
                args={"occupancy": sum(self._bank_load.values()), "bank": self._bank_of(addr)},
            )
        if hit:
            self.stats.bloom_hits += 1
            self.stats.cam_checks += 1
            if self._trace is not None:
                self._trace.emit(obs.CAM_SEARCH, t, op=oid)
            self.engine.energy.charge(
                EnergyEvent.LSQ_CAM_STORE if op.is_store else EnergyEvent.LSQ_CAM_LOAD
            )

        my_rank = self._rank[oid]
        conflicts = []
        for other, other_range in self._inflight.items():
            if other == oid or self._rank[other] >= my_rank:
                continue
            other_op = self.graph.op(other)
            if op.is_load and not other_op.is_store:
                continue  # LD-LD needs no ordering
            if ranges_overlap(other_range, (addr, width)):
                conflicts.append(other)

        bloom = self._store_bloom if op.is_store else self._load_bloom
        bloom.insert(line)

        if op.is_load:
            self._issue_load(oid, t, conflicts)
        else:
            self._store_waits[oid] = set(conflicts)
            self._resume_time[oid] = max(self._resume_time.get(oid, 0), t)
            self._maybe_execute_store(oid, t)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def _issue_load(self, oid: int, t: int, conflicts: List[int]) -> None:
        op = self.graph.op(oid)
        addr_range = self._addr_of[oid]
        stores = [c for c in conflicts if self.graph.op(c).is_store]
        if stores:
            youngest = max(stores, key=lambda s: self._rank[s])
            if ranges_exact(self._addr_of[youngest], addr_range):
                # Store-to-load forwarding from the SQ.
                self.stats.lsq_forwards += 1
                if self._trace is not None:
                    self._trace.emit(
                        obs.LSQ_FORWARD, t, op=oid, args={"src": youngest}
                    )
                self.engine.energy.charge(EnergyEvent.LSQ_FORWARD)
                if youngest in self._value_ready:
                    self._complete_forward(oid, youngest, t)
                else:
                    self._forward_from.setdefault(youngest, []).append(oid)
                return
            # Partial overlap: wait for all conflicting stores to retire,
            # then read the (now coherent) cache.
            self._load_waits[oid] = set(stores)
            self._resume_time[oid] = max(self._resume_time.get(oid, 0), t)
            return
        self._launch_load(oid, t)

    def _launch_load(self, oid: int, t: int) -> None:
        op = self.graph.op(oid)
        self.engine.do_load(op, t + self.config.pipeline_penalty)

    def _complete_forward(self, load_id: int, store_id: int, now: int) -> None:
        load = self.graph.op(load_id)
        store = self.graph.op(store_id)
        t = max(
            self._issue_time[load_id],
            self._value_ready[store_id],
            now,
        ) + self.config.forward_latency
        self.engine.forward_load(load, store, t)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def _maybe_execute_store(self, oid: int, now: int) -> None:
        if oid not in self._store_waits:
            return
        if self._store_waits[oid]:
            return
        if oid not in self._value_ready:
            return
        del self._store_waits[oid]
        op = self.graph.op(oid)
        # `now` is the resume timestamp computed by the caller (e.g. the
        # completion of a conflicting access +1); folding it into the max
        # keeps the store's issue time correct even when `_resume_time`
        # was not updated first.
        t = max(
            self._issue_time[oid],
            self._value_ready[oid],
            self._resume_time.get(oid, 0),
            now,
        )
        self.engine.do_store(op, t + self.config.pipeline_penalty)
