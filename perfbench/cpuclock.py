"""CPU-time clocks and the host-speed reference for the timed metrics.

The benchmark runs on a few vCPUs of a shared host, and its other
tenants change how fast those vCPUs run.  Two effects are removed from
the bounded metrics:

* Waiting.  A vCPU stolen by the hypervisor, or a process waiting for a
  CPU, adds wall time but no work.  The metrics therefore use CPU time:
  ``CLOCK_PROCESS_CPUTIME_ID`` and a thread's ``schedstat`` run time both
  come from the scheduler's execution time, which leaves steal out
  (``CONFIG_PARAVIRT_TIME_ACCOUNTING``).
* Speed.  The same instructions take up to twice the CPU time while the
  host is busy, in phases that last seconds to minutes (measured on a
  2-vCPU x86 VM: one compile of 8 regions took 9.8 ms in one 5 s window
  and 18 ms in another).  :class:`HostSpeed` runs a fixed reference
  computation between items, about every :data:`PROBE_INTERVAL_S`, and
  each timed interval's CPU time is divided by the reference's slowdown
  over that interval.  The reference has two halves, as the program's
  work does: interpreted object work (allocation, dicts, attributes,
  sorts), which slowed by up to 1.8x, and library work (pickle, JSON,
  SHA-256), which slowed by up to 1.5x.  The program's work slowed
  between the two, compiles and simulations nearer the first and cache
  reads nearer the second, so each workload weighs the halves by the
  kind of work it does (``object_share``).

A normalised time reads as CPU seconds on a host that runs the two
halves in :data:`OBJECT_REFERENCE_S` and :data:`LIBRARY_REFERENCE_S`.
Wall and raw CPU times are recorded too and reported among the
per-layer metrics.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import pickle
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: CPU seconds the two halves of :func:`probe` take on the 2-vCPU x86
#: VM the benchmark was sized on, in its fast phases.
OBJECT_REFERENCE_S = 0.00108
LIBRARY_REFERENCE_S = 0.00088
#: Wall seconds between two probes during a timed phase.
PROBE_INTERVAL_S = 0.1
#: Probes whose median smooths one probe's slowdown.
SMOOTHING = 5
#: Wall seconds on either side of an interval whose probes give its
#: slowdown: wide enough to average out single probes, narrow against
#: the host's phases, which last seconds or more.
WINDOW_S = 0.5


def self_s() -> float:
    """CPU seconds this process has used, all threads."""
    return time.process_time()


class ProcessCPU:
    """CPU seconds another process has used, all threads, in nanosecond
    resolution (``/proc/<pid>/task/*/schedstat``).

    A thread that has exited keeps the last value read for it, so the
    total never goes backwards.
    """

    def __init__(self, pid: int) -> None:
        self.tasks = Path(f"/proc/{pid}/task")
        self._ns: Dict[str, int] = {}

    def seconds(self) -> float:
        try:
            tids = os.listdir(self.tasks)
        except OSError:  # the process has ended
            tids = []
        for tid in tids:
            try:
                text = (self.tasks / tid / "schedstat").read_text()
            except OSError:
                continue  # the thread ended between listing and reading
            self._ns[tid] = int(text.split()[0])
        return sum(self._ns.values()) / 1e9


class _Node:
    def __init__(self, value: int, name: str) -> None:
        self.value = value
        self.name = name
        self.kids: List[int] = []

    def weight(self) -> int:
        return self.value * 3 + len(self.kids)


def _object_reference() -> int:
    """Interpreted work in the program's idiom: objects, string-keyed
    dicts, attribute reads, method calls, a keyed sort, sets, tuples."""
    nodes = [_Node(i, "n%d" % i) for i in range(500)]
    by_name = {node.name: node for node in nodes}
    total = 0
    for i in range(500):
        node = by_name["n%d" % ((i * 7) % 500)]
        node.kids.append(i)
        total += node.weight()
    ordered = sorted(nodes, key=lambda node: (node.value * 31) % 97)
    values = frozenset(node.value for node in ordered[:250])
    pairs = {(a.value, b.value): a for a, b in zip(nodes, ordered)}
    return total + len(values) + len(pairs)


_RECORD = {f"k{i}": [(i, j, f"s{j}") for j in range(8)] for i in range(160)}
_RECORD_BYTES = pickle.dumps(_RECORD)


def _library_reference() -> int:
    """Library work in the program's idiom (cache reads, fingerprints,
    the serve protocol): unpickling, pickling, JSON, SHA-256."""
    record = pickle.loads(_RECORD_BYTES)
    size = len(pickle.dumps(record)) + len(json.dumps(record))
    return size + len(hashlib.sha256(_RECORD_BYTES * 8).hexdigest())


def probe() -> Tuple[float, float]:
    """The host's slowdown now on each reference half: its CPU time over
    its reference time.  Collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _object_reference()
        _object_reference()
        t1 = time.thread_time()
        _library_reference()
        t2 = time.thread_time()
    finally:
        if enabled:
            gc.enable()
    return (t1 - t0) / OBJECT_REFERENCE_S, (t2 - t1) / LIBRARY_REFERENCE_S


class HostSpeed:
    """The host's slowdown over a run, sampled by :func:`probe`: the
    object half's slowdown weighted by ``object_share``, the library
    half's by the rest.

    :meth:`tick` is called between items, outside their timers; it
    probes when :data:`PROBE_INTERVAL_S` has passed since the last probe
    (or always, with ``force``).  ``spent_cpu`` and ``spent_wall`` sum
    the probes' own cost, which a timed pass subtracts.
    """

    def __init__(self, object_share: float = 1.0) -> None:
        self.object_share = object_share
        #: (wall time, slowdown) of every probe, in time order.
        self.samples: List[Tuple[float, float]] = []
        self.spent_cpu = 0.0
        self.spent_wall = 0.0
        self._smoothed: Optional[List[float]] = None
        self._times: List[float] = []

    def due(self) -> bool:
        return (not self.samples
                or time.perf_counter() - self.samples[-1][0] >= PROBE_INTERVAL_S)

    def tick(self, force: bool = False) -> None:
        if not (force or self.due()):
            return
        now = time.perf_counter()
        cpu0 = self_s()
        objects, library = probe()
        slowdown = self.object_share * objects + (1 - self.object_share) * library
        end = time.perf_counter()
        self.samples.append((end, slowdown))
        self.spent_cpu += self_s() - cpu0
        self.spent_wall += end - now
        self._smoothed = None

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean smoothed slowdown of the probes taken in the wall
        interval ``[t0, t1]`` widened by :data:`WINDOW_S` on each side,
        and of the nearest probe beyond it on each side."""
        if self._smoothed is None:
            values = [value for _, value in self.samples]
            half = SMOOTHING // 2
            self._smoothed = [statistics.median(values[max(0, i - half):i + half + 1])
                              for i in range(len(values))]
            self._times = [t for t, _ in self.samples]
        lo = max(0, bisect.bisect_left(self._times, t0 - WINDOW_S) - 1)
        hi = bisect.bisect_right(self._times, t1 + WINDOW_S) + 1
        return statistics.fmean(self._smoothed[lo:hi])

    def median(self) -> float:
        return statistics.median(value for _, value in self.samples)
