"""The four benchmark workloads.

Each workload builds its inputs from the seed (set-up, timed separately
and repeated), then runs *passes* over a fixed item set.  A pass is one
sweep of the 135 (region, system) tasks, one compile of all 135
regions, or one block of 35 serve requests.  The number of passes is
fixed by ``--seconds`` (:data:`PASSES`), never by the clock, so a run
does the same work on a fast and a slow host; it is at least one pass
and enough passes to time :data:`stats.MIN_ITEMS` items.  Every item's
outputs go through the correctness gate (:mod:`gate`).

Set-up, passes and items are timed on two clocks: CPU time (for serve,
the client's plus the daemon's), which the bounded metrics use after
dividing it by the host's slowdown (:mod:`cpuclock`), and wall time.
Set-up is normalised when it ends; passes and items when the run ends,
from the host-speed probes taken around them.

The program receives only generated inputs; caches live in fresh
directories under the checkout's ``.perfbench-tmp`` and are removed
when the run ends.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import cpuclock
import gate
from spans import SpanRecorder
from stats import MIN_ITEMS, geomean, median

#: The five evaluated systems with distinct backends.
SYSTEMS = ("opt-lsq", "spec-lsq", "serial-mem", "nachos-sw", "nachos")
INVOCATIONS = 40
#: The seed whose regions are exactly ``build_workload(spec, k)`` and
#: whose outputs are committed under ``expected/``.
DEFAULT_SEED = 0
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Serve passes drawn per seed; a run consumes them in order.  No
#: (region, invocations) pair repeats within this many passes.
SERVE_PASSES = 11
SERVE_BOOT_TIMEOUT_S = 60.0
SERVE_REQUEST_TIMEOUT_S = 120.0
#: Passes per run at ``--seconds`` = :data:`REFERENCE_SECONDS` (the
#: ``run_seconds`` of ``BENCHMARK.json``); other values scale the count.
#: On a 2-vCPU x86 VM a pass takes 13-25 s, 0.15-0.3 s, 3-6.5 s and
#: 2-4 s of wall time (the host's speed varied by a factor of two).
PASSES = {
    "sweep-cold": 1,
    "sweep-warm": 15,
    "compile-all-paths": 3,
    "serve-wide": 8,
}
REFERENCE_SECONDS = 20.0
#: Weight of the host-speed probe's object half (the rest is its library
#: half; see :mod:`cpuclock`).  sweep-warm spends its time in cache
#: reads and fingerprints (unpickling, file reads, hashing), the others
#: mostly in interpreted compiler and simulator code.  With the object
#: half alone, compile items read about 10% lower in the host's slow
#: phases than in its fast ones.
OBJECT_SHARE = {
    "sweep-cold": 0.75,
    "sweep-warm": 0.5,
    "compile-all-paths": 0.75,
    "serve-wide": 0.75,
}


def region_seed(seed: int, name: str, path_index: int) -> Optional[int]:
    """``None`` (the generator's own seed) for the default seed, else a
    per-region seed derived from ``seed``."""
    if seed == DEFAULT_SEED:
        return None
    return zlib.crc32(f"{name}/path{path_index}/seed{seed}".encode()) & 0xFFFFFF


def build_regions(seed: int, paths: int) -> list:
    """The hottest ``paths`` regions of every Table-II benchmark."""
    from repro.workloads import generator
    from repro.workloads.suite import SUITE

    return [
        generator.build_workload(spec, k, seed=region_seed(seed, spec.name, k))
        for spec in SUITE
        for k in range(paths)
    ]


@dataclass
class Outcome:
    """What one run of a workload measured."""

    #: Normalised CPU seconds of one set-up (the median of the repeats).
    setup_s: float = 0.0
    #: Wall seconds, raw CPU seconds and (start, end) wall time of every
    #: pass, and the same for every timed item.
    pass_walls: List[float] = field(default_factory=list)
    pass_cpu: List[float] = field(default_factory=list)
    pass_t: List[Tuple[float, float]] = field(default_factory=list)
    item_s: List[float] = field(default_factory=list)
    item_cpu_s: List[float] = field(default_factory=list)
    item_t: List[Tuple[float, float]] = field(default_factory=list)
    #: The host-speed probes of the run that produced this outcome.
    speed: Optional[cpuclock.HostSpeed] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Gate records, written by ``--regenerate-expected``.
    records: Dict[str, Dict] = field(default_factory=dict)
    #: Deterministic counts summed over the measured passes.
    pass_counters: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-layer values (serve scrape, model ratios).
    extra: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def add_item(self, t0: float, t1: float, cpu_s: float) -> None:
        self.item_s.append(t1 - t0)
        self.item_cpu_s.append(cpu_s)
        self.item_t.append((t0, t1))

    def fail(self, messages: List[str]) -> None:
        self.failed += 1
        self.problems.extend(messages)


class Bench:
    """One run's settings, scratch directories and span recorder."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 rec: SpanRecorder, regenerate: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.rec = rec
        self.regenerate = regenerate
        base = root / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._cache_dir: Optional[Path] = None
        self.speed = cpuclock.HostSpeed()

    # -- scratch state ---------------------------------------------------
    def fresh_cache(self, enabled: bool = True) -> Path:
        """Point the process-wide result cache at a new empty directory."""
        from repro.runtime.cache import configure_cache, get_cache

        get_cache().flush_stats()  # nothing left for atexit to write
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))
        configure_cache(root=self._cache_dir, enabled=enabled)
        return self._cache_dir

    def close(self) -> None:
        from repro.runtime.cache import get_cache

        get_cache().flush_stats()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still holds a directory there

    # -- timing ------------------------------------------------------------
    def tick(self, force: bool = False) -> None:
        """Probe the host's speed if one is due (outside every timer but
        the pass's, which subtracts it)."""
        if force or self.speed.due():
            with self.rec.span("bench.probe"):
                self.speed.tick(force=True)

    def setup(self, fn: Callable[[], object],
              other: Optional[Callable[[], float]] = None) -> Tuple[float, object]:
        """Run one set-up; returns its normalised CPU seconds and
        ``fn``'s value.  ``other`` reads the CPU seconds of a process
        doing part of the work (the serve daemon)."""
        with self.rec.span("bench.setup"):
            self.tick(force=True)
            probes_cpu = self.speed.spent_cpu
            cpu = _cpu_timer(other)
            t0 = time.perf_counter()
            value = fn()
            t1 = time.perf_counter()
            used = cpu() - (self.speed.spent_cpu - probes_cpu)
            self.tick(force=True)
            return used / self.speed.slowdown(t0, t1), value

    def measure(self, out: Outcome, fn: Callable[[int], object],
                other: Optional[Callable[[], float]] = None) -> object:
        """Run one timed pass; ``fn`` gets the pass span's index.  The
        probes taken inside the pass are subtracted from its times."""
        gc.collect()  # start every pass from the same collector state
        self.tick(force=True)
        before = dict(self.rec.counters)
        with self.rec.span("bench.pass") as index:
            probes_cpu, probes_wall = self.speed.spent_cpu, self.speed.spent_wall
            cpu = _cpu_timer(other)
            t0 = time.perf_counter()
            value = fn(index)
            t1 = time.perf_counter()
            out.pass_cpu.append(cpu() - (self.speed.spent_cpu - probes_cpu))
            out.pass_walls.append(t1 - t0 - (self.speed.spent_wall - probes_wall))
            out.pass_t.append((t0, t1))
        self.tick(force=True)
        out.speed = self.speed
        for name, total in self.rec.counters.items():
            delta = total - before.get(name, 0)
            if delta:
                out.pass_counters[name] = out.pass_counters.get(name, 0) + delta
        return value

    def passes(self, workload: str, items_per_pass: int) -> int:
        """How many passes a run of ``workload`` measures."""
        scaled = round(PASSES[workload] * self.seconds / REFERENCE_SECONDS)
        return max(1, scaled, math.ceil(MIN_ITEMS / items_per_pass))

    def reference(self, name: str) -> Optional[Dict[str, Dict]]:
        """Committed records for the default seed, else ``None``."""
        if self.seed != DEFAULT_SEED or self.regenerate:
            return None
        return gate.load(name)


def _cpu_timer(other: Optional[Callable[[], float]] = None) -> Callable[[], float]:
    """Start a CPU stopwatch over this process and, if given, ``other``;
    calling the result reads the seconds used since.  ``other`` is read
    outside this process's interval, so reading it is not charged."""
    other = other or (lambda: 0.0)
    other0 = other()
    self0 = cpuclock.self_s()

    def elapsed() -> float:
        own = cpuclock.self_s() - self0
        return own + other() - other0

    return elapsed


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _sweep(workloads: list) -> Dict[str, object]:
    """``sweep_comparisons`` over the five systems; ``None`` marks a task
    that failed after the executor's retries."""
    from repro.runtime import sweep
    from repro.runtime.retry import SweepError

    keys = [f"{w.name}|{s}" for w in workloads for s in SYSTEMS]
    try:
        results = sweep.sweep_comparisons(
            workloads, systems=SYSTEMS, invocations=INVOCATIONS, jobs=1
        )
    except SweepError as exc:
        return dict(zip(keys, exc.outcome.results))
    return {
        f"{cmp.workload.name}|{s}": cmp.runs[s] for cmp in results for s in SYSTEMS
    }


def _check_sweep(out: Outcome, runs: Dict[str, object],
                 references: List[Optional[Dict[str, Dict]]]) -> Dict[str, Dict]:
    records = {}
    for key, run in runs.items():
        out.attempted += 1
        if run is None:
            out.fail([f"{key}: task failed"])
            continue
        record = records[key] = gate.sweep_record(run)
        messages = [] if record["golden_match"] else [f"{key}: golden mismatch"]
        for reference in references:
            if reference is not None:
                messages += gate.check(reference, {key: record}).get(key, [])
        if messages:
            out.fail(messages)
    return records


def _model_ratios(out: Outcome, runs: Dict[str, object]) -> None:
    """Geomean of nachos and nachos-sw over opt-lsq (simulated)."""
    cycles: Dict[str, List[float]] = {"nachos": [], "nachos-sw": []}
    energy: List[float] = []
    for key, run in runs.items():
        region, system = key.split("|")
        base = runs.get(f"{region}|opt-lsq")
        if run is None or base is None or system not in cycles:
            continue
        cycles[system].append(run.sim.cycles / base.sim.cycles)
        if system == "nachos":
            energy.append(run.sim.total_energy / base.sim.total_energy)
    out.extra["nachos_cycles_ratio"] = geomean(cycles["nachos"])
    out.extra["nachos_sw_cycles_ratio"] = geomean(cycles["nachos-sw"])
    out.extra["nachos_energy_ratio"] = geomean(energy)


def _cold_inputs(bench: Bench) -> list:
    from repro.experiments.common import clear_memos

    workloads = build_regions(bench.seed, 1)
    bench.fresh_cache()
    clear_memos()
    return workloads


def sweep_cold(bench: Bench) -> Outcome:
    """27 path-0 regions x 5 systems from an empty cache."""
    import probes

    out = Outcome()
    setups = [bench.setup(lambda: _cold_inputs(bench)) for _ in range(SETUP_REPEATS)]
    out.setup_s = median([s for s, _ in setups])
    workloads = setups[-1][1]
    expected = bench.reference("sweep")
    with probes.Patches() as patches:
        probes.time_items(patches, out.add_item, bench.tick)
        for index in range(bench.passes("sweep-cold", len(workloads) * len(SYSTEMS))):
            if index:
                workloads = _cold_inputs(bench)
            runs = bench.measure(out, lambda _: _sweep(workloads))
            records = _check_sweep(out, runs, [expected, out.records or None])
            if not out.records:
                out.records = records
                _model_ratios(out, runs)
    out.peak_rss_mb = _self_peak_rss_mb()
    return out


def sweep_warm(bench: Bench) -> Outcome:
    """The same task set re-swept against the cache a cold pass filled."""
    import probes
    from repro.experiments.common import clear_memos

    out = Outcome()
    builds = [bench.setup(lambda: build_regions(bench.seed, 1))
              for _ in range(SETUP_REPEATS)]

    def fill():
        workloads = _cold_inputs(bench)
        with probes.Patches() as patches:  # host-speed probes between items
            probes.time_items(patches, lambda *_: None, bench.tick)
            return _sweep(workloads)

    fill_s, filled = bench.setup(fill)
    out.setup_s = median([s for s, _ in builds]) + fill_s
    cold = {key: gate.sweep_record(run) for key, run in filled.items()
            if run is not None}
    expected = bench.reference("sweep")
    with probes.Patches() as patches:
        probes.time_items(patches, out.add_item, bench.tick)
        for _ in range(bench.passes("sweep-warm", len(cold))):
            clear_memos()
            workloads = build_regions(bench.seed, 1)
            runs = bench.measure(out, lambda _: _sweep(workloads))
            records = _check_sweep(out, runs, [cold, expected])
            if not out.records:
                out.records = records
                _model_ratios(out, runs)
    out.peak_rss_mb = _self_peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# Compile
# ----------------------------------------------------------------------
def _compile_configs():
    from repro.compiler.pipeline import PipelineConfig

    return (
        ("full", PipelineConfig.full()),
        ("paper_faithful", PipelineConfig.paper_faithful()),
        ("baseline_compiler", PipelineConfig.baseline_compiler()),
    )


def _compile_pass(bench: Bench, out: Outcome,
                  workloads: list) -> List[Tuple[Dict[str, Dict], List[str]]]:
    """Every region through the three pipeline configs, the trace-derived
    oracle and the sync-coverage check on the full compile.  Returns,
    per region, its gate records and its coverage gaps."""
    from repro.compiler import coverage, oracle_labels
    from repro.experiments import common

    configs = _compile_configs()
    common.clear_memos()
    results = []
    for workload in workloads:
        bench.tick()
        cpu = _cpu_timer()
        t0 = time.perf_counter()
        records = {}
        for name, cfg in configs:
            result = common.compile_workload(workload, cfg)
            records[f"{workload.name}|{name}"] = gate.compile_record(result)
            if name == "full":
                full = result
        graph = workload.graph.clone(with_mdes=False)
        edges = oracle_labels.compile_with_oracle(
            graph, workload.invocations(INVOCATIONS)
        )
        records[f"{workload.name}|oracle"] = {"mdes": len(edges)}
        report = coverage.check_sync_coverage(full.graph)
        out.add_item(t0, time.perf_counter(), cpu())
        results.append((records, [f"{workload.name}: {gap}" for gap in report.gaps]))
    return results


def compile_all_paths(bench: Bench) -> Outcome:
    """All 135 regions (27 x top-5) through every compile step."""
    out = Outcome()
    bench.fresh_cache(enabled=False)
    setups = [bench.setup(lambda: build_regions(bench.seed, 5))
              for _ in range(SETUP_REPEATS)]
    out.setup_s = median([s for s, _ in setups])
    workloads = setups[-1][1]
    expected = bench.reference("compile")
    for _ in range(bench.passes("compile-all-paths", len(workloads))):
        first = out.records or None
        for records, messages in bench.measure(
                out, lambda _: _compile_pass(bench, out, workloads)):
            out.attempted += 1
            for reference in (expected, first):
                if reference is not None:
                    for found in gate.check(reference, records).values():
                        messages += found
            if messages:
                out.fail(messages)
            if first is None:
                out.records.update(records)
    out.peak_rss_mb = _self_peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeRequest:
    region: str
    systems: Tuple[str, ...]
    invocations: int

    def task_key(self, system: str) -> str:
        return f"{self.region}|{system}|{self.invocations}"


def _serve_regions() -> List[str]:
    from repro.workloads.micro import MICROS
    from repro.workloads.suite import benchmark_names

    return [f"micro.{m}" for m in sorted(MICROS)] + benchmark_names()


def draw_requests(seed: int, passes: int = SERVE_PASSES) -> List[List[ServeRequest]]:
    """Seeded serve passes of distinct tasks.

    Each pass asks for every micro and suite region once, in a seeded
    order.  Region ``r`` gets ``2 + (a_r + pass) % 11`` invocations and
    ``1 + (b_r + pass) % 3`` systems: consecutive ones in the cyclic
    order of :data:`SYSTEMS`, from the ``(c_r + pass) % 5``-th on.  The
    offsets ``a``, ``b`` and ``c`` are spread evenly over the regions, so
    every pass has the same invocation, width and system mix, and no
    task (region, system, invocations) is asked for twice in a run.
    ``a`` and ``b`` are the same for every seed, which keeps a run's work
    and its latency tail nearly seed-independent; the seed picks the
    order and deals out ``c``, which region runs which systems.
    """
    regions = _serve_regions()
    n = len(regions)
    schedule = random.Random("perfbench-serve-schedule")
    inv_offsets = schedule.sample([i % 11 for i in range(n)], n)  # 2..12
    width_offsets = schedule.sample([i % 3 for i in range(n)], n)  # 1..3
    rng = random.Random(f"perfbench-serve/{seed}")
    system_offsets = rng.sample([i % len(SYSTEMS) for i in range(n)], n)
    out = []
    for p in range(passes):
        out.append([
            ServeRequest(
                region=regions[i],
                systems=tuple(SYSTEMS[(system_offsets[i] + p + k) % len(SYSTEMS)]
                              for k in range(1 + (width_offsets[i] + p) % 3)),
                invocations=2 + (inv_offsets[i] + p) % 11,
            )
            for i in rng.sample(range(n), n)
        ])
    return out


def warmup_requests() -> List[ServeRequest]:
    """One single-invocation request per region: the daemon builds,
    compiles and places every region before the timed passes."""
    return [ServeRequest(region=region, systems=("opt-lsq", "nachos"), invocations=1)
            for region in _serve_regions()]


def serve_expected(passes: List[List[ServeRequest]]) -> Dict[str, Dict]:
    """Payload records for every task of every pass, computed in process
    (the regeneration path for ``expected/serve.json``)."""
    from repro.experiments import common
    from repro.serve.protocol import run_payload, workload_for

    records = {}
    for request in (r for batch in passes for r in batch):
        for system in request.systems:
            key = request.task_key(system)
            if key not in records:
                run = common.run_system(workload_for(request.region), system,
                                        invocations=request.invocations)
                records[key] = gate.serve_record(run_payload(run))
    return records


class Daemon:
    """One ``nachos-serve`` subprocess on an ephemeral port."""

    def __init__(self, bench: Bench, cache_dir: Path, env: Dict[str, str]) -> None:
        self.bench = bench
        self.cache_dir = cache_dir
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self._cpu: Optional[cpuclock.ProcessCPU] = None

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used (0 before it starts)."""
        return self._cpu.seconds() if self._cpu is not None else 0.0

    def start(self) -> "Daemon":
        from repro.serve.client import ServeClient

        ready = Path(tempfile.mkdtemp(prefix="ready-", dir=self.bench.tmp)) / "ready.json"
        env = dict(self.env)
        env["NACHOS_CACHE_DIR"] = str(self.cache_dir)
        self.log = open(ready.parent / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.daemon", "--port", "0",
             "--jobs", "1", "--ready-file", str(ready), "--quiet"],
            cwd=str(self.bench.root), env=env,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self._cpu = cpuclock.ProcessCPU(self.proc.pid)
        deadline = time.monotonic() + SERVE_BOOT_TIMEOUT_S
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("nachos-serve did not become ready; log: "
                                   + (ready.parent / "daemon.log").read_text())
            time.sleep(0.005)
        info = json.loads(ready.read_text())
        self.client = ServeClient(host=info["host"], port=info["port"],
                                  timeout=SERVE_REQUEST_TIMEOUT_S)
        self.client.healthz()
        return self

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()
            self.proc = None


def _serve_pass(daemon: Daemon, batch: List[ServeRequest]) -> List[Tuple]:
    """Closed loop: one client sends each request when the previous one
    has answered.  Returns ``(request, answer, start, end, CPU s)``, the
    CPU time being the client's plus the daemon's while the request ran."""
    answers: List[Tuple] = []
    for request in batch:
        daemon.bench.tick()
        task = request.task_key("+".join(request.systems))
        with daemon.bench.rec.span("serve.request", task=task):
            cpu = _cpu_timer(daemon.cpu_s)
            t0 = time.perf_counter()
            try:
                answer = daemon.client.submit(request.region,
                                              systems=list(request.systems),
                                              invocations=request.invocations,
                                              wait=True)
            except Exception as exc:  # a failed request is a failed item
                answer = exc
            answers.append((request, answer, t0, time.perf_counter(), cpu()))
    return answers


def _check_answer(request: ServeRequest, answer, expected) -> Tuple[Dict, List[str]]:
    key = request.task_key("+".join(request.systems))
    if isinstance(answer, Exception):
        return {}, [f"{key}: {type(answer).__name__}: {answer}"]
    if answer.get("status") != "done" or answer.get("failed"):
        return {}, [f"{key}: status {answer.get('status')!r}, "
                    f"failed {answer.get('failed')!r}"]
    records, messages = {}, []
    for system in request.systems:
        task = request.task_key(system)
        payload = answer["results"].get(system)
        if payload is None:
            messages.append(f"{task}: missing from the response")
            continue
        record = records[task] = gate.serve_record(payload)
        if not record["correct"]:
            messages.append(f"{task}: golden mismatch")
        if expected is not None:
            messages += gate.check(expected, {task: record}).get(task, [])
    return records, messages


def _metric(snapshot: Dict, name: str, field_name: str = "value") -> float:
    return float(snapshot.get(name, {}).get(field_name, 0.0))


def serve_wide(bench: Bench, env: Dict[str, str]) -> Outcome:
    """One daemon, one closed-loop client, distinct requests."""
    out = Outcome()
    passes = draw_requests(bench.seed)
    expected = bench.reference("serve")
    cache_dir = bench.fresh_cache()
    daemon: Optional[Daemon] = None
    boots = []
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(bench, cache_dir, env)
            boot_s, _ = bench.setup(daemon.start, other=daemon.cpu_s)
            boots.append(boot_s)

        def warm_up():
            with bench.rec.span("serve.warmup"):
                for request, answer, *_ in _serve_pass(daemon, warmup_requests()):
                    _, messages = _check_answer(request, answer, None)
                    if messages:
                        raise RuntimeError("serve warm-up failed: " + messages[0])

        warmup_s, _ = bench.setup(warm_up, other=daemon.cpu_s)
        out.setup_s = median(boots) + warmup_s
        out.extra["serve.boot_s"] = median(boots)
        before = daemon.client.metrics()
        daemon_s = []
        for batch in passes[:bench.passes("serve-wide", len(passes[0]))]:
            answers = bench.measure(out, lambda _: _serve_pass(daemon, batch),
                                    other=daemon.cpu_s)
            for request, answer, t0, t1, cpu_s in answers:
                out.attempted += 1
                out.add_item(t0, t1, cpu_s)
                if isinstance(answer, dict) and "elapsed_seconds" in answer:
                    daemon_s.append(answer["elapsed_seconds"])
                records, messages = _check_answer(request, answer, expected)
                out.records.update(records)
                if messages:
                    out.fail(messages)
        after = daemon.client.metrics()
    finally:
        if daemon is not None:
            daemon.stop()

    def delta(name: str, field_name: str = "value") -> float:
        return _metric(after, name, field_name) - _metric(before, name, field_name)

    submitted = delta("serve.tasks_submitted")
    batch_sizes = (_metric(after, "serve.batch_size", "mean")
                   * _metric(after, "serve.batch_size", "count")
                   - _metric(before, "serve.batch_size", "mean")
                   * _metric(before, "serve.batch_size", "count"))
    batches = delta("serve.batches")
    out.extra.update({
        "serve.daemon_p50_ms": median(daemon_s) * 1e3 if daemon_s else 0.0,
        "serve.batches": batches,
        "serve.batch_size_mean": batch_sizes / batches if batches else 0.0,
        "serve.dedup_ratio": delta("serve.tasks_deduped") / submitted if submitted else 0.0,
        "serve.tasks_submitted": submitted,
        "serve.tasks_failed": delta("serve.tasks_failed"),
        "serve.pool_retries": delta("serve.pool_retries"),
    })
    if bench.regenerate:
        bench.fresh_cache()  # compute independently of the daemon's cache
        out.records = serve_expected(passes)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out


def run(name: str, bench: Bench, env: Dict[str, str]) -> Outcome:
    bench.speed = cpuclock.HostSpeed(OBJECT_SHARE[name])
    if name == "serve-wide":
        return serve_wide(bench, env)
    return {
        "sweep-cold": sweep_cold,
        "sweep-warm": sweep_warm,
        "compile-all-paths": compile_all_paths,
    }[name](bench)


#: Workload name -> the ``expected/`` file its records are gated against.
EXPECTED_FILE = {
    "sweep-cold": "sweep",
    "sweep-warm": "sweep",
    "compile-all-paths": "compile",
    "serve-wide": "serve",
}


@contextmanager
def opened(root: Path, seed: int, seconds: float, rec: SpanRecorder,
           regenerate: bool = False):
    bench = Bench(root, seed, seconds, rec, regenerate=regenerate)
    try:
        yield bench
    finally:
        bench.close()
