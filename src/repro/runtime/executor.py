"""Supervised process fan-out for simulation tasks.

``run_tasks`` maps :class:`SimTask` s over a pool of dedicated worker
processes with order-preserving collection, so results come back in
task order regardless of which worker finished first — parallel and
serial runs are indistinguishable to callers.

Unlike a bare ``ProcessPoolExecutor``, the pool here is *supervised*:
each worker owns a duplex pipe and one in-flight task at a time, and
the parent event loop

* detects worker death mid-task (EOF on the pipe) and replaces the
  worker,
* enforces a per-task wall-clock ``timeout`` by SIGKILLing the hung
  worker,
* treats results that fail to unpickle as corrupt,
* requeues the affected task through a deterministic
  exponential-backoff :class:`~repro.runtime.retry.RetryScheduler`
  until it succeeds or exhausts ``max_retries``, and
* journals completions into the active
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` (if any), so a
  killed sweep resumes instead of restarting.

Terminal failures never abort the sweep mid-flight: every other task
still runs, and the :class:`~repro.runtime.retry.SweepOutcome` carries
the partial results plus machine-readable
:class:`~repro.runtime.retry.TaskFailure` records.  ``run_tasks``
raises :class:`~repro.runtime.retry.SweepError` at the end when any
task failed; ``run_tasks_detailed`` hands back the outcome instead.

Fault injection for all of the above lives in
:mod:`repro.runtime.chaos` (``NACHOS_CHAOS``): workers consult the
seeded spec at task pickup and crash / hang / corrupt themselves on
cue, so the recovery paths are pinned by deterministic tests.

The default job count comes from the CLI (``--jobs``) or the
``NACHOS_JOBS`` environment variable and defaults to 1 (serial, no pool
spawned).  Workers share the on-disk result cache with the parent, so a
task that another worker already computed is a cheap unpickle.

When sweep profiling is enabled (:mod:`repro.obs.profile`), every task
reports its wall time, the pid of the worker that ran it, and its
result-cache hit/miss delta; retries, timeouts, worker crashes, corrupt
results, and checkpoint hits are counted too.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.profile import get_profile
from repro.runtime.chaos import (
    CORRUPT as CHAOS_CORRUPT,
    CRASH as CHAOS_CRASH,
    HANG as CHAOS_HANG,
    ChaosCrash,
    ChaosCorrupt,
    ChaosSpec,
    get_chaos,
)
from repro.runtime.checkpoint import SweepCheckpoint, get_checkpoint
from repro.runtime.retry import (
    CORRUPT,
    CRASH,
    ERROR,
    TIMEOUT,
    RetryPolicy,
    RetryScheduler,
    SweepError,
    SweepOutcome,
    TaskFailure,
)

_jobs: Optional[int] = None
_policy: Optional[RetryPolicy] = None

#: Bytes a chaos-corrupted worker ships instead of its result pickle;
#: ``\x00`` is an invalid pickle opcode, so the supervisor's recv fails.
_CORRUPT_BYTES = b"\x00nachos-chaos-corrupt-result"

#: Exceptions that mean "the bytes on the pipe were not a valid result".
_UNPICKLE_ERRORS = (pickle.UnpicklingError, AttributeError, ImportError, ValueError)


def get_jobs() -> int:
    """The effective default parallelism for sweeps."""
    if _jobs is not None:
        return _jobs
    env = os.environ.get("NACHOS_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def set_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default (``None`` restores env/serial)."""
    global _jobs
    _jobs = max(1, jobs) if jobs is not None else None


def get_policy() -> RetryPolicy:
    """The effective retry/timeout policy for sweeps."""
    if _policy is not None:
        return _policy
    return RetryPolicy.from_env()


def set_policy(policy: Optional[RetryPolicy]) -> None:
    """Set the process-wide policy (``None`` restores env/defaults)."""
    global _policy
    _policy = policy


@dataclass
class SimTask:
    """One (workload, system) simulation request.

    The whole :class:`~repro.workloads.generator.Workload` rides along —
    it is a plain picklable dataclass, and shipping it keeps workers
    stateless (no re-derivation from specs in the child).
    """

    workload: Any
    system: str
    invocations: int
    check: bool = True
    warm: bool = True
    kwargs: dict = field(default_factory=dict)


def _execute(task: SimTask):
    from repro.experiments.common import run_system

    return run_system(
        task.workload,
        task.system,
        invocations=task.invocations,
        check=task.check,
        warm=task.warm,
        **task.kwargs,
    )


def _task_label(task: SimTask) -> str:
    workload = task.workload
    name = getattr(workload, "name", None) or getattr(
        getattr(workload, "spec", None), "name", "?"
    )
    return str(name)


def _checkpoint_key(task: SimTask) -> str:
    from repro.experiments.common import task_fingerprint

    return task_fingerprint(
        task.workload, task.system, task.invocations, task.warm, task.kwargs
    )


def _sigkill_self() -> None:
    """Chaos ``abort``: die the way an external SIGKILL would."""
    sig = getattr(signal, "SIGKILL", None)
    if sig is not None:
        os.kill(os.getpid(), sig)
    os._exit(137)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, parent_conn=None) -> None:
    """Dedicated worker loop: recv one ``(index, attempt, task)``, run
    it, send one result envelope; ``None`` shuts the worker down.

    Chaos faults are applied *here*, in the real worker process, so the
    supervisor sees genuine process death, genuine silence past the
    deadline, and genuine garbage on the pipe.

    Fork-context children inherit every parent-side pipe end that
    existed at fork time — including their *own* — so EOF alone cannot
    signal supervisor death.  The loop therefore polls with a timeout
    and exits when it finds itself re-parented (the supervisor was
    SIGKILLed); otherwise killed sweeps would leave orphan workers
    holding the caller's stdout/stderr pipes open forever.
    """
    from repro.runtime.cache import get_cache

    if parent_conn is not None:  # our own parent-side end (fork context)
        try:
            parent_conn.close()
        except OSError:
            pass
    cache = get_cache()
    chaos = get_chaos()
    supervisor = os.getppid()
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != supervisor:
                    break  # supervisor died; don't linger as an orphan
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        index, attempt, task = msg
        action = chaos.decide(index, attempt) if chaos else None
        if action == CHAOS_CRASH:
            os._exit(3)
        if action == CHAOS_HANG:
            time.sleep(chaos.hang_seconds)
        h0, m0 = cache.hits, cache.misses
        t0 = time.perf_counter()
        try:
            run = _execute(task)
        except Exception as exc:  # the task itself raised: report, stay up
            conn.send(("err", index, f"{type(exc).__name__}: {exc}"))
            continue
        if action == CHAOS_CORRUPT:
            conn.send_bytes(_CORRUPT_BYTES)
            continue
        conn.send(
            (
                "ok",
                index,
                run,
                cache.hits - h0,
                cache.misses - m0,
                time.perf_counter() - t0,
                os.getpid(),
            )
        )
    try:
        conn.close()
    except OSError:
        pass


@dataclass
class _Worker:
    proc: Any
    conn: Any
    index: Optional[int] = None     # in-flight task index
    deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _spawn_worker(ctx) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    # The child gets its own parent-side end too, purely so it can close
    # it (fork inherits the fd; spawn pickles None instead).
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, parent_conn), daemon=True
    )
    proc.start()
    child_conn.close()
    return _Worker(proc=proc, conn=parent_conn)


def _kill_worker(worker: _Worker) -> None:
    try:
        worker.proc.kill()
    except (OSError, AttributeError):
        pass
    worker.proc.join(timeout=5)
    try:
        worker.conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _Supervision:
    """Shared bookkeeping between the serial and pooled drivers."""

    def __init__(
        self,
        tasks: List[SimTask],
        policy: RetryPolicy,
        checkpoint: Optional[SweepCheckpoint],
    ) -> None:
        self.tasks = tasks
        self.policy = policy
        self.checkpoint = checkpoint
        self.profile = get_profile()
        # Reclaim tmp debris from earlier runs killed mid-put (ours or a
        # previous process's); live writers are spared by pid check.
        from repro.runtime.cache import get_cache

        get_cache().sweep_stale()
        if checkpoint is not None:
            checkpoint.sweep_stale()
        self.sched = RetryScheduler(len(tasks), policy)
        self.results: List[Optional[Any]] = [None] * len(tasks)
        self.failures: List[TaskFailure] = []
        self.checkpoint_hits = 0
        self.keys: Optional[List[str]] = None
        if checkpoint is not None:
            self.keys = [_checkpoint_key(t) for t in tasks]
            for i, key in enumerate(self.keys):
                value = checkpoint.get(key)
                if value is not checkpoint.MISS:
                    self.results[i] = value
                    self.sched.mark_done(i)
                    self.checkpoint_hits += 1
            if self.profile.enabled and self.checkpoint_hits:
                self.profile.record_checkpoint_hits(self.checkpoint_hits)

    def complete(
        self,
        index: int,
        run: Any,
        hits: int,
        misses: int,
        seconds: float,
        pid: int,
    ) -> None:
        self.results[index] = run
        self.sched.record_success(index)
        if self.checkpoint is not None and self.keys is not None:
            self.checkpoint.put(self.keys[index], run)
        if self.profile.enabled:
            self.profile.record_task(
                _task_label(self.tasks[index]),
                self.tasks[index].system,
                seconds,
                pid,
                hits=hits,
                misses=misses,
            )

    def fail_attempt(self, index: int, kind: str, message: str, now: float
                     ) -> Optional[float]:
        """Record one failed attempt; returns backoff delay or ``None``
        when the task is terminally failed."""
        task = self.tasks[index]
        if self.profile.enabled:
            self.profile.record_fault(_task_label(task), task.system, kind)
        delay = self.sched.record_failure(index, now)
        if delay is None:
            failure = TaskFailure(
                index=index,
                region=_task_label(task),
                system=task.system,
                kind=kind,
                attempts=self.sched.attempts(index) + 1,
                message=message,
            )
            self.failures.append(failure)
            if self.profile.enabled:
                self.profile.record_failure(
                    failure.region, failure.system, kind,
                    failure.attempts, message,
                )
            if self.checkpoint is not None:
                self.checkpoint.record_failure(failure.as_dict())
        return delay

    def outcome(self) -> SweepOutcome:
        return SweepOutcome(
            results=self.results,
            failures=self.failures,
            retries=self.sched.retries,
            checkpoint_hits=self.checkpoint_hits,
        )


def _run_serial(tasks: List[SimTask], policy: RetryPolicy) -> SweepOutcome:
    """In-process driver with the same retry semantics as the pool.

    Serial runs cannot preempt a task, so ``timeout`` is not enforced
    here; chaos ``crash``/``corrupt`` surface as exceptions
    (:class:`ChaosCrash` / :class:`ChaosCorrupt`) and exercise the retry
    path, ``hang`` degenerates to a sleep.
    """
    from repro.runtime.cache import get_cache

    sup = _Supervision(tasks, policy, get_checkpoint())
    chaos = get_chaos()
    cache = get_cache()
    pid = os.getpid()
    profile = sup.profile
    wall0 = time.perf_counter()
    while not sup.sched.finished:
        now = time.monotonic()
        claimed = sup.sched.pop_eligible(now)
        if claimed is None:
            nxt = sup.sched.next_eligible_time()
            if nxt is None:  # nothing pending and nothing running: done
                break
            time.sleep(max(0.0, nxt - now))
            continue
        index, attempt = claimed
        if chaos and attempt == 0 and chaos.decide_abort(index):
            _sigkill_self()
        action = chaos.decide(index, attempt) if chaos else None
        h0, m0 = cache.hits, cache.misses
        t0 = time.perf_counter()
        try:
            if action == CHAOS_CRASH:
                raise ChaosCrash(f"injected crash at task {index}.{attempt}")
            if action == CHAOS_CORRUPT:
                raise ChaosCorrupt(f"injected corrupt at task {index}.{attempt}")
            if action == CHAOS_HANG:
                time.sleep(chaos.hang_seconds)
            run = _execute(tasks[index])
        except Exception as exc:
            if isinstance(exc, ChaosCrash):
                kind = CRASH
            elif isinstance(exc, ChaosCorrupt):
                kind = CORRUPT
            else:
                kind = ERROR
            delay = sup.fail_attempt(index, kind, str(exc), time.monotonic())
            if delay is not None:
                time.sleep(delay)
            continue
        sup.complete(
            index, run, cache.hits - h0, cache.misses - m0,
            time.perf_counter() - t0, pid,
        )
    if profile.enabled:
        profile.record_sweep(len(tasks), 1, time.perf_counter() - wall0)
    return sup.outcome()


def _run_pool(
    tasks: List[SimTask], n: int, policy: RetryPolicy
) -> SweepOutcome:
    """The supervised pool driver (see module docstring)."""
    from repro.runtime.cache import get_cache

    sup = _Supervision(tasks, policy, get_checkpoint())
    chaos = get_chaos()
    cache = get_cache()
    profile = sup.profile
    ctx = _mp_context()
    jobs = min(n, sup.sched.unfinished)
    wall0 = time.perf_counter()
    workers: List[_Worker] = [_spawn_worker(ctx) for _ in range(jobs)]

    def on_ok(worker: _Worker, msg: Tuple) -> None:
        _, index, run, hits, misses, seconds, pid = msg
        cache.add_counts(hits, misses)
        sup.complete(index, run, hits, misses, seconds, pid)

    def on_soft_failure(worker: _Worker, kind: str, message: str) -> None:
        # The worker survives (corrupt pickle / in-task exception).
        index = worker.index
        worker.index = None
        worker.deadline = None
        if index is not None:
            sup.fail_attempt(index, kind, message, time.monotonic())

    def on_worker_death(worker: _Worker, kind: str, message: str) -> None:
        index = worker.index
        _kill_worker(worker)
        workers.remove(worker)
        if index is not None:
            sup.fail_attempt(index, kind, message, time.monotonic())
        if sup.sched.unfinished > len(workers):
            workers.append(_spawn_worker(ctx))

    try:
        while not sup.sched.finished:
            now = time.monotonic()
            # -- dispatch eligible tasks onto idle workers ---------------
            for worker in workers:
                if worker.busy:
                    continue
                claimed = sup.sched.pop_eligible(now)
                if claimed is None:
                    break
                index, attempt = claimed
                if chaos and attempt == 0 and chaos.decide_abort(index):
                    _sigkill_self()
                try:
                    worker.conn.send((index, attempt, tasks[index]))
                except (OSError, ValueError):
                    # Worker died while idle; don't burn the attempt.
                    sup.sched.requeue(index)
                    _kill_worker(worker)
                    workers.remove(worker)
                    workers.append(_spawn_worker(ctx))
                    break
                worker.index = index
                worker.deadline = (
                    now + policy.timeout if policy.timeout else None
                )
            # -- wait for results, deadlines, or backoff expiries --------
            busy = [w for w in workers if w.busy]
            wait_until: List[float] = [
                w.deadline for w in busy if w.deadline is not None
            ]
            nxt = sup.sched.next_eligible_time()
            if nxt is not None:
                wait_until.append(nxt)
            timeout = (
                max(0.0, min(wait_until) - time.monotonic())
                if wait_until
                else None
            )
            if busy:
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=timeout
                )
            else:
                if sup.sched.finished:
                    break
                if timeout is None:
                    break  # nothing running, nothing pending: all terminal
                time.sleep(timeout)
                ready = []
            by_conn: Dict[Any, _Worker] = {w.conn: w for w in workers}
            for conn in ready:
                worker = by_conn.get(conn)
                if worker is None:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    on_worker_death(
                        worker, CRASH,
                        f"worker pid {worker.proc.pid} died mid-task",
                    )
                    continue
                except _UNPICKLE_ERRORS as exc:
                    on_soft_failure(
                        worker, CORRUPT, f"result failed to unpickle: {exc}"
                    )
                    continue
                if not isinstance(msg, tuple) or not msg:
                    on_soft_failure(worker, CORRUPT, "malformed result envelope")
                    continue
                if msg[0] == "ok":
                    worker.index = None
                    worker.deadline = None
                    on_ok(worker, msg)
                else:
                    on_soft_failure(worker, ERROR, str(msg[2]))
            # -- enforce per-task deadlines ------------------------------
            now = time.monotonic()
            for worker in list(workers):
                if (
                    worker.busy
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    on_worker_death(
                        worker, TIMEOUT,
                        f"task exceeded {policy.timeout:.3g}s timeout; "
                        f"worker pid {worker.proc.pid} killed",
                    )
    finally:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():
                _kill_worker(worker)
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
    if profile.enabled:
        profile.record_sweep(
            len(tasks), jobs, time.perf_counter() - wall0
        )
    return sup.outcome()


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def run_tasks_detailed(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
) -> SweepOutcome:
    """Run *tasks* under supervision; never raises on task failure.

    Returns a :class:`SweepOutcome` whose ``results`` align
    index-for-index with *tasks* (``None`` where a task terminally
    failed) plus the failure/retry/checkpoint telemetry.
    """
    tasks = list(tasks)
    n = jobs if jobs is not None else get_jobs()
    pol = policy if policy is not None else get_policy()
    if not tasks:
        return SweepOutcome(results=[])
    if n <= 1 or len(tasks) <= 1:
        return _run_serial(tasks, pol)
    return _run_pool(tasks, n, pol)


def run_tasks(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
) -> List[Any]:
    """Run *tasks*, returning :class:`SystemRun` s in task order.

    Raises :class:`~repro.runtime.retry.SweepError` (carrying the
    partial :class:`~repro.runtime.retry.SweepOutcome`) if any task
    still failed after bounded retries.
    """
    outcome = run_tasks_detailed(tasks, jobs=jobs, policy=policy)
    if not outcome.ok:
        raise SweepError(outcome)
    return outcome.results
