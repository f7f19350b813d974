"""``nachos-serve`` — the long-running disambiguation service.

An asyncio daemon that keeps the whole stack hot — workload graphs,
compile results, the content-addressed result cache, and the supervised
worker pool — so a disambiguation query costs a cache lookup or one
pooled simulation instead of a full process startup + compile.

Endpoints (JSON over HTTP/1.1, TCP or a unix socket):

=======================  ==============================================
``POST /submit``         submit a request (see
                         :mod:`repro.serve.protocol`); returns
                         ``{"request_id", "status", "deduped"}``.  With
                         ``"wait": true`` the response long-polls until
                         the request finishes and carries the payload.
``GET /poll?id=FP``      ``{"request_id", "status"}`` — status is
                         ``running``, ``done``, or ``failed``
``GET /result?id=FP``    the result payload (``202`` while running,
                         ``404`` for unknown/evicted ids)
``GET /metrics``         the request-metrics registry + read-through
                         cache counters, JSON
``GET /healthz``         liveness + uptime
``POST /shutdown``       graceful stop (the bench/CI harnesses use it)
``GET /peer/result/<fp>``  sharded-tier internal: this daemon's stored
                         payload for a task fingerprint (hop-limited
                         forwarding, see :mod:`repro.serve.peers`)
``PUT /peer/result/<fp>``  sharded-tier internal: accept a computed
                         payload offered by a non-owner peer
``GET/POST /peers``      fleet membership view / replace (the bench
                         multi-daemon harness wires rings this way)
=======================  ==============================================

Dedup happens twice: identical *requests* attach to the retained
request record, and identical *(region, system)* tasks across different
requests attach in-flight inside the :class:`~repro.serve.batcher.Batcher`.
Completed results are served read-through from the shared
:class:`~repro.runtime.cache.ResultCache`, so even a daemon restart
answers repeat queries from disk.

The fault story is the PR-4 runtime's, unchanged: worker crashes,
hangs, and corrupt results retry with deterministic backoff
(``--timeout`` / ``--max-retries``), and a ``NACHOS_CHAOS`` spec in the
daemon's environment is inherited by pool workers — a chaos campaign
against a live daemon must return results byte-identical to a
fault-free one (``benchmarks/bench_serve.py --chaos`` enforces it).
Do not use the chaos ``abort@`` point with the daemon: it SIGKILLs the
supervisor, i.e. the daemon itself.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs.metrics import MetricsRegistry, metrics_from_cache
from repro.serve.batcher import Batcher, ServeTaskError
from repro.serve.peers import (
    DEFAULT_HOP_LIMIT,
    HOPS_HEADER,
    PeerTier,
    parse_peer_spec,
)
from repro.serve.protocol import (
    SERVE_SCHEMA,
    ProtocolError,
    ServeRequest,
    parse_request,
    payload_key,
    run_payload,
    workload_for,
)

#: Ceiling on ``"wait": true`` long-polls, so a stuck request cannot pin
#: a connection forever (the client can always re-poll).
MAX_WAIT_SECONDS = 300.0

_MAX_BODY_BYTES = 1 << 20
_READ_TIMEOUT = 30.0

RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class _RequestRecord:
    request: ServeRequest
    status: str = RUNNING
    payload: Optional[Dict[str, Any]] = None
    created: float = field(default_factory=time.perf_counter)
    event: asyncio.Event = field(default_factory=asyncio.Event)


class NachosServeDaemon:
    """The serve daemon: HTTP front, batcher back, metrics throughout."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8737,
        socket_path: Optional[str] = None,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        batch_window: float = 0.01,
        max_batch: int = 32,
        retain_results: int = 1024,
        ledger: Optional[str] = None,
        quiet: bool = False,
        peers: Optional[Dict[str, str]] = None,
        peer_id: Optional[str] = None,
        hop_limit: int = DEFAULT_HOP_LIMIT,
        store_dir: Optional[str] = None,
        peer_timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.jobs = jobs
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.retain_results = max(1, retain_results)
        self.ledger = ledger
        self.quiet = quiet
        self.policy = self._resolve_policy(timeout, max_retries)
        self.metrics = MetricsRegistry()
        self.requests: "OrderedDict[str, _RequestRecord]" = OrderedDict()
        self.batcher: Optional[Batcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started_monotonic = 0.0
        # Sharded cache tier (all optional; a peer-less daemon behaves
        # exactly as before PR 9).
        self._boot_peers = dict(peers) if peers else None
        self.peer_id = peer_id
        self.hop_limit = max(1, hop_limit)
        self.peer_timeout = peer_timeout
        self.store_dir = store_dir
        self.peer_tier: Optional[PeerTier] = None
        self.store = None  # type: Optional[Any]
        self._offers: set = set()  # in-flight write-through tasks

    @staticmethod
    def _resolve_policy(timeout, max_retries):
        from repro.runtime.executor import get_policy

        policy = get_policy()
        if timeout is None and max_retries is None:
            return policy
        import dataclasses

        return dataclasses.replace(
            policy,
            timeout=(timeout if timeout and timeout > 0 else None)
            if timeout is not None else policy.timeout,
            max_retries=max(0, max_retries)
            if max_retries is not None else policy.max_retries,
        )

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        from repro.runtime.cache import get_cache
        from repro.runtime.checkpoint import get_checkpoint

        # Reclaim crash debris (tmp files from previously killed
        # writers) before taking traffic — the durability layer is hot
        # 24/7 under this daemon, so boot is the natural sweep point.
        get_cache().sweep_stale()
        checkpoint = get_checkpoint()
        if checkpoint is not None:
            checkpoint.sweep_stale()

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.batcher = Batcher(
            jobs=self.jobs,
            policy=self.policy,
            batch_window=self.batch_window,
            max_batch=self.max_batch,
        )
        await self.batcher.start()
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._client_connected, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._client_connected, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        if self.store_dir:
            self._activate_store()
        if self._boot_peers is not None:
            self.configure_peers(self._boot_peers, self_name=self.peer_id)
        self._started_monotonic = time.monotonic()
        if not self.quiet:
            print(f"[nachos-serve] listening on {self.address}", flush=True)

    # -- sharded cache tier ---------------------------------------------
    def _activate_store(self):
        """The daemon-local payload store the peer tier reads and writes.

        A ``--store-dir`` gets its own :class:`ResultCache` root (one
        per fleet member); otherwise the shared process cache is reused.
        Either way every put is the cache's crash-consistent
        tmp+fsync+rename, so a killed peer rejoins with a complete
        store.
        """
        if self.store is None:
            from repro.runtime.cache import ResultCache, get_cache

            if self.store_dir:
                self.store = ResultCache(root=self.store_dir)
                self.store.sweep_stale()
            else:
                self.store = get_cache()
        return self.store

    def configure_peers(
        self,
        membership: Dict[str, str],
        self_name: Optional[str] = None,
        hop_limit: Optional[int] = None,
    ) -> PeerTier:
        """Install/replace the fleet view (boot ``--peers`` and
        ``POST /peers`` both land here).  Activates the payload store."""
        name = self_name or self.peer_id
        if name is None and self.peer_tier is not None:
            name = self.peer_tier.self_name
        if name is None:
            # Fixed-port fleets can use the bind address as identity;
            # ephemeral-port fleets must name themselves (--peer-id).
            name = f"{self.host}:{self.port}"
        peers = dict(membership)
        if name not in peers:
            if self.socket_path:
                raise ProtocolError(
                    "a unix-socket daemon cannot join a TCP peer ring "
                    "without an explicit membership entry for itself"
                )
            peers[name] = f"{self.host}:{self.port}"
        if hop_limit is not None:
            self.hop_limit = max(1, hop_limit)
        try:
            if self.peer_tier is None:
                self.peer_tier = PeerTier(
                    self_name=name,
                    membership=peers,
                    hop_limit=self.hop_limit,
                    fetch_timeout=self.peer_timeout,
                    policy=self.policy,
                )
            else:
                self.peer_tier.self_name = name
                self.peer_tier.hop_limit = self.hop_limit
                self.peer_tier.set_membership(peers)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        self.peer_id = name
        self._activate_store()
        if not self.quiet:
            print(
                f"[nachos-serve] peer ring: self={name} "
                f"peers={sorted(peers)}",
                flush=True,
            )
        return self.peer_tier

    @property
    def address(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        if self._offers:
            # Write-through offers are bounded by the peer timeout; let
            # them land (or fail) instead of destroying pending tasks.
            await asyncio.gather(*list(self._offers), return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.batcher is not None:
            await self.batcher.stop()
        if self.socket_path:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self.ledger:
            self._append_ledger()

    async def serve_forever(self, ready: Optional[threading.Event] = None) -> None:
        await self.start()
        if ready is not None:
            ready.set()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.stop()

    def run(self, ready: Optional[threading.Event] = None) -> None:
        asyncio.run(self.serve_forever(ready))

    def request_shutdown(self) -> None:
        """Thread-safe graceful stop (tests and signal handlers)."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    def serve_in_thread(self) -> threading.Thread:
        """Boot the daemon on a background thread; returns once listening."""
        ready = threading.Event()
        thread = threading.Thread(
            target=self.run, args=(ready,), name="nachos-serve", daemon=True
        )
        thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("nachos-serve daemon failed to start")
        return thread

    # -- request execution ---------------------------------------------
    async def _resolve_task(self, req: ServeRequest, system: str, fp: str):
        """One task's payload: local store, then the ring owner, then
        compute — the read-through order that makes a fleet share one
        logical store (misses degrade toward compute, never error)."""
        assert self.batcher is not None
        key = payload_key(fp) if self.store is not None else None
        if key is not None:
            cached = self.store.get(key)
            if isinstance(cached, dict):
                self.metrics.counter("serve.store_hits").inc()
                return cached
        tier = self.peer_tier
        if tier is not None:
            fetch = await tier.fetch(fp)
            self.metrics.counter(f"serve.peer_{fetch.outcome}").inc()
            if fetch.outcome in ("hit", "miss"):
                self.metrics.histogram("serve.peer_fetch_seconds").observe(
                    fetch.elapsed
                )
            if fetch.outcome == "hit" and fetch.payload is not None:
                # Hot keys replicate toward traffic: keep a local copy.
                if key is not None:
                    self.store.put(key, fetch.payload)
                return fetch.payload
        from repro.runtime.executor import SimTask

        run = await self.batcher.submit(
            fp,
            SimTask(
                workload=workload_for(req.region),
                system=system,
                invocations=req.invocations,
                check=req.check,
                warm=req.warm,
            ),
        )
        payload = run_payload(run)
        if key is not None:
            self.store.put(key, payload)
        if tier is not None and tier.owner(fp) not in (None, tier.self_name):
            # Best-effort write-through so the owner's disk becomes the
            # fleet-wide source for this key.  Fire-and-forget: losing
            # an offer costs a future recompute, never correctness.
            task = asyncio.get_running_loop().create_task(
                self._offer_to_owner(fp, payload)
            )
            self._offers.add(task)
            task.add_done_callback(self._offers.discard)
        return payload

    async def _offer_to_owner(self, fp: str, payload: Dict[str, Any]) -> None:
        assert self.peer_tier is not None
        accepted = await self.peer_tier.offer(fp, payload)
        self.metrics.counter(
            "serve.peer_offers_sent" if accepted else "serve.peer_offers_dropped"
        ).inc()

    async def _run_request(self, record: _RequestRecord) -> None:
        assert self.batcher is not None
        req = record.request
        started = time.perf_counter()
        coros = [
            self._resolve_task(req, system, fp)
            for system, fp in zip(req.systems, req.task_fps)
        ]
        runs = await asyncio.gather(*coros, return_exceptions=True)
        results: Dict[str, Any] = {}
        failed: Dict[str, Any] = {}
        for system, run in zip(req.systems, runs):
            if isinstance(run, ServeTaskError):
                failed[system] = run.failure
            elif isinstance(run, BaseException):
                failed[system] = {"kind": "error", "message": str(run)}
            else:
                results[system] = run
        elapsed = time.perf_counter() - started
        record.status = FAILED if failed else DONE
        record.payload = {
            "schema": SERVE_SCHEMA,
            "request_id": req.request_id,
            "status": record.status,
            "region": req.region,
            "invocations": req.invocations,
            "results": results,
            "failed": failed,
            "elapsed_seconds": elapsed,
        }
        self.metrics.histogram("serve.request_latency_seconds").observe(elapsed)
        self.metrics.counter(
            "serve.requests_failed" if failed else "serve.requests_done"
        ).inc()
        record.event.set()

    def _retain(self, request_id: str, record: _RequestRecord) -> None:
        self.requests[request_id] = record
        while len(self.requests) > self.retain_results:
            for key, old in self.requests.items():
                if old.status != RUNNING:
                    del self.requests[key]
                    break
            else:
                break  # everything is running; nothing evictable

    # -- HTTP front -----------------------------------------------------
    async def _client_connected(self, reader, writer) -> None:
        try:
            status, payload = await self._handle_one(reader)
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            writer.close()
            return
        except ProtocolError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never let a handler kill the daemon
            self.metrics.counter("serve.internal_errors").inc()
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except OSError:
                pass

    async def _handle_one(self, reader) -> Tuple[int, Dict[str, Any]]:
        line = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT)
        if not line:
            raise ConnectionError("empty request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ProtocolError("malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT)
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ProtocolError("bad Content-Length")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ProtocolError("request body too large")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        return await self._route(method.upper(), path, params, body, headers)

    async def _route(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        if path.startswith("/peer/result/"):
            fp = path[len("/peer/result/"):]
            if method == "GET":
                return await self._handle_peer_get(fp, headers or {})
            if method == "PUT":
                return self._handle_peer_put(fp, body)
            return 405, {"error": "GET or PUT /peer/result/<fp>"}
        if path == "/peers":
            if method == "GET":
                return self._handle_peers_get()
            if method == "POST":
                return self._handle_peers_post(body)
            return 405, {"error": "GET or POST /peers"}
        if path == "/submit":
            if method != "POST":
                return 405, {"error": "POST /submit"}
            return await self._handle_submit(body)
        if path == "/poll":
            return self._handle_poll(params)
        if path == "/result":
            return self._handle_result(params)
        if path == "/metrics":
            return 200, self.metrics_snapshot()
        if path == "/healthz":
            return 200, {
                "ok": True,
                "schema": SERVE_SCHEMA,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
            }
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "POST /shutdown"}
            assert self._stop_event is not None
            self._stop_event.set()
            return 200, {"ok": True, "stopping": True}
        return 404, {"error": f"unknown endpoint {path}"}

    async def _handle_submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError("request body is not valid JSON")
        request = parse_request(payload)
        self.metrics.counter("serve.requests").inc()

        record = self.requests.get(request.request_id)
        deduped = record is not None and record.status != FAILED
        if deduped:
            # Attach: the running/done record answers for this submit
            # too.  (Done records are the retained-result fast path.)
            self.requests.move_to_end(request.request_id)
            self.metrics.counter("serve.requests_deduped").inc()
        else:
            record = _RequestRecord(request=request)
            self._retain(request.request_id, record)
            asyncio.get_running_loop().create_task(self._run_request(record))

        if payload.get("wait"):
            wait_timeout = min(
                float(payload.get("wait_timeout", MAX_WAIT_SECONDS)),
                MAX_WAIT_SECONDS,
            )
            try:
                await asyncio.wait_for(record.event.wait(), wait_timeout)
            except asyncio.TimeoutError:
                pass
        if record.status != RUNNING and record.payload is not None:
            response = dict(record.payload)
            response["deduped"] = deduped
            return 200, response
        return 202, {
            "schema": SERVE_SCHEMA,
            "request_id": request.request_id,
            "status": record.status,
            "deduped": deduped,
        }

    def _record_for(self, params: Dict[str, str]) -> Optional[_RequestRecord]:
        request_id = params.get("id", "")
        if not request_id:
            raise ProtocolError("missing ?id=<request_id>")
        return self.requests.get(request_id)

    def _handle_poll(self, params) -> Tuple[int, Dict[str, Any]]:
        record = self._record_for(params)
        if record is None:
            return 404, {"error": "unknown request id"}
        return 200, {
            "request_id": record.request.request_id,
            "status": record.status,
            "age_seconds": time.perf_counter() - record.created,
        }

    def _handle_result(self, params) -> Tuple[int, Dict[str, Any]]:
        record = self._record_for(params)
        if record is None:
            return 404, {"error": "unknown request id"}
        if record.status == RUNNING or record.payload is None:
            return 202, {
                "request_id": record.request.request_id,
                "status": record.status,
            }
        self.metrics.counter("serve.results_served").inc()
        return 200, record.payload

    # -- peer protocol (sharded cache tier) -----------------------------
    async def _handle_peer_get(
        self, fp: str, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        """Serve a stored payload to a peer, forwarding at most once
        toward the node *this* daemon believes owns the key (membership
        views skew during rolling restarts); the hop counter makes a
        forwarding cycle terminate instead of looping."""
        if not fp:
            raise ProtocolError("missing task fingerprint")
        try:
            hops = int(headers.get(HOPS_HEADER.lower(), "0") or 0)
        except ValueError:
            raise ProtocolError(f"bad {HOPS_HEADER} header") from None
        if hops >= self.hop_limit:
            self.metrics.counter("serve.peer_hop_limited").inc()
            return 400, {
                "error": f"hop limit {self.hop_limit} exceeded",
                "fingerprint": fp,
                "hops": hops,
            }
        if self.store is not None:
            cached = self.store.get(payload_key(fp))
            if isinstance(cached, dict):
                self.metrics.counter("serve.peer_serves").inc()
                return 200, {
                    "fingerprint": fp,
                    "payload": cached,
                    "source": self.peer_id,
                    "hops": hops,
                }
        tier = self.peer_tier
        if tier is not None and hops + 1 < self.hop_limit:
            owner = tier.owner(fp)
            if owner not in (None, tier.self_name):
                fetch = await tier.fetch(fp, hops=hops + 1)
                if fetch.outcome == "hit" and fetch.payload is not None:
                    self.metrics.counter("serve.peer_forwards").inc()
                    return 200, {
                        "fingerprint": fp,
                        "payload": fetch.payload,
                        "source": fetch.peer,
                        "hops": hops + 1,
                        "forwarded": True,
                    }
        return 404, {"error": "miss", "fingerprint": fp}

    def _handle_peer_put(
        self, fp: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """Accept a payload a non-owner computed (write-through offer)."""
        if not fp:
            raise ProtocolError("missing task fingerprint")
        if self.store is None:
            return 400, {"error": "peer tier not configured"}
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError("offer body is not valid JSON") from None
        if not isinstance(payload, dict) or not payload:
            raise ProtocolError("offer body must be a non-empty JSON object")
        self.store.put(payload_key(fp), payload)
        self.metrics.counter("serve.peer_offers_accepted").inc()
        return 200, {"ok": True, "fingerprint": fp, "stored": True}

    def _handle_peers_get(self) -> Tuple[int, Dict[str, Any]]:
        if self.peer_tier is None:
            return 200, {"self": self.peer_id, "peers": {}, "down": []}
        return 200, self.peer_tier.snapshot()

    def _handle_peers_post(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError("membership body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ProtocolError("membership body must be a JSON object")
        peers = payload.get("peers")
        if not isinstance(peers, dict) or not peers or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in peers.items()
        ):
            raise ProtocolError(
                "'peers' must be a non-empty {name: \"host:port\"} object"
            )
        self_name = payload.get("self")
        if self_name is not None and not isinstance(self_name, str):
            raise ProtocolError("'self' must be a string peer name")
        hop_limit = payload.get("hop_limit")
        if hop_limit is not None and (
            not isinstance(hop_limit, int) or isinstance(hop_limit, bool)
            or hop_limit < 1
        ):
            raise ProtocolError("'hop_limit' must be a positive integer")
        self.configure_peers(peers, self_name=self_name, hop_limit=hop_limit)
        assert self.peer_tier is not None
        return 200, self.peer_tier.snapshot()

    # -- telemetry ------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """One JSON view: request metrics, batcher counters, cache
        read-through counters, and liveness gauges."""
        snap = MetricsRegistry()
        snap.merge(self.metrics)
        if self.batcher is not None:
            stats = self.batcher.stats
            snap.counter("serve.tasks_submitted").inc(stats.tasks_submitted)
            snap.counter("serve.tasks_deduped").inc(stats.tasks_deduped)
            snap.counter("serve.tasks_failed").inc(stats.tasks_failed)
            snap.counter("serve.batches").inc(stats.batches)
            snap.counter("serve.pool_retries").inc(stats.retries)
            snap.counter("serve.checkpoint_hits").inc(stats.checkpoint_hits)
            snap.histogram("serve.batch_size").observe_many(stats.batch_sizes)
            snap.gauge("serve.inflight_tasks").set(self.batcher.inflight)
        metrics_from_cache(registry=snap, prefix="cache")
        if self.store_dir and self.store is not None:
            # A dedicated --store-dir has its own counters (the global
            # cache entry above covers the shared-root case).
            snap.counter("store.hits").inc(self.store.hits)
            snap.counter("store.misses").inc(self.store.misses)
            total = self.store.hits + self.store.misses
            snap.gauge("store.hit_rate").set(
                self.store.hits / total if total else 0.0
            )
        if self.peer_tier is not None:
            snap.gauge("serve.peers").set(len(self.peer_tier.membership))
            snap.gauge("serve.peers_down").set(len(self.peer_tier.down_peers()))
        snap.gauge("serve.retained_requests").set(len(self.requests))
        snap.gauge("serve.uptime_seconds").set(
            time.monotonic() - self._started_monotonic
        )
        return snap.as_dict()

    def _append_ledger(self) -> None:
        from repro.obs.perf import PerfLedger, PerfRecord, capture_context

        snapshot = self.metrics_snapshot()
        metrics: Dict[str, float] = {}
        for name, entry in snapshot.items():
            if entry["type"] in ("counter", "gauge"):
                metrics[name] = float(entry["value"])
            else:
                for key, value in entry.items():
                    if key != "type":
                        metrics[f"{name}.{key}"] = float(value)
        context = capture_context(jobs=self.jobs, mode="daemon")
        ledger = PerfLedger(self.ledger)
        fp = ledger.append(
            PerfRecord(source="serve-daemon", metrics=metrics, context=context)
        )
        if not self.quiet:
            print(f"[nachos-serve] ledger {ledger.path}: appended {fp}",
                  flush=True)


# ----------------------------------------------------------------------
# CLI entry point (`nachos-serve`, also `nachos-repro serve ...`)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nachos-serve",
        description="Long-running NACHOS disambiguation service "
        "(submit/poll/result over HTTP or a unix socket).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8737,
        help="TCP port (0 = ephemeral; the chosen port is announced and "
        "written to --ready-file)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker-pool width per batch (default $NACHOS_JOBS or 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget (default $NACHOS_TIMEOUT or off)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="bounded retries per task (default $NACHOS_MAX_RETRIES or 2)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.01, metavar="SECONDS",
        help="micro-batching window: how long submissions accumulate "
        "before one pool dispatch (default 0.01)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32,
        help="max tasks per pool dispatch (default 32)",
    )
    parser.add_argument(
        "--retain", type=int, default=1024, metavar="N",
        help="completed request payloads kept for /result (LRU, default 1024)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append a serve-daemon telemetry record to this perf ledger "
        "on graceful shutdown",
    )
    parser.add_argument(
        "--peers", default=None, metavar="SPEC",
        help="join a sharded cache ring: 'name=host:port[,name=host:port"
        "...]' (default $NACHOS_PEERS; names are the stable ring "
        "identities, POST /peers can replace the view live)",
    )
    parser.add_argument(
        "--peer-id", default=None, metavar="NAME",
        help="this daemon's ring identity (default $NACHOS_PEER_ID, else "
        "its host:port once bound — name it explicitly with ephemeral "
        "ports)",
    )
    parser.add_argument(
        "--hop-limit", type=int, default=None, metavar="N",
        help="peer-request forwarding budget (default $NACHOS_HOP_LIMIT "
        f"or {DEFAULT_HOP_LIMIT}; a cycle of skewed membership views "
        "terminates here instead of looping)",
    )
    parser.add_argument(
        "--store-dir", default=None, metavar="PATH",
        help="dedicated payload-store root for the sharded tier "
        "(default: the shared $NACHOS_CACHE_DIR result cache)",
    )
    parser.add_argument(
        "--peer-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-peer round-trip budget; a slower peer is marked down "
        "with seeded backoff and the request computes locally (default 5)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write {pid, host, port, socket} JSON here once listening "
        "(harness handshake)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    peer_spec = args.peers if args.peers is not None else os.environ.get(
        "NACHOS_PEERS"
    )
    try:
        peers = parse_peer_spec(peer_spec) if peer_spec else None
    except ValueError as exc:
        parser.error(str(exc))
    peer_id = args.peer_id or os.environ.get("NACHOS_PEER_ID") or None
    hop_limit = args.hop_limit
    if hop_limit is None:
        try:
            hop_limit = int(os.environ.get("NACHOS_HOP_LIMIT", ""))
        except ValueError:
            hop_limit = DEFAULT_HOP_LIMIT

    daemon = NachosServeDaemon(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        retain_results=args.retain,
        ledger=args.ledger,
        quiet=args.quiet,
        peers=peers,
        peer_id=peer_id,
        hop_limit=hop_limit,
        store_dir=args.store_dir,
        peer_timeout=args.peer_timeout,
    )

    async def _serve() -> None:
        await daemon.start()
        if args.ready_file:
            ready = {
                "pid": os.getpid(),
                "host": daemon.host,
                "port": daemon.port,
                "socket": daemon.socket_path,
                "address": daemon.address,
                "peer_id": daemon.peer_id,
            }
            # Atomic publish: a harness polling for this file must never
            # observe a torn JSON half-write (parallel CI boots many
            # daemons and reads these under load).
            tmp = f"{args.ready_file}.tmp-{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(ready, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, args.ready_file)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon._stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass
        await daemon._stop_event.wait()
        await daemon.stop()

    asyncio.run(_serve())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
