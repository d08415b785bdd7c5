"""The asyncio matching daemon behind ``repro serve``.

:class:`MatchServer` accepts newline-delimited JSON connections
(:mod:`repro.serve.protocol`), admits ``match`` requests into per-worker
:class:`~repro.serve.batcher.BatchQueue` micro-batchers (bounded —
overflow is answered with a structured ``overloaded`` rejection, the
daemon never buffers unboundedly), and dispatches each cut batch as one
engine call on the worker's dedicated executor thread.  With
``shards=N`` the workers are forked processes, one engine each,
requests routed by :func:`~repro.serve.workers.shard_of` so a record's
repeat appearances hit the same shard's hot memo.

Lifecycle guarantees:

- a batch is scored by exactly one model version — ``swap`` ops are
  applied between batches on the same serial executor, and the swap
  builds a *new* model + engine (:class:`~repro.serve.scorer.MatchScorer`),
  so zero-downtime promotion can't mis-score in-flight work;
- a worker crash mid-batch (:class:`~repro.serve.workers.WorkerCrash`)
  respawns the worker and re-runs the batch, bounded by
  ``max_batch_retries`` — requests are requeued, not dropped;
- every malformed frame is answered with a structured error and the
  connection survives (oversized frames are answered, then the
  connection is closed because the stream can no longer be resynced).

Use :class:`ServerHandle` (or the ``repro serve`` CLI) to run the
server; tests and the load bench run it on a background thread against
an ephemeral port.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from collections import deque
from typing import Callable, Sequence

from repro import obs
from repro.ft.faults import FaultPlan, fault_point
from repro.nn.serialization import CheckpointError
from repro.runs import record_event
from repro.serve import protocol
from repro.serve.batcher import BatchQueue
from repro.serve.protocol import (
    E_INTERNAL,
    E_OVERLOADED,
    E_SWAP_FAILED,
    E_TOO_LARGE,
    ProtocolError,
    Request,
    ServeLimits,
    encode_response,
    error_response,
    match_response,
    parse_request,
)
from repro.serve.registry import resolve_weights
from repro.serve.scorer import MatchScorer
from repro.serve.slo import SloBreach, SloSpec
from repro.serve.workers import LocalWorker, ShardWorker, WorkerCrash, shard_of


@dataclass(frozen=True)
class ServeConfig:
    """Daemon tuning knobs (defaults favour interactive latency)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (reported by start())
    max_batch: int = 32                # pairs per engine call
    max_delay: float = 0.002           # seconds the oldest request may wait
    max_queue: int = 1024              # admission bound per worker
    shards: int = 0                    # 0 = in-process; N = forked workers
    max_batch_retries: int = 2         # re-runs after a worker crash
    limits: ServeLimits = field(default_factory=ServeLimits)
    runs_root: str | Path | None = None  # registry root for swap refs
    window_s: float = 30.0             # live-telemetry window (metrics op)
    slo: SloSpec | None = None         # evaluated every slo_interval
    slo_interval: float = 1.0          # seconds between SLO evaluations


@dataclass
class _Pending:
    """One admitted match request waiting for its batch."""

    request: Request
    arrival: float
    writer: asyncio.StreamWriter
    lock: asyncio.Lock
    trace_id: str = ""


class _WorkerState:
    """A worker plus its queue, wake signal, and serial executor."""

    def __init__(self, worker, queue: BatchQueue):
        self.worker = worker
        self.queue = queue
        self.wake = asyncio.Event()
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"serve-worker-{worker.index}")
        self.swaps: deque = deque()   # (state, ref, future) control jobs
        self.task: asyncio.Task | None = None


class MatchServer:
    """Micro-batching NDJSON matching daemon over a swappable scorer.

    Parameters
    ----------
    scorer_factory:
        Zero-argument callable building one :class:`MatchScorer`; called
        once per worker (each forked shard gets its own engine).
    config:
        :class:`ServeConfig`; ``config.shards`` picks local vs. forked.
    clock:
        Injectable monotonic clock shared with the batch queues.
    worker_fault_plan:
        Test hook: a :class:`FaultPlan` installed inside freshly forked
        shard workers (``serve.worker_batch`` site).  Respawned workers
        never inherit it.
    """

    def __init__(self, scorer_factory: Callable[[], MatchScorer],
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 worker_fault_plan: FaultPlan | None = None):
        self.config = config or ServeConfig()
        self.clock = clock
        self._scorer_factory = scorer_factory
        self._workers: list[_WorkerState] = []
        count = max(1, self.config.shards)
        for index in range(count):
            if self.config.shards > 0:
                worker = ShardWorker(scorer_factory, index=index,
                                     fault_plan=worker_fault_plan)
            else:
                worker = LocalWorker(scorer_factory(), index=index)
            queue = BatchQueue(max_batch=self.config.max_batch,
                               max_delay=self.config.max_delay,
                               max_queue=self.config.max_queue,
                               clock=clock)
            self._workers.append(_WorkerState(worker, queue))
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self.address: tuple[str, int] | None = None
        self.weights_ref = ""
        self._started = 0.0
        self._counts = {"received": 0, "completed": 0, "rejected": 0,
                        "errors": 0, "batches": 0, "batched_pairs": 0,
                        "swaps": 0, "retries": 0, "worker_restarts": 0,
                        "slo_breaches": 0}
        # Windowed live telemetry (the `metrics` op / `repro top` view):
        # requests/rejections/latency over the trailing config.window_s.
        window = self.config.window_s
        self._win_requests = obs.WindowedCounter(window, clock=clock)
        self._win_completed = obs.WindowedCounter(window, clock=clock)
        self._win_rejected = obs.WindowedCounter(window, clock=clock)
        self._win_restarts = obs.WindowedCounter(window, clock=clock)
        self._win_latency = obs.WindowedHistogram(window, clock=clock)
        self._slo_recent: deque[str] = deque(maxlen=32)
        self._slo_task: asyncio.Task | None = None
        self._trace_seq = 0   # server-assigned trace ids (traced, untagged)
        self._batch_seq = 0   # dispatch link ids for cross-process grafting

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop` (a ``shutdown``
        op flips this, which is how the CLI foreground loop exits)."""
        return self._server is not None

    async def start(self) -> tuple[str, int]:
        """Bind, start dispatch loops, and return ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.limits.max_line_bytes)
        self.address = self._server.sockets[0].getsockname()[:2]
        self._started = self.clock()
        for ws in self._workers:
            ws.task = asyncio.create_task(self._dispatch_loop(ws))
        if self.config.slo is not None:
            self._slo_task = asyncio.create_task(self._slo_loop())
        return self.address

    async def stop(self) -> None:
        """Stop accepting, cancel dispatch, close workers."""
        if self._slo_task is not None:
            self._slo_task.cancel()
            try:
                await self._slo_task
            except asyncio.CancelledError:
                pass
            self._slo_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        for ws in self._workers:
            if ws.task is not None:
                ws.task.cancel()
        for ws in self._workers:
            if ws.task is not None:
                try:
                    await ws.task
                except asyncio.CancelledError:
                    pass
                ws.task = None
        for ws in self._workers:
            ws.executor.shutdown(wait=False)
            ws.worker.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        lock = asyncio.Lock()
        limit = self.config.limits.max_line_bytes
        buffer = b""
        try:
            while True:
                # Bulk read + manual line split: one await per network
                # chunk instead of one readline() per request, which is
                # what keeps the event loop ahead of a pipelining client.
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buffer += chunk
                if b"\n" not in buffer:
                    if len(buffer) > limit:
                        # An unterminated frame past the limit can never
                        # be resynced: answer, then hang up.
                        await self._send(writer, lock, error_response(
                            E_TOO_LARGE,
                            f"request line exceeds {limit} bytes"))
                        return
                    continue
                lines = buffer.split(b"\n")
                buffer = lines.pop()
                if len(buffer) > limit:
                    await self._send(writer, lock, error_response(
                        E_TOO_LARGE,
                        f"request line exceeds {limit} bytes"))
                    return
                for line in lines:
                    if not line.strip():
                        continue
                    self._counts["received"] += 1
                    await self._handle_line(line, writer, lock)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    RuntimeError):
                pass

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        try:
            request = parse_request(line, self.config.limits)
        except ProtocolError as exc:
            self._counts["errors"] += 1
            await self._send(writer, lock,
                             exc.response(getattr(exc, "request_id", None)))
            return
        if request.op == "match":
            self._admit(request, writer, lock)
        elif request.op == "health":
            await self._send(writer, lock, self._health(request))
        elif request.op == "stats":
            await self._send(writer, lock, await self._stats_response(request))
        elif request.op == "metrics":
            await self._send(writer, lock, self._metrics_response(request))
        elif request.op == "swap":
            await self._swap(request, writer, lock)
        elif request.op == "shutdown":
            await self._send(writer, lock,
                             {"ok": True, "id": request.id}
                             if request.id is not None else {"ok": True})
            asyncio.create_task(self.stop())

    def _admit(self, request: Request, writer: asyncio.StreamWriter,
               lock: asyncio.Lock) -> None:
        if len(self._workers) == 1:
            ws = self._workers[0]
        else:
            ws = self._workers[shard_of(request.left, len(self._workers))]
        trace_id = request.trace
        if not trace_id and obs.enabled():
            # Traced service, untagged client: assign a server-side id so
            # the request is still reconstructable from the merged trace.
            self._trace_seq += 1
            trace_id = f"srv-{self._trace_seq}"
        pending = _Pending(request=request, arrival=self.clock(),
                           writer=writer, lock=lock, trace_id=trace_id)
        self._win_requests.inc()
        if not ws.queue.offer(pending, now=pending.arrival):
            self._counts["rejected"] += 1
            self._win_rejected.inc()
            if obs.enabled():
                obs.inc("serve.rejected")
            asyncio.ensure_future(self._send(writer, lock, error_response(
                E_OVERLOADED, "queue full; retry later", request.id)))
            return
        ws.wake.set()

    async def _send(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    response: dict) -> None:
        await self._send_frames(writer, lock, [encode_response(response)])

    async def _send_frames(self, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock,
                           frames: list[bytes]) -> None:
        """Write frames under the connection lock with a single drain —
        one syscall-ish flush per (connection, batch), not per response."""
        async with lock:
            try:
                writer.write(b"".join(frames))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # client went away; nothing to deliver

    # ------------------------------------------------------------------
    # Dispatch (one loop per worker)
    # ------------------------------------------------------------------
    async def _dispatch_loop(self, ws: _WorkerState) -> None:
        while True:
            while ws.swaps:
                await self._apply_swap(ws, *ws.swaps.popleft())
            batch, wait = ws.queue.cut(self.clock())
            if batch is None:
                try:
                    await asyncio.wait_for(ws.wake.wait(), timeout=wait)
                except asyncio.TimeoutError:
                    pass
                ws.wake.clear()
                continue
            await self._run_batch(ws, batch)

    async def _apply_swap(self, ws: _WorkerState, state, ref: str,
                          future: asyncio.Future) -> None:
        try:
            await self._loop.run_in_executor(
                ws.executor, ws.worker.swap, state, ref)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(None)

    async def _run_batch(self, ws: _WorkerState,
                         batch: Sequence[_Pending]) -> None:
        pairs = [p.request.pair() for p in batch]
        dispatch_start = self.clock()
        fault_point("serve.batch", batch)
        traced = obs.enabled()
        trace_ids = [p.trace_id for p in batch if p.trace_id] if traced else []
        results = None
        for attempt in range(self.config.max_batch_retries + 1):
            # Each dispatch attempt gets its own link id: the worker tags
            # its serve.batch span with `link`, the parent records a
            # serve.dispatch span with the matching `link_id`, and the
            # trace merger grafts the worker subtree under it.  A crashed
            # attempt leaves an error-status dispatch span with no child
            # (the worker died before its span could close), so a merged
            # trace shows the failed and the retried attempt side by side.
            meta = None
            if traced:
                self._batch_seq += 1
                meta = {"link": f"batch-{self._batch_seq}",
                        "trace_ids": trace_ids}
            attempt_start = self.clock()
            try:
                results = await self._loop.run_in_executor(
                    ws.executor, ws.worker.score_batch, pairs, meta)
                if traced:
                    obs.emit_span(
                        "serve.dispatch", wall=self.clock() - attempt_start,
                        attrs={"link_id": meta["link"],
                               "trace_ids": trace_ids, "attempt": attempt,
                               "worker": ws.worker.index,
                               "pairs": len(pairs)})
                break
            except WorkerCrash as crash:
                self._counts["retries"] += 1
                if traced:
                    obs.inc("serve.worker_restarts")
                    obs.emit_span(
                        "serve.dispatch", wall=self.clock() - attempt_start,
                        status="error",
                        attrs={"link_id": meta["link"],
                               "trace_ids": trace_ids, "attempt": attempt,
                               "worker": ws.worker.index,
                               "pairs": len(pairs), "crash": str(crash)})
                if attempt >= self.config.max_batch_retries:
                    break
                self._counts["worker_restarts"] += 1
                self._win_restarts.inc()
                await self._loop.run_in_executor(
                    ws.executor, ws.worker.restart)
            except Exception as exc:  # noqa: BLE001 - answered, not fatal
                await self._fail_batch(batch, f"scoring failed: {exc!r}")
                return
        if results is None:
            await self._fail_batch(
                batch, "worker crashed repeatedly; batch abandoned")
            return
        self._counts["batches"] += 1
        self._counts["batched_pairs"] += len(batch)
        scored_at = self.clock()
        now = scored_at
        if traced:
            obs.observe("serve.batch_size", len(batch),
                        bounds=obs.SIZE_BUCKETS)
            obs.observe("serve.batch_queue_wait_s",
                        dispatch_start - batch[0].arrival,
                        bounds=obs.TIME_BUCKETS)
            obs.gauge("serve.queue_depth", ws.queue.depth)
        by_connection: dict[int, tuple] = {}
        for pending, (prob, pred, quarantined) in zip(batch, results):
            latency = now - pending.arrival
            self._win_latency.observe(latency)
            if quarantined:
                self._counts["errors"] += 1
                response = error_response(
                    E_INTERNAL, "pair was quarantined by the engine",
                    pending.request.id)
            else:
                self._counts["completed"] += 1
                self._win_completed.inc()
                response = match_response(prob, bool(pred),
                                          pending.request.id,
                                          trace=pending.trace_id)
            if traced:
                obs.observe("serve.latency_s", latency,
                            bounds=obs.TIME_BUCKETS)
                obs.inc("serve.completed")
            key = id(pending.writer)
            entry = by_connection.get(key)
            if entry is None:
                by_connection[key] = (pending.writer, pending.lock,
                                      [encode_response(response)], [pending])
            else:
                entry[2].append(encode_response(response))
                entry[3].append(pending)
        for writer, lock, frames, members in by_connection.values():
            write_start = self.clock()
            await self._send_frames(writer, lock, frames)
            if traced:
                self._emit_request_spans(ws, members, dispatch_start,
                                         scored_at, write_start)

    def _emit_request_spans(self, ws: _WorkerState,
                            members: Sequence[_Pending],
                            dispatch_start: float, scored_at: float,
                            write_start: float) -> None:
        """Record each request's journey as a small span tree, post hoc.

        The stage boundaries (arrival → dispatch → scored → written) are
        only all known once the response bytes are out, so the spans are
        synthesized backwards from *now* with ``obs.emit_span``:
        ``serve.request`` wrapping ``serve.queue_wait`` /
        ``serve.score_wait`` / ``serve.write`` children, every one tagged
        with the request's trace id.
        """
        done = self.clock()
        for pending in members:
            tid = pending.trace_id
            root = obs.emit_span(
                "serve.request", wall=done - pending.arrival, trace_id=tid,
                attrs={"id": pending.request.id, "worker": ws.worker.index})
            obs.emit_span("serve.queue_wait",
                          wall=dispatch_start - pending.arrival,
                          ended_ago=done - dispatch_start,
                          parent=root, depth=1, trace_id=tid)
            obs.emit_span("serve.score_wait",
                          wall=scored_at - dispatch_start,
                          ended_ago=done - scored_at,
                          parent=root, depth=1, trace_id=tid)
            obs.emit_span("serve.write", wall=done - write_start,
                          parent=root, depth=1, trace_id=tid)

    async def _fail_batch(self, batch: Sequence[_Pending],
                          message: str) -> None:
        for pending in batch:
            self._counts["errors"] += 1
            await self._send(pending.writer, pending.lock, error_response(
                E_INTERNAL, message, pending.request.id))

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    async def _swap(self, request: Request, writer: asyncio.StreamWriter,
                    lock: asyncio.Lock) -> None:
        with obs.span("serve.swap", ref=request.ref):
            try:
                run_id, state = await self._loop.run_in_executor(
                    None, self._resolve_weights, request.ref)
            except (KeyError, CheckpointError, ValueError) as exc:
                self._counts["errors"] += 1
                await self._send(writer, lock, error_response(
                    E_SWAP_FAILED, str(exc), request.id))
                return
            futures = []
            for ws in self._workers:
                future: asyncio.Future = self._loop.create_future()
                ws.swaps.append((state, run_id, future))
                ws.wake.set()
                futures.append(future)
            done = await asyncio.gather(*futures, return_exceptions=True)
        failed = [repr(d) for d in done if isinstance(d, BaseException)]
        if failed:
            self._counts["errors"] += 1
            await self._send(writer, lock, error_response(
                E_SWAP_FAILED, "; ".join(failed), request.id))
            return
        self.weights_ref = run_id
        self._counts["swaps"] += 1
        if obs.enabled():
            obs.inc("serve.swaps")
        response: dict = {"swapped": run_id, "workers": len(self._workers)}
        if request.id is not None:
            response["id"] = request.id
        await self._send(writer, lock, response)

    def _resolve_weights(self, ref: str):
        return resolve_weights(ref, root=self.config.runs_root)

    def _health(self, request: Request) -> dict:
        response: dict = {
            "ok": True,
            "uptime_s": round(self.clock() - self._started, 3),
            "workers": len(self._workers),
            "sharded": self.config.shards > 0,
            "weights_ref": self.weights_ref,
            "queue_depth": sum(ws.queue.depth for ws in self._workers),
        }
        if request.id is not None:
            response["id"] = request.id
        return response

    async def _stats_response(self, request: Request) -> dict:
        """The ``stats`` op: lifetime stats + per-worker model descriptions.

        ``describe()`` crosses the worker pipe, and a shard mid-death
        raises :class:`WorkerCrash` — the op must *degrade*, never fail:
        a worker that cannot be described is reported as ``dead`` and
        everything else is still answered.
        """
        payload = self.stats()
        details = await asyncio.gather(
            *(self._describe_worker(ws) for ws in self._workers))
        for entry, detail in zip(payload["workers"], details):
            entry.update(detail)
        response = {"stats": payload}
        if request.id is not None:
            response["id"] = request.id
        return response

    async def _describe_worker(self, ws: _WorkerState) -> dict:
        if not ws.worker.alive():
            return {"status": "dead"}
        try:
            info = await self._loop.run_in_executor(
                ws.executor, ws.worker.describe)
        except WorkerCrash as exc:
            return {"status": "dead", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - stats must never fail
            return {"status": "dead", "error": repr(exc)}
        return {"status": "up", **info}

    def _metrics_response(self, request: Request) -> dict:
        response = {"metrics": self.metrics()}
        if request.id is not None:
            response["id"] = request.id
        return response

    def stats(self) -> dict:
        """Parent-side serving counters + latency percentiles.

        Counters and ``pairs_per_s`` cover the daemon's lifetime; the
        latency percentiles cover the trailing ``config.window_s``
        seconds (the same histogram as the ``window`` block).
        """
        elapsed = max(self.clock() - self._started, 1e-9)
        window = self.window_metrics()
        batches = self._counts["batches"]
        return {
            **self._counts,
            "uptime_s": elapsed,
            "pairs_per_s": self._counts["completed"] / elapsed,
            "mean_batch_size": (self._counts["batched_pairs"] / batches
                                if batches else 0.0),
            "latency_p50_ms": window["latency_p50_ms"],
            "latency_p99_ms": window["latency_p99_ms"],
            "weights_ref": self.weights_ref,
            "window": window,
            "slo": self._slo_status(),
            "workers": [
                {"index": ws.worker.index, "kind": ws.worker.kind,
                 "status": "up" if ws.worker.alive() else "dead",
                 "queue_depth": ws.queue.depth,
                 "peak_depth": ws.queue.peak_depth,
                 "offered": ws.queue.offered,
                 "rejected": ws.queue.rejected}
                for ws in self._workers
            ],
        }

    def window_metrics(self) -> dict:
        """Live telemetry over the trailing ``config.window_s`` seconds."""
        requests = self._win_requests.total()
        rejected = self._win_rejected.total()
        completed = self._win_completed.total()
        elapsed = max(min(self.config.window_s,
                          self.clock() - self._started), 1e-9)
        return {
            "window_s": self.config.window_s,
            "requests": requests,
            "completed": completed,
            "rejected": rejected,
            "rejection_rate": rejected / max(requests, 1),
            "pairs_per_s": completed / elapsed,
            "latency_p50_ms": self._win_latency.percentile(0.50) * 1e3,
            "latency_p99_ms": self._win_latency.percentile(0.99) * 1e3,
            "latency_mean_ms": self._win_latency.mean() * 1e3,
            "queue_depth": sum(ws.queue.depth for ws in self._workers),
            "worker_restarts": self._win_restarts.total(),
        }

    def metrics(self) -> dict:
        """The ``metrics`` op payload: the windowed view + worker health.

        Deliberately cheap — no worker pipe round-trips — so ``repro
        top`` can poll it every second without queueing behind batches.
        """
        return {
            "uptime_s": round(self.clock() - self._started, 3),
            "weights_ref": self.weights_ref,
            "window": self.window_metrics(),
            "workers": [
                {"index": ws.worker.index, "kind": ws.worker.kind,
                 "status": "up" if ws.worker.alive() else "dead",
                 "queue_depth": ws.queue.depth,
                 "rejected": ws.queue.rejected}
                for ws in self._workers
            ],
            "slo": self._slo_status(),
        }

    # ------------------------------------------------------------------
    # SLO monitoring
    # ------------------------------------------------------------------
    def _slo_status(self) -> dict:
        status: dict = {"breaches": self._counts["slo_breaches"],
                        "recent": list(self._slo_recent)}
        if self.config.slo is not None:
            status["spec"] = self.config.slo.to_dict()
        return status

    def check_slo(self) -> list[SloBreach]:
        """Evaluate the configured SLO spec against the current window.

        Each breach is counted, kept in the recent ring for ``stats``/
        ``metrics``, pushed to the run registry as an ``slo_breach``
        event (when a serve run is recording), and mirrored as an obs
        counter.  Called by the periodic monitor task; tests call it
        directly.
        """
        spec = self.config.slo
        if spec is None:
            return []
        breaches = spec.evaluate(self.window_metrics())
        for breach in breaches:
            self._counts["slo_breaches"] += 1
            self._slo_recent.append(breach.message())
            record_event("slo_breach", rule=breach.rule,
                         value=breach.value, limit=breach.limit,
                         t=round(self.clock() - self._started, 3))
            if obs.enabled():
                obs.inc(f"serve.slo_breach.{breach.rule}")
        return breaches

    async def _slo_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.slo_interval)
            self.check_slo()

    def final_metrics(self) -> dict:
        """Lifetime summary in the shape ``repro slo check`` audits.

        Counts and rates cover the daemon's lifetime; the latency
        percentiles cover the trailing ``config.window_s`` (see
        :meth:`stats`).  Written into the run manifest when ``repro
        serve --record`` seals the serve run (key names match
        :meth:`SloSpec.evaluate` with ``peak_depth=True``).
        """
        stats = self.stats()
        answered = (stats["completed"] + stats["rejected"] + stats["errors"])
        return {
            "requests": answered,
            "completed": stats["completed"],
            "rejected": stats["rejected"],
            "errors": stats["errors"],
            "rejection_rate": stats["rejected"] / max(answered, 1),
            "latency_p50_ms": stats["latency_p50_ms"],
            "latency_p99_ms": stats["latency_p99_ms"],
            "pairs_per_s": stats["pairs_per_s"],
            "mean_batch_size": stats["mean_batch_size"],
            "worker_restarts": self._counts["worker_restarts"],
            "peak_queue_depth": max(
                (ws.queue.peak_depth for ws in self._workers), default=0),
            "slo_breaches": self._counts["slo_breaches"],
            "swaps": stats["swaps"],
        }


class ServerHandle:
    """Run a :class:`MatchServer` on a dedicated background event loop.

    The standard embedding for tests and the load bench::

        with ServerHandle(server) as (host, port):
            client = ServeClient(host, port)
            ...

    ``stop()`` (or leaving the ``with`` block) shuts the daemon down and
    joins the thread.
    """

    def __init__(self, server: MatchServer):
        self.server = server
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._failure = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("serve daemon did not start in time")
        if self._failure is not None:
            raise self._failure
        assert self.server.address is not None
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
