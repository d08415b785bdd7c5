"""serve-open: single-pair ``match`` requests against ``repro serve``.

The daemon serves the late-interaction EMBA (``emba_dual_sb``) in
process (``--shards 0``).  Requests replay the whole blocking candidate
list in a seeded order, so catalog-side records recur in the record
memo.  After a short closed-loop warm-up that fills the memo, one client
process drives two kinds of phase:

- a closed loop: a fixed window of outstanding requests on one
  connection; requests completed per CPU-second the daemon used meanwhile
  is the capacity (the end-to-end metric), and requests completed per
  second of wall time the wall-clock capacity (a per-layer number);
- an open loop (traced runs only): seeded Poisson arrivals at a fixed
  rate of about half the traced daemon's capacity, each request timed
  from its due time, so a stall also delays the requests queued behind
  it.  Its latency is a per-layer number: on a shared 2-core VM the
  open-loop p50 moved by 0.2-0.4 of its median between runs, more than
  any bound can allow.

Capacity is counted per CPU-second because the daemon's wall-clock rate
on a shared 2-core VM depends on how much of a core the host lets it have:
its event loop and scoring thread hand the interpreter lock back and forth
across the two cores, and the daemon's CPU share in the closed loop
swung between 0.73 and 1.0 from one 3 s slice to the next.  Over the same
slices the wall-clock capacity spread by 0.16 of its median (IQR), the
per-CPU-second capacity by 0.07, about as much as a single-threaded
in-process workload.

Forked shards are left out: on a 2-core host three processes share two
cores and p99 swings by a factor of three between runs.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import (
    BENCH_DIR,
    ROOT,
    SETUP_SAMPLES,
    SETUP_TIMEOUT_S,
    BenchError,
    log,
    percentile,
    scrubbed_env,
    stop_process,
    wait_for_line,
)
from serve_daemon import BEGIN_SIGNAL, MEASURING

# Requests/s in the open loop: about a third of the untraced daemon's
# wall-clock capacity and half of the traced one's.  At 1200/s the traced
# daemon fell behind in a slow spell of the host (capacity then drops to
# about 0.6 of the usual) and 618 of one run's requests failed.
OPEN_RATE = 800.0
WINDOW = 64               # outstanding requests in the closed loop
WARMUP_S = 1.0            # closed-loop traffic before anything is timed
SETTLE_S = 0.25           # closed-loop ramp-up left out of the wall rate
# Wall-clock capacity is the median completion rate over windows of this
# length, so one scheduling stall moves it by one window only.
RATE_WINDOW_S = 0.5
REPLY_TIMEOUT_S = 20.0

SERVE_ARGS = ["serve", "--dataset", "wdc_computers", "--size", "small",
              "--model", "emba_dual_sb", "--shards", "0",
              "--host", "127.0.0.1", "--port", "0"]
_BANNER = re.compile(r" on ([0-9.]+):(\d+)")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Inputs:
    """Request bodies, the open-loop schedule and prebuilt frames.

    Request ``id`` replays pool entry ``id`` mod the pool size.  The
    closed loops cycle through :attr:`ring`, one frame per pool entry
    (ids ``0 .. len(pool) - 1``), each starting where the previous one
    stopped, so they never run out of frames however fast the daemon
    answers.  An id comes round again only after a whole pool of
    requests, far more than the ``WINDOW`` outstanding at once, so every
    reply still names one request.  The open loop's frames take the ids
    after the ring.
    """

    def __init__(self, seed: int, open_s: float, closed_s: float):
        from repro.engine.profile import build_blocking_workload

        candidates = build_blocking_workload("wdc_computers", "small",
                                             max_pairs=10**9)
        rng = np.random.default_rng(seed)
        self.pool = [candidates[i] for i in rng.permutation(len(candidates))]
        self.bodies = [
            json.dumps({"op": "match",
                        "left": dict(p.record1.attributes),
                        "right": dict(p.record2.attributes)})[:-1]
            for p in self.pool]
        if len(self.bodies) <= WINDOW:
            raise BenchError("candidate pool smaller than the request window")
        self.ring = [self.frame(i) for i in range(len(self.bodies))]
        self.cursor = 0   # ring position where the next closed loop starts
        count = int(OPEN_RATE * open_s * 1.5) + 16
        due = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=count))
        due = due[due < open_s].tolist()
        first = len(self.ring)
        self.open = (first, [self.frame(first + i) for i in range(len(due))],
                     due)
        self.closed_s = closed_s

    def frame(self, request_id: int) -> bytes:
        """Request ``request_id`` replays candidate ``id`` mod the pool size."""
        body = self.bodies[request_id % len(self.bodies)]
        return f'{body},"id":{request_id}}}\n'.encode("utf-8")


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, cache_dir: Path, runs_dir: Path, report: Path,
                 trace_dir: Path | None = None):
        cmd = [sys.executable, str(BENCH_DIR / "serve_daemon.py"),
               "--report", str(report)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self.trace_dir = trace_dir
        self.cache_dir = cache_dir
        self.report_path = report
        # The daemon's stderr (shutdown noise included) goes to a log
        # beside its report; it is shown only if the daemon fails.
        self.log_path = report.with_suffix(".log")
        start = time.perf_counter()
        with open(self.log_path, "w") as log_file:
            self.proc = subprocess.Popen(
                cmd + SERVE_ARGS, stdout=subprocess.PIPE, stderr=log_file,
                text=True, env=scrubbed_env(cache_dir, runs_dir),
                cwd=str(ROOT))
        try:
            banner, ready = wait_for_line(self.proc, "serving ",
                                          SETUP_TIMEOUT_S)
        except BaseException:
            stop_process(self.proc)
            log(self.log_path.read_text()[-4000:])
            raise
        self.setup_s = ready - start
        host, port = _BANNER.search(banner).groups()
        self.address = (host, int(port))
        # Keep draining stdout so the daemon never blocks on a full pipe.
        self._drain = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drain.start()

    def _drain_stdout(self) -> None:
        for _ in self.proc.stdout:
            pass

    def begin_measurement(self) -> None:
        """Tell a traced daemon the warm-up is over, so that its spans and
        its own trace cover only what is measured; wait until it has."""
        if self.trace_dir is None:
            return
        self.proc.send_signal(BEGIN_SIGNAL)
        flag = self.trace_dir / MEASURING
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while not flag.exists():
            if time.perf_counter() > deadline:
                raise BenchError("the traced daemon did not start measuring")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        """CPU time the daemon has used so far, all its threads together."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def request(self, payload: dict) -> dict:
        with socket.create_connection(self.address, timeout=10) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            return json.loads(sock.makefile("rb").readline())

    def shutdown(self) -> dict:
        """Stop the daemon, wait for it, and return the launcher's report."""
        try:
            self.request({"op": "shutdown"})
            self.proc.wait(REPLY_TIMEOUT_S)
        finally:
            stop_process(self.proc)
            self._drain.join(REPLY_TIMEOUT_S)
        if self.proc.returncode != 0:
            log(self.log_path.read_text()[-4000:])
            raise BenchError(f"daemon exited with {self.proc.returncode}")
        return json.loads(self.report_path.read_text())


def start_daemon(run_dir, trace_dir=None) -> Daemon:
    """Start a daemon cold, on a fresh cache directory."""
    cache = run_dir.fresh("cache")
    return Daemon(cache, run_dir.path / "runs",
                  run_dir.path / f"{cache.name}.json", trace_dir)


def measure_capacity(run_dir, inputs: Inputs) -> dict:
    """Start :data:`SETUP_SAMPLES` daemons one after another, each cold,
    and drive each through a warm-up and a closed loop before stopping it.

    Spreading the closed loops over the daemons spreads them over the
    run's whole wall time.  Returns every phase (for :func:`tally`), the
    median set-up time, the median of the daemons' per-CPU-second
    capacities, the median peak RSS and the last daemon's cache directory.
    """
    phases, setups, capacities, rss = [], [], [], []
    for _ in range(SETUP_SAMPLES):
        daemon = start_daemon(run_dir)
        setups.append(daemon.setup_s)
        try:
            daemon_phases, result = measure(daemon, inputs,
                                            open_loop_too=False)
        finally:
            report = daemon.shutdown()
        phases += daemon_phases
        capacities.append(result["cpu_capacity"])
        log(f"daemon {len(setups)}: set-up {daemon.setup_s:.2f} s, "
            f"{result['cpu_capacity']:.0f} pairs per CPU-second, "
            f"{result['capacity']:.0f} pairs/s wall")
        rss.append(report["rss_peak_mb"])
    return {"phases": phases, "setup_s": median(setups),
            "cpu_capacity": median(capacities), "rss_peak_mb": median(rss),
            "cache_dir": daemon.cache_dir}


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class _Connection:
    """One non-blocking connection driven from a single thread.

    The load generator is one thread on purpose: on a 2-core host a
    separate reader thread competes with the sender for the interpreter
    lock and for a core, and the sender then falls behind its schedule.
    """

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.replies: list[tuple[float, dict]] = []   # (arrival, reply)
        self._buffer = b""
        self._out = b""

    def send(self, frame: bytes) -> None:
        self._out += frame
        self.flush()

    def flush(self) -> None:
        while self._out:
            try:
                sent = self.sock.send(self._out)
            except BlockingIOError:
                return
            self._out = self._out[sent:]

    def poll(self, timeout: float) -> list[float]:
        """Wait up to ``timeout`` for replies; returns their arrival times."""
        writers = [self.sock] if self._out else []
        readable, writable, _ = select.select([self.sock], writers, [],
                                              max(0.0, timeout))
        if writable:
            self.flush()
        if not readable:
            return []
        chunk = self.sock.recv(1 << 16)
        now = time.perf_counter()
        if not chunk:
            raise BenchError("daemon closed the connection")
        lines = (self._buffer + chunk).split(b"\n")
        self._buffer = lines.pop()
        arrived = []
        for line in lines:
            reply = json.loads(line)
            self.replies.append((now, reply))
            arrived.append(now)
        return arrived

    def close(self) -> None:
        self.sock.close()


def open_loop(address, batch: tuple[int, list[bytes], list[float]]) -> dict:
    """Send on the Poisson schedule ``due`` regardless of replies."""
    first, frames, due = batch
    conn = _Connection(address)
    sent = [0.0] * len(frames)
    origin = time.perf_counter() + 0.01
    deadline = origin + due[-1] + REPLY_TIMEOUT_S
    try:
        index = 0
        while len(conn.replies) < len(frames):
            now = time.perf_counter()
            if now > deadline:
                break
            while index < len(frames) and origin + due[index] <= now:
                sent[index] = time.perf_counter()
                conn.send(frames[index])
                index += 1
            wait = (origin + due[index] - now if index < len(frames)
                    else deadline - now)
            conn.poll(wait)
    finally:
        wall = time.perf_counter() - origin
        conn.close()
    by_id = {reply.get("id"): (at, reply) for at, reply in conn.replies}
    latencies, late = [], []
    for i in range(len(frames)):
        late.append(sent[i] - (origin + due[i]))
        got = by_id.get(first + i)
        if got is not None and "error" not in got[1]:
            latencies.append(got[0] - (origin + due[i]))
    if len(latencies) < 1000:
        raise BenchError("the open loop got too few replies to measure")
    return {"replies": conn.replies, "sent": len(frames), "late": late, "wall": wall, "p50": median(latencies),
            "p90": percentile(latencies, 90)}


def closed_loop(address, inputs: Inputs, seconds: float) -> dict:
    """Keep ``WINDOW`` requests outstanding on one connection for
    ``seconds``, cycling through the ring; returns the completion rate of
    each whole ``RATE_WINDOW_S`` window after ``SETTLE_S``."""
    ring, origin = inputs.ring, inputs.cursor
    conn = _Connection(address)
    done_at: list[float] = []
    start = time.perf_counter()
    stop, deadline = start + seconds, start + seconds + REPLY_TIMEOUT_S
    issued = 0
    try:
        for issued in range(1, WINDOW + 1):
            conn.send(ring[(origin + issued - 1) % len(ring)])
        while len(conn.replies) < issued and time.perf_counter() < deadline:
            for now in conn.poll(0.05):
                done_at.append(now)
                if now < stop:
                    conn.send(ring[(origin + issued) % len(ring)])
                    issued += 1
    finally:
        wall = time.perf_counter() - start
        inputs.cursor = (origin + issued) % len(ring)
        conn.close()
    rates = []
    edge = start + SETTLE_S
    while edge + RATE_WINDOW_S <= stop:
        window = [t for t in done_at if edge <= t < edge + RATE_WINDOW_S]
        if len(window) > 1:
            rates.append((len(window) - 1) / (window[-1] - window[0]))
        edge += RATE_WINDOW_S
    return {"replies": conn.replies, "sent": issued, "wall": wall,
            "rates": rates}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def direct_scores(inputs: Inputs) -> list[float]:
    """The pool scored in process by the engine the daemon builds."""
    from repro.engine import EngineConfig, InferenceEngine
    from repro.serve.protocol import parse_request

    import programs

    state = programs.scoring(programs.SERVE_MODEL)
    pairs = [parse_request(inputs.frame(i)).pair()
             for i in range(len(inputs.pool))]
    engine = InferenceEngine(state.model, state.encoder,
                             EngineConfig(batch_size=32, threshold=0.5))
    return [float(p) for p in engine.score_pairs(pairs)["em_prob"]]


def tally(phases, direct: list[float]) -> tuple[bool, int, int]:
    """(every served score bitwise equal to direct, attempted, failed).

    A request fails when its reply is an error or never came.
    """
    attempted = failed = mismatched = 0
    for phase in phases:
        answered = 0
        for _, reply in phase["replies"]:
            if "error" in reply:
                continue
            answered += 1
            if reply["score"] != direct[reply["id"] % len(direct)]:
                mismatched += 1
        attempted += phase["sent"]
        failed += phase["sent"] - answered
    return mismatched == 0 and attempted > failed, attempted, failed


def measure(daemon, inputs: Inputs, open_loop_too: bool) -> tuple[list, dict]:
    """Warm-up, the open loop if asked, then the closed loop.

    Returns every phase (for :func:`tally`) and the measured numbers;
    ``wall`` is the time of the phases after the warm-up.
    """
    inputs.cursor = 0   # every daemon sees the same request sequence
    phases = [closed_loop(daemon.address, inputs, WARMUP_S)]
    daemon.begin_measurement()
    result = {}
    if open_loop_too:
        opened = open_loop(daemon.address, inputs.open)
        phases.append(opened)
        result.update(p50=opened["p50"], p90=opened["p90"],
                      late_p99=percentile(opened["late"], 99),
                      late_max=max(opened["late"]), wall=opened["wall"])
    cpu_start = daemon.cpu_seconds()
    closed = closed_loop(daemon.address, inputs, inputs.closed_s)
    cpu_s = daemon.cpu_seconds() - cpu_start
    phases.append(closed)
    if not closed["rates"] or cpu_s <= 0:
        raise BenchError("the closed loop completed too little to measure")
    result["capacity"] = median(closed["rates"])
    result["cpu_capacity"] = len(closed["replies"]) / cpu_s
    result["wall"] = result.get("wall", 0.0) + closed["wall"]
    return phases, result
