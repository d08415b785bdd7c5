"""Shared plumbing of the benchmark: hermetic run directories, timing
statistics, set-up probes and the result line.

Every path the benchmark touches lives under ``<checkout>/.perfbench_tmp``
(deleted after each run) or, for the spans a traced run writes out,
``<checkout>/.perfbench_spans``, so a run reads and writes only inside its
checkout.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
# A traced run leaves its spans here, one file per workload.
SPANS_DIR = ROOT / ".perfbench_spans"

# Set-up is sampled this many times per untraced run; the median is reported.
SETUP_SAMPLES = 3
# A set-up probe that has not printed its ready line by then has failed.
SETUP_TIMEOUT_S = 60.0
# Settings a caller's environment must not leak into a run.
_SCRUBBED = ("REPRO_TRACE", "REPRO_VERIFY", "REPRO_PROFILE")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output: no result is printed)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrubbed_env(cache_dir: Path, runs_dir: Path) -> dict:
    """Child environment: the run's own caches, no inherited tracing."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_RUNS_DIR"] = str(runs_dir)
    env["TMPDIR"] = str(cache_dir.parent)
    env["PYTHONPATH"] = str(SRC)
    return env


class RunDir:
    """A fresh directory per run; every cache and journal goes inside it."""

    def __init__(self, workload: str):
        TMP_ROOT.mkdir(exist_ok=True)
        self.path = TMP_ROOT / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()
        self._count = 0

    def fresh(self, label: str) -> Path:
        """A new empty subdirectory (one per cold build, WAL, ...)."""
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return path

    def use_in_process(self, cache_dir: Path) -> None:
        """Point this process's program caches at ``cache_dir``."""
        for name in _SCRUBBED:
            os.environ.pop(name, None)
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        os.environ["REPRO_RUNS_DIR"] = str(self.path / "runs")
        os.environ["TMPDIR"] = str(self.path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def spans_path(workload: str) -> Path:
    """The file a traced run of ``workload`` writes its spans to,
    replacing the previous run's."""
    SPANS_DIR.mkdir(exist_ok=True)
    return SPANS_DIR / f"{workload}.jsonl"


def wait_for_line(proc: subprocess.Popen, prefix: str,
                  timeout: float) -> tuple[str, float]:
    """Read ``proc`` stdout until a line starting with ``prefix``.

    Returns the line and the ``perf_counter`` time it arrived.  A child
    still silent after ``timeout`` seconds is killed, which ends the read;
    either way without the line raises :class:`BenchError`.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith(prefix):
                return line.strip(), time.perf_counter()
    finally:
        timer.cancel()
    raise BenchError(f"child exited ({proc.wait()}) without printing "
                     f"{prefix!r} within {timeout}s")


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate (then kill) a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def time_setup_probe(workload: str, env: dict) -> float:
    """Seconds from spawning a cold probe process to its ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        _, ready = wait_for_line(proc, "ready", SETUP_TIMEOUT_S)
        if proc.wait(SETUP_TIMEOUT_S) != 0:
            raise BenchError(f"{workload} set-up probe failed")
    finally:
        stop_process(proc)
    return ready - start


class SetupSampler:
    """Cold set-up samples of one in-process workload, taken one at a time.

    Each :meth:`sample` times a probe process on a fresh cache directory;
    :attr:`first_cache` is the first probe's warm cache, which the
    measuring process then reuses (pre-trained encoder weights).
    """

    def __init__(self, workload: str, run_dir: RunDir):
        self.workload = workload
        self.run_dir = run_dir
        self.samples: list[float] = []
        self.first_cache: Path | None = None

    def sample(self) -> None:
        cache = self.run_dir.fresh("cache")
        env = scrubbed_env(cache, self.run_dir.path / "runs")
        self.samples.append(time_setup_probe(self.workload, env))
        if self.first_cache is None:
            self.first_cache = cache

    def median(self) -> float:
        return statistics.median(self.samples)


def run_slices(seconds: float, step, gaps=()) -> list:
    """Call ``step()`` over ``seconds`` of measuring time; return its results.

    The time is cut into ``len(gaps) + 1`` equal slices with each callable
    of ``gaps`` run between two of them, so a run's measurements spread
    over its whole wall time (set-up samples included) instead of one
    stretch of it: on a shared host whose speed drifts over tens of
    seconds, that makes a run's median less dependent on when it ran.
    Every slice runs ``step`` at least once.
    """
    results = []
    for gap in (None, *gaps):
        if gap is not None:
            gap()
        deadline = time.perf_counter() + seconds / (len(gaps) + 1)
        first = len(results)
        while len(results) == first or time.perf_counter() < deadline:
            results.append(step())
    return results


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated between the nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rss_peak_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
