"""Declarative SLOs for the matching daemon + the ``repro top`` view.

An :class:`SloSpec` names the service-level objectives an operator cares
about — p99/p50 latency, rejection rate, queue depth, worker restarts —
as plain thresholds in a JSON file::

    {
      "p99_ms": 250.0,
      "rejection_rate": 0.05,
      "max_queue_depth": 512,
      "worker_restarts": 2,
      "min_requests": 20,
      "window_s": 30.0
    }

Two consumers:

- **live**: the daemon evaluates the spec against its windowed metrics
  (:meth:`SloSpec.evaluate`) on a timer; each breach increments the
  ``slo_breaches`` counter, lands in ``stats["slo"]["recent"]``, and —
  when the serve run is being recorded — emits an ``slo_breach`` event
  into the run registry so ``repro runs show`` and post-hoc tooling see
  exactly when the service was out of budget;
- **post-hoc**: ``repro slo check RUN --spec FILE`` replays the spec
  against a recorded serve run's final metrics and its ``slo_breach``
  events (:func:`check_run`) and exits nonzero on any violation — the
  CI gate in ``scripts/check.sh``.

Latency and rejection rules only fire once the window (or run) holds at
least ``min_requests`` completed requests, so an idle service is never
"in breach" of a percentile it has no samples for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class SloBreach:
    """One violated objective."""

    rule: str       # spec field name, e.g. "p99_ms"
    value: float    # what the service measured
    limit: float    # what the spec allows

    def message(self) -> str:
        return f"{self.rule}: {self.value:g} > limit {self.limit:g}"


@dataclass(frozen=True)
class SloSpec:
    """Service-level objectives; ``None`` disables a rule."""

    p99_ms: float | None = None          # windowed latency p99, milliseconds
    p50_ms: float | None = None          # windowed latency p50, milliseconds
    rejection_rate: float | None = None  # rejected / admitted+rejected, 0..1
    max_queue_depth: float | None = None  # live depth (peak depth post-hoc)
    worker_restarts: float | None = None  # respawns in window (total post-hoc)
    min_requests: int = 1                # samples before latency rules apply
    window_s: float = 30.0               # evaluation window (daemon side)

    @classmethod
    def from_dict(cls, payload: dict) -> "SloSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown SLO spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        return cls(**payload)

    @classmethod
    def load(cls, path: str | Path) -> "SloSpec":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: SLO spec must be a JSON object")
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    # ------------------------------------------------------------------
    def _rules(self, peak_depth: bool) -> list[tuple[str, str, float]]:
        """(rule, metric key, limit) for every enabled objective.

        ``max_queue_depth`` reads the live depth when evaluating a
        window and the recorded peak when checking a finished run.
        """
        depth_key = "peak_queue_depth" if peak_depth else "queue_depth"
        candidates = [
            ("p99_ms", "latency_p99_ms", self.p99_ms),
            ("p50_ms", "latency_p50_ms", self.p50_ms),
            ("rejection_rate", "rejection_rate", self.rejection_rate),
            ("max_queue_depth", depth_key, self.max_queue_depth),
            ("worker_restarts", "worker_restarts", self.worker_restarts),
        ]
        return [(rule, key, limit) for rule, key, limit in candidates
                if limit is not None]

    _SAMPLE_GATED = ("p99_ms", "p50_ms", "rejection_rate")

    def evaluate(self, window: dict, *,
                 peak_depth: bool = False) -> list[SloBreach]:
        """Compare a metrics dict against the spec; missing keys breach.

        ``window`` is the daemon's windowed-metrics payload (or a run's
        final metrics with ``peak_depth=True``).  A *set* objective whose
        metric the payload does not carry is itself a violation — an SLO
        that silently cannot be measured is worse than a breach.
        """
        completed = window.get("completed", window.get("requests", 0)) or 0
        breaches: list[SloBreach] = []
        for rule, key, limit in self._rules(peak_depth):
            if rule in self._SAMPLE_GATED and completed < self.min_requests:
                continue
            value = window.get(key)
            if value is None:
                breaches.append(SloBreach(rule=rule, value=float("nan"),
                                          limit=float(limit)))
                continue
            if float(value) > float(limit):
                breaches.append(SloBreach(rule=rule, value=float(value),
                                          limit=float(limit)))
        return breaches


def check_run(manifest: dict, spec: SloSpec,
              events: list[dict] | None = None) -> list[str]:
    """Post-hoc SLO audit of a recorded serve run; returns violations.

    Checks the run's final metrics against the spec (peak queue depth,
    lifetime rates, trailing-window latency percentiles) and surfaces any
    live ``slo_breach`` events the daemon logged while the run was
    recording.
    """
    metrics = manifest.get("metrics", {}) or {}
    metric_key = {rule: key for rule, key, _ in spec._rules(peak_depth=True)}
    violations: list[str] = []
    for breach in spec.evaluate(metrics, peak_depth=True):
        if breach.value != breach.value:  # NaN: the metric was never recorded
            violations.append(
                f"{breach.rule}: run recorded no "
                f"'{metric_key[breach.rule]}' metric "
                f"(limit {breach.limit:g} cannot be verified)")
        else:
            violations.append(breach.message())
    live = [e for e in (events or [])
            if e.get("name") == "slo_breach" or e.get("event") == "slo_breach"]
    if live:
        by_rule: dict[str, int] = {}
        for event in live:
            rule = str(event.get("rule", "?"))
            by_rule[rule] = by_rule.get(rule, 0) + 1
        detail = ", ".join(f"{rule} x{count}"
                           for rule, count in sorted(by_rule.items()))
        violations.append(
            f"{len(live)} live slo_breach event(s) during the run ({detail})")
    return violations


def render_top(payload: dict) -> str:
    """One ``repro top`` frame from a ``metrics`` op payload."""
    window = payload.get("window", payload)
    lines = [
        f"repro top — uptime {payload.get('uptime_s', 0.0):8.1f}s   "
        f"weights={payload.get('weights_ref') or '(initial)'}   "
        f"window={window.get('window_s', 0.0):g}s",
        "",
        f"  requests {window.get('requests', 0):>8.0f}   "
        f"completed {window.get('completed', 0):>8.0f}   "
        f"rejected {window.get('rejected', 0):>6.0f}   "
        f"reject-rate {window.get('rejection_rate', 0.0) * 100:6.2f}%",
        f"  pairs/s  {window.get('pairs_per_s', 0.0):>8.1f}   "
        f"p50 {window.get('latency_p50_ms', 0.0):>8.2f}ms   "
        f"p99 {window.get('latency_p99_ms', 0.0):>8.2f}ms",
        f"  queue depth {window.get('queue_depth', 0):>5.0f}   "
        f"worker restarts {window.get('worker_restarts', 0):>3.0f}",
    ]
    workers = payload.get("workers", [])
    if workers:
        lines.append("")
        for entry in workers:
            status = entry.get("status", "up")
            lines.append(
                f"  worker {entry.get('index', '?'):>2} "
                f"[{entry.get('kind', '?'):<5}] {status:<5} "
                f"depth={entry.get('queue_depth', 0):<4.0f} "
                f"rejected={entry.get('rejected', 0):<4.0f}")
    slo = payload.get("slo")
    if slo:
        total = slo.get("breaches", 0)
        lines.append("")
        lines.append(f"  slo breaches: {total:.0f}"
                     + (f"  last: {slo['recent'][-1]}" if slo.get("recent")
                        else ""))
    return "\n".join(lines)
