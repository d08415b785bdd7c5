"""Throughput measurement (pairs per second) for Table 7.

``measure_throughput`` is the generic stopwatch; ``measure_engine_throughput``
points it at an :class:`~repro.engine.core.InferenceEngine` and also
reports the engine's own counters (padding waste, memo hit rates), which
is what the serving-side efficiency study compares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.data.loader import EncodedPair
    from repro.engine import InferenceEngine


@dataclass
class ThroughputResult:
    """Items processed per second, with the raw counters."""

    items: int
    seconds: float

    @property
    def items_per_second(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.items / self.seconds


def measure_throughput(step: Callable[[], int], min_seconds: float = 0.5,
                       min_items: int = 32) -> ThroughputResult:
    """Run ``step`` (returning the number of items it processed) until
    both thresholds are met, then report the aggregate rate.

    A single warm-up call is excluded from timing.
    """
    step()  # warm-up
    items = 0
    start = time.perf_counter()
    while True:
        items += step()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and items >= min_items:
            return ThroughputResult(items=items, seconds=elapsed)


def measure_engine_throughput(engine: "InferenceEngine",
                              encoded: Sequence["EncodedPair"],
                              min_seconds: float = 0.5) -> dict:
    """Scoring throughput of an inference engine over an encoded split.

    The warm-up pass populates the engine's memo caches, so the steady
    state measured here reflects serving behaviour on a repeating
    workload.  Returns the rate plus the engine's counters.
    """
    engine.reset_stats()
    result = measure_throughput(
        lambda: len(engine.score_encoded(encoded)["em_prob"]),
        min_seconds=min_seconds, min_items=len(encoded),
    )
    stats = engine.stats
    return {
        "pairs_per_second": result.items_per_second,
        "items": result.items,
        "seconds": result.seconds,
        "pad_waste_ratio": stats.pad_waste_ratio,
        "encode_hit_rate": stats.encode_hit_rate,
        "record_hit_rate": stats.record_hit_rate,
        "batches": stats.batches,
    }


def measure_cascade_throughput(scorer, encoded: Sequence["EncodedPair"],
                               min_seconds: float = 0.5) -> dict:
    """Scoring throughput of a :class:`~repro.engine.cascade.CascadeScorer`.

    Same protocol as :func:`measure_engine_throughput` — the warm-up pass
    fills both stages' memo caches — plus the cascade's routing counters.
    """
    scorer.reset_stats()
    result = measure_throughput(
        lambda: len(scorer.score_encoded(encoded)["em_prob"]),
        min_seconds=min_seconds, min_items=len(encoded),
    )
    stats = scorer.stats
    return {
        "pairs_per_second": result.items_per_second,
        "items": result.items,
        "seconds": result.seconds,
        "escalate_fraction": stats.escalate_fraction,
        "cheap_record_hit_rate": stats.cheap.record_hit_rate,
        "full_record_hit_rate": stats.full.record_hit_rate,
    }
