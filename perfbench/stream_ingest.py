"""stream-ingest: WDC offers through the durable streaming pipeline.

Pre-built offers (96 hashes / 8 bands) go through ``StreamPipeline``
into a fresh WAL directory, scored by a fresh fastText EMBA
``InferenceEngine``.  MinHash signatures take the largest self time;
the WAL, snapshots, index inserts and scoring come next, text
normalization after them; no BERT runs.  Records arrive cold, so this
is the workload that runs the engine's fastText span memo.
"""

from __future__ import annotations

import time
from statistics import median

from common import run_slices

OFFERS_PER_PASS = 4000
OFFERS_PER_PRODUCT = 8
BATCH_SIZE = 32
# Passes cycle through this many seeded arrival orders.  A pass's cost
# depends on the order (from 0.92 to 1.06 of the median over six seeds,
# each timed interleaved with the others), so one order per run would
# make the seed a large part of the run-to-run spread.
ORDERS = 4
# Max |Δprob| between two orders: a different order batches the pairs
# differently, which moves float32 scores in the last bits.
TOLERANCE = 1e-6


def stream_config():
    from repro.stream import StreamConfig

    return StreamConfig(threshold=0.5, score_batch=64, sync_every=512,
                        snapshot_every=4000, num_hashes=96, bands=8, seed=0)


def build_inputs(seed: int) -> list:
    """A fixed offer corpus in :data:`ORDERS` seeded arrival orders,
    materialized so the generator is never timed.  Every order ingests
    the same offers, so the candidate pairs are the same too."""
    import numpy as np
    from repro.data.generators.wdc import wdc_offer_stream

    offers = list(wdc_offer_stream("computers", OFFERS_PER_PASS, seed=0,
                                   offers_per_product=OFFERS_PER_PRODUCT))
    rng = np.random.default_rng(seed)
    return [[offers[i] for i in rng.permutation(len(offers))]
            for _ in range(ORDERS)]


def _pass(state, offers, wal_dir) -> tuple[float, dict]:
    """One timed pass; returns its time and the checked outcome."""
    from repro.engine import EngineConfig, InferenceEngine
    from repro.stream import StreamPipeline

    start = time.perf_counter()
    engine = InferenceEngine(state.model, state.encoder,
                             EngineConfig(batch_size=BATCH_SIZE))
    pipeline = StreamPipeline(wal_dir, engine, stream_config())
    pipeline.extend(offers)
    pipeline.flush()
    elapsed = time.perf_counter() - start
    pipeline.close()
    return elapsed, _outcome(pipeline, engine)


def _outcome(pipeline, engine) -> dict:
    """Exactly-once emission and batch-resolver parity for one pass."""
    from repro.resolution import resolve_clusters

    stats = pipeline.stats()
    edges = pipeline.scored_edges
    batch = resolve_clusters(sorted(pipeline.records),
                             [(a, b, p) for (a, b), p in edges.items()],
                             threshold=pipeline.config.threshold)
    ok = (stats["pending"] == 0
          and stats["candidates"] == pipeline.index.emitted_count
          and stats["scored"] == stats["candidates"] == len(edges)
          and pipeline.resolution().clusters == batch.clusters)
    return {"ok": ok, "edges": edges, "records": stats["records"],
            "candidates": stats["candidates"], "scored": stats["scored"],
            "syncs": pipeline.wal.stats.syncs,
            "quarantined": engine.stats.quarantined}


class _Outcomes:
    """Pass outcomes; only the first pass of each order keeps its scored
    edges, the others are compared with them as they finish (steady
    memory).  Passes of one order must score bitwise alike; every order
    must score the same pairs, within :data:`TOLERANCE`."""

    def __init__(self):
        self.passes: list[dict] = []
        self._edges: dict[int, dict] = {}

    def add(self, order: int, outcome: dict) -> None:
        edges = outcome.pop("edges")
        first = self._edges.setdefault(order, edges)
        reference = next(iter(self._edges.values()))
        outcome["ok"] = (outcome["ok"] and edges == first
                         and edges.keys() == reference.keys()
                         and all(abs(p - reference[pair]) <= TOLERANCE
                                 for pair, p in edges.items()))
        self.passes.append(outcome)

    def totals(self) -> dict:
        return {
            "correct": all(o["ok"] for o in self.passes),
            "attempted": sum(o["records"] + o["scored"] for o in self.passes),
            "failed": sum(o["quarantined"] for o in self.passes),
        }


def measure(state, orders, seconds: float, run_dir, gaps=()) -> dict:
    """Passes over ``seconds``, each taking the next arrival order."""
    times, outcomes = [], _Outcomes()

    def step() -> None:
        order = len(times) % len(orders)
        elapsed, outcome = _pass(state, orders[order], run_dir.fresh("wal"))
        times.append(elapsed)
        outcomes.add(order, outcome)

    run_slices(seconds, step, gaps)
    return {
        **outcomes.totals(),
        "throughput_per_s": OFFERS_PER_PASS / median(times),
    }


def traced(state, orders, seconds: float, tracer, run_dir) -> dict:
    """Untraced and traced passes (fixed work); each untraced pass and
    the traced pass after it take the same arrival order."""
    passes = max(1, round(seconds / 4))
    calls = []

    def step() -> tuple:
        order = len(calls) // 2 % len(orders)
        calls.append(order)
        return order, _pass(state, orders[order], run_dir.fresh("wal"))

    plain, spans = tracer.alternate(step, passes)
    outcomes = _Outcomes()
    for order, (_, outcome) in plain + spans:
        outcomes.add(order, outcome)
    plain_s = [t for _, (t, _) in plain]
    traced_s = [t for _, (t, _) in spans]
    traced_outcomes = [o for _, (_, o) in spans]
    return {
        **outcomes.totals(),
        "traced_s": sum(traced_s),
        "overhead": median(traced_s) / median(plain_s),
        "layers": {
            "stream.candidates_per_record": (
                sum(o["candidates"] for o in traced_outcomes)
                / sum(o["records"] for o in traced_outcomes)),
            "stream.wal_syncs": float(sum(o["syncs"] for o in traced_outcomes)),
        },
    }
