"""score-blocked: an offline dedup job scored by the EMBA cross-encoder.

Token-blocking candidates over WDC computers records are cut down to a
block of seeded left and right records, so each record recurs in
dozens of pairs.  A pass scores the block through a fresh
``InferenceEngine``, as a batch job would; the BERT/nn forward does most
of the work, and text and memo costs are small.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from common import BenchError, run_slices

PASS_PAIRS = 480          # candidate pairs scored per pass
MIN_RECORDS = 16          # records per side the block starts from
BATCH_SIZE = 32
TOLERANCE = 1e-6          # max |engine - naive| probability difference


def build_inputs(seed: int) -> list:
    """``PASS_PAIRS`` candidates among seeded subsets of the records."""
    from repro.engine.profile import build_blocking_workload

    candidates = build_blocking_workload("wdc_computers", "small",
                                         max_pairs=10**9)
    lefts = sorted({p.record1 for p in candidates}, key=repr)
    rights = sorted({p.record2 for p in candidates}, key=repr)
    rng = np.random.default_rng(seed)
    left_order = [lefts[i] for i in rng.permutation(len(lefts))]
    right_order = [rights[i] for i in rng.permutation(len(rights))]
    for count in range(MIN_RECORDS, max(len(lefts), len(rights)) + 1):
        chosen_left = set(left_order[:count])
        chosen_right = set(right_order[:count])
        block = [p for p in candidates
                 if p.record1 in chosen_left and p.record2 in chosen_right]
        if len(block) >= PASS_PAIRS:
            picked = rng.permutation(len(block))[:PASS_PAIRS]
            return [block[i] for i in picked]
    raise BenchError("blocking produced too few candidates")


def _pass(state, pairs) -> tuple[float, np.ndarray, int]:
    from repro.engine import EngineConfig, InferenceEngine

    start = time.perf_counter()
    engine = InferenceEngine(state.model, state.encoder,
                             EngineConfig(batch_size=BATCH_SIZE))
    out = engine.score_pairs(pairs)
    elapsed = time.perf_counter() - start
    return elapsed, out["em_prob"], int(out["quarantined"].sum())


def _check(state, pairs, outputs) -> bool:
    """Every pass is bitwise equal to the first, which matches the naive loop."""
    from repro.engine.profile import naive_score

    naive = naive_score(state.model, state.encoder, pairs, BATCH_SIZE)
    first = outputs[0]
    same = all(np.array_equal(first, other) for other in outputs[1:])
    return same and float(np.abs(first - naive).max()) <= TOLERANCE


def measure(state, pairs, seconds: float, run_dir, gaps=()) -> dict:
    passes = run_slices(seconds, lambda: _pass(state, pairs), gaps)
    return {
        "correct": _check(state, pairs, [p[1] for p in passes]),
        "attempted": len(passes) * len(pairs),
        "failed": sum(p[2] for p in passes),
        "throughput_per_s": len(pairs) / median(p[0] for p in passes),
    }


def traced(state, pairs, seconds: float, tracer, run_dir) -> dict:
    """Untraced and traced passes over the same block (fixed work)."""
    passes = max(1, round(seconds / 3))
    plain, spans = tracer.alternate(lambda: _pass(state, pairs), passes)
    outputs = [p[1] for p in plain + spans]
    return {
        "correct": _check(state, pairs, outputs),
        "attempted": 2 * passes * len(pairs),
        "failed": sum(p[2] for p in plain + spans),
        "traced_s": sum(p[0] for p in spans),
        "overhead": median([p[0] for p in spans]) / median([p[0] for p in plain]),
    }
