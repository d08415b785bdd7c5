"""Engine vs. naive scoring on a blocking-shaped workload.

Backs the ``repro profile-engine`` CLI subcommand and
``benchmarks/bench_engine.py``.  The workload mirrors what a deployed
matcher actually sees: blocking emits candidate pairs in which the same
record appears many times, so the engine's record-level memoization and
length bucketing both matter.  The naive baseline is the loop every
consumer used to hand-roll — encode each pair from scratch, fixed-size
batches in arrival order, pad to the longest sequence in the batch.

Imported lazily (not from ``repro.engine``) because it reaches up into
``repro.experiments`` for model construction.
"""

from __future__ import annotations

import time

import numpy as np

from repro.blocking.token import TokenBlocker
from repro.data.loader import PairEncoder, collate
from repro.data.registry import load_dataset
from repro.data.schema import EntityPair
from repro.engine.core import EngineConfig, InferenceEngine


def build_blocking_workload(dataset_name: str = "wdc_computers",
                            size: str = "small", max_pairs: int = 400
                            ) -> list[EntityPair]:
    """Candidate pairs from token blocking over the test-split records."""
    dataset = load_dataset(dataset_name, size=size)
    left, right = [], []
    seen_left, seen_right = set(), set()
    for pair in dataset.test + dataset.train:
        key1 = (pair.record1.source, pair.record1.attributes)
        key2 = (pair.record2.source, pair.record2.attributes)
        if key1 not in seen_left:
            seen_left.add(key1)
            left.append(pair.record1)
        if key2 not in seen_right:
            seen_right.add(key2)
            right.append(pair.record2)
    result = TokenBlocker(min_common=1).block(left, right)
    pairs = [EntityPair(left[c.left], right[c.right], 0)
             for c in result.candidates]
    return pairs[:max_pairs]


def naive_score(model, encoder: PairEncoder, pairs: list[EntityPair],
                batch_size: int) -> np.ndarray:
    """The legacy scoring loop, kept only as the profiling baseline."""
    probs = []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        batch = collate([encoder.encode(p) for p in chunk])
        probs.append(model.predict(batch)["em_prob"])
    return np.concatenate(probs)


def profile_engine_workload(dataset: str = "wdc_computers",
                            size: str = "small", model_name: str = "emba_ft",
                            batch_size: int = 32, max_pairs: int = 400,
                            repeats: int = 3) -> dict:
    """Time naive vs. engine scoring on the blocking workload.

    The model is freshly initialized (weights are irrelevant to the
    pipeline cost being measured).  Both paths score the identical pair
    list ``repeats`` times; predictions are cross-checked to ``1e-6``.
    """
    from repro.experiments.config import MODEL_SPECS, RunSpec
    from repro.experiments.runner import (
        _build_encoder,
        _build_model,
        _tokenizer_for,
    )

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if model_name not in MODEL_SPECS:
        known = ", ".join(sorted(MODEL_SPECS))
        raise ValueError(f"unknown model {model_name!r}; choose from: {known}")

    spec = RunSpec(dataset=dataset, model=model_name, size=size, seed=0)
    model_spec = MODEL_SPECS[model_name]
    loaded = load_dataset(dataset, size=size, seed=spec.data_seed)
    tokenizer = _tokenizer_for(dataset, size, spec.data_seed, spec.vocab_size)
    pair_encoder = PairEncoder(tokenizer, max_length=spec.max_length,
                               style=model_spec.style)
    if model_spec.encoder is not None:
        enc, hidden = _build_encoder(model_spec.encoder, spec, tokenizer, loaded)
    else:
        enc, hidden = None, 0
    model = _build_model(spec, enc, hidden, loaded, tokenizer)
    model.eval()

    pairs = build_blocking_workload(dataset, size, max_pairs=max_pairs)

    start = time.perf_counter()
    for _ in range(repeats):
        naive = naive_score(model, pair_encoder, pairs, batch_size)
    naive_seconds = time.perf_counter() - start

    engine = InferenceEngine(model, pair_encoder,
                             EngineConfig(batch_size=batch_size))
    start = time.perf_counter()
    for _ in range(repeats):
        scored = engine.predict_proba(pairs)
    engine_seconds = time.perf_counter() - start
    stats = engine.stats

    return {
        "dataset": dataset,
        "size": size,
        "model": model_name,
        "pairs": len(pairs),
        "repeats": repeats,
        "batch_size": batch_size,
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": naive_seconds / engine_seconds if engine_seconds else float("inf"),
        "max_abs_diff": float(np.abs(scored - naive).max()) if len(pairs) else 0.0,
        "stats": stats.as_dict(),
    }


def _memo_lines(stats: dict) -> list[str]:
    """Per-encoder cache counters (satellite of the staged-scoring PR)."""
    lines = []
    for label, caches in sorted(stats.get("memo_by_encoder", {}).items()):
        for cache, c in sorted(caches.items()):
            hits, misses = c.get("hits", 0), c.get("misses", 0)
            total = hits + misses
            rate = hits / total if total else 0.0
            lines.append(f"  memo {label:<28s} {cache:<6s} "
                         f"= {hits}/{total} ({rate:.3f})")
    return lines


def render_profile(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_engine_workload` report."""
    stats = report["stats"]
    lines = [
        f"engine profile — {report['model']} on {report['dataset']}/{report['size']}",
        f"  pairs x repeats   = {report['pairs']} x {report['repeats']}",
        f"  naive             = {report['naive_seconds']:.3f}s",
        f"  engine            = {report['engine_seconds']:.3f}s"
        f"  ({report['speedup']:.2f}x speedup)",
        f"  max |prob diff|   = {report['max_abs_diff']:.2e}",
        f"  batches           = {stats['batches']}",
        f"  pad waste         = {stats['pad_waste_ratio']:.3f}",
        f"  encode hit rate   = {stats['encode_hit_rate']:.3f}",
        f"  record hit rate   = {stats['record_hit_rate']:.3f}",
    ]
    lines.extend(_memo_lines(stats))
    return "\n".join(lines)


def profile_cascade_workload(dataset: str = "wdc_computers",
                             size: str = "small",
                             cheap_model: str = "emba_dual_sb",
                             full_model: str = "emba_sb",
                             batch_size: int = 32, max_pairs: int = 400,
                             repeats: int = 3, low: float = 0.45,
                             high: float = 0.55,
                             pretrain_steps: int = 40) -> dict:
    """Time the staged cascade against the full engine on its own.

    Both models are freshly pre-trained minis (disk-cached; weights are
    irrelevant to the pipeline cost being measured), so the escalation
    band is supplied, not calibrated — calibrated-band quality is the
    benchmark's job (``benchmarks/bench_cascade.py``), this profile
    measures routing overhead and memo behaviour.  The two models must
    share a serialization style, since the cascade scores one encoding.
    """
    from repro.engine.cascade import CascadeScorer
    from repro.eval.threshold import CascadeBand
    from repro.experiments.config import MODEL_SPECS, RunSpec
    from repro.experiments.runner import (
        _build_encoder,
        _build_model,
        _tokenizer_for,
    )

    for name in (cheap_model, full_model):
        if name not in MODEL_SPECS:
            known = ", ".join(sorted(MODEL_SPECS))
            raise ValueError(f"unknown model {name!r}; choose from: {known}")
    cheap_spec, full_spec = MODEL_SPECS[cheap_model], MODEL_SPECS[full_model]
    if cheap_spec.style != full_spec.style:
        raise ValueError(
            f"cascade stages must share a serialization style, got "
            f"{cheap_spec.style!r} vs {full_spec.style!r}")
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"invalid band [{low}, {high}]")

    loaded = load_dataset(dataset, size=size, seed=0)
    models = {}
    for name in (cheap_model, full_model):
        spec = RunSpec(dataset=dataset, model=name, size=size, seed=0,
                       pretrain_steps=pretrain_steps)
        tokenizer = _tokenizer_for(dataset, size, spec.data_seed,
                                   spec.vocab_size)
        model_spec = MODEL_SPECS[name]
        enc, hidden = _build_encoder(model_spec.encoder, spec, tokenizer,
                                     loaded)
        model = _build_model(spec, enc, hidden, loaded, tokenizer)
        model.eval()
        models[name] = model
    pair_encoder = PairEncoder(tokenizer, max_length=96,
                               style=full_spec.style)

    pairs = build_blocking_workload(dataset, size, max_pairs=max_pairs)
    full_engine = InferenceEngine(models[full_model], pair_encoder,
                                  EngineConfig(batch_size=batch_size))
    encoded = full_engine.encode_pairs(pairs)

    start = time.perf_counter()
    for _ in range(repeats):
        full_out = full_engine.score_encoded(encoded)
    full_seconds = time.perf_counter() - start

    cheap_engine = InferenceEngine(models[cheap_model], pair_encoder,
                                   EngineConfig(batch_size=batch_size))
    band = CascadeBand(low=low, high=high, escalate_fraction=float("nan"),
                       cascade_f1=float("nan"), full_f1=float("nan"))
    scorer = CascadeScorer(cheap_engine, full_engine, band)
    full_engine.reset_stats()
    start = time.perf_counter()
    for _ in range(repeats):
        out = scorer.score_encoded(encoded)
    cascade_seconds = time.perf_counter() - start
    stats = scorer.stats

    agree = float(np.mean(out["em_pred"]
                          == (full_out["em_prob"] >= 0.5).astype(int)))
    return {
        "dataset": dataset,
        "size": size,
        "cheap_model": cheap_model,
        "full_model": full_model,
        "pairs": len(pairs),
        "repeats": repeats,
        "batch_size": batch_size,
        "band": [low, high],
        "full_seconds": full_seconds,
        "cascade_seconds": cascade_seconds,
        "speedup": (full_seconds / cascade_seconds
                    if cascade_seconds else float("inf")),
        "escalate_fraction": stats.escalate_fraction,
        "agreement": agree,
        "stats": stats.as_dict(),
    }


def render_cascade_profile(report: dict) -> str:
    """Human-readable rendering of :func:`profile_cascade_workload`."""
    stats = report["stats"]
    lines = [
        f"cascade profile — {report['cheap_model']} -> {report['full_model']}"
        f" on {report['dataset']}/{report['size']}",
        f"  pairs x repeats   = {report['pairs']} x {report['repeats']}",
        f"  band              = [{report['band'][0]:.2f},"
        f" {report['band'][1]:.2f}]",
        f"  full engine       = {report['full_seconds']:.3f}s",
        f"  cascade           = {report['cascade_seconds']:.3f}s"
        f"  ({report['speedup']:.2f}x speedup)",
        f"  escalated         = {stats['escalated']}/{stats['pairs_scored']}"
        f" ({report['escalate_fraction']:.3f})",
        f"  decision agreement= {report['agreement']:.3f}",
        "  cheap stage:",
    ]
    lines.extend("  " + line for line in _memo_lines(stats["cheap"]))
    lines.append("  full stage:")
    lines.extend("  " + line for line in _memo_lines(stats["full"]))
    return "\n".join(lines)
