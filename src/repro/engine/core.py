"""The batched inference engine behind every scoring path.

:class:`InferenceEngine` owns the whole predict pipeline for a trained
matcher: record-memoized encoding, a length-bucketed batch scheduler
(sort by token length, cut buckets so padding waste stays bounded,
scatter outputs back to the caller's order), guaranteed ``no_grad``
execution, and an :class:`~repro.engine.stats.EngineStats` record for
the efficiency experiments.

Two memo levels exploit the redundancy of blocking-shaped workloads,
where the same record appears in many candidate pairs:

- *token*: serialized-record tokenizations are cached by content digest
  for any model (wordpiece tokenization is the dominant encode cost);
- *record*: for *late-interaction* models — those whose
  ``late_interaction`` flag is set, which encode each record
  independently and run only a cheap pairwise head at pair time (e.g.
  :class:`~repro.models.emba_dual.EmbaDual`, or
  :class:`~repro.models.emba.Emba` over the position-independent
  fastText encoder) — per-record encoder outputs are cached so a record
  appearing in many candidate pairs pays for exactly one encoder
  forward, turning O(pairs) forwards into O(records) + the pairwise
  head.

Every cache key is namespaced by an encoder identity fingerprint (see
:mod:`repro.engine.memo`), so engines sharing a cache — e.g. the stages
of a :class:`~repro.engine.cascade.CascadeScorer` — can never collide
on a record key.

The engine deliberately lives *above* the model layer: models never
import it, so ``repro.models`` stays importable on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.loader import (
    Batch,
    EncodedPair,
    PairEncoder,
    collate,
    plan_buckets,
)
from repro.data.schema import EMDataset, EntityPair
from repro.engine.memo import (
    LRUCache,
    array_digest,
    encoder_fingerprint,
    pair_encoder_fingerprint,
    scoped_key,
    text_digest,
)
from repro.engine.stats import EngineStats
from repro import obs
from repro.runs import store as runstore
from repro.nn.tensor import Tensor, no_grad

if TYPE_CHECKING:  # models import nothing from the engine; keep it that way
    from repro.models.base import EMModel


@dataclass
class EngineConfig:
    """Tuning knobs of an :class:`InferenceEngine`."""

    batch_size: int = 32
    max_pad_waste: float = 0.25       # bucket cut threshold (fraction padded)
    threshold: float = 0.5            # match decision boundary for em_pred
    encode_cache_size: int = 8192     # record-token LRU entries
    record_cache_size: int = 4096     # record encoder-output LRU entries
    quarantine: bool = True           # bisect failing batches, isolate poison
    quarantine_score: float = 0.0     # em_prob assigned to quarantined pairs


class InferenceEngine:
    """Batched, memoized, ``no_grad`` scoring for one trained model.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.EMModel`.
    encoder:
        The :class:`~repro.data.loader.PairEncoder` used to encode raw
        :class:`~repro.data.schema.EntityPair` inputs.  Optional when the
        caller only scores pre-encoded pairs.
    config:
        Scheduler/cache sizing; defaults are serving-friendly.
    """

    def __init__(self, model: "EMModel", encoder: PairEncoder | None = None,
                 config: EngineConfig | None = None):
        self.model = model
        self.encoder = encoder
        self.config = config or EngineConfig()
        self._token_cache = LRUCache(self.config.encode_cache_size)
        self._record_cache = LRUCache(self.config.record_cache_size)
        self._memo_by_encoder: dict[str, dict[str, dict[str, int]]] = {}
        # Identity fingerprints namespacing every cache key; computed
        # lazily once (they hash the encoder weights) and assumed stable
        # for the engine's lifetime, like the memo contents themselves.
        self._model_fp: str | None = None
        self._pair_encoder_fp: str | None = None
        self._pairs_scored = 0
        self._batches = 0
        self._token_cells = 0
        self._real_tokens = 0
        self._wall_seconds = 0.0
        self._quarantined = 0
        self._quarantine_log: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """A snapshot of everything this engine has done since reset."""
        return EngineStats(
            pairs_scored=self._pairs_scored,
            batches=self._batches,
            token_cells=self._token_cells,
            real_tokens=self._real_tokens,
            encode_hits=self._token_cache.hits,
            encode_misses=self._token_cache.misses,
            record_hits=self._record_cache.hits,
            record_misses=self._record_cache.misses,
            wall_seconds=self._wall_seconds,
            quarantined=self._quarantined,
            memo_by_encoder={
                label: {cache: dict(counts) for cache, counts in caches.items()}
                for label, caches in self._memo_by_encoder.items()
            },
        )

    @property
    def quarantine_log(self) -> list[tuple[int, str]]:
        """(input index, error repr) for every quarantined pair since reset.

        Indices are relative to the ``score_encoded`` call that produced
        them; use the per-call ``quarantined`` output mask to map pairs.
        """
        return list(self._quarantine_log)

    def reset_stats(self) -> None:
        """Zero the counters (cache *contents* are kept)."""
        self._pairs_scored = 0
        self._batches = 0
        self._token_cells = 0
        self._real_tokens = 0
        self._wall_seconds = 0.0
        self._quarantined = 0
        self._quarantine_log = []
        self._token_cache.hits = self._token_cache.misses = 0
        self._record_cache.hits = self._record_cache.misses = 0
        self._memo_by_encoder = {}

    # ------------------------------------------------------------------
    # Cache identity (encoder-scoped keys, per-encoder counters)
    # ------------------------------------------------------------------
    def model_fingerprint(self) -> str:
        """Identity of the model's encoder (or the model itself)."""
        if self._model_fp is None:
            target = getattr(self.model, "encoder", None) or self.model
            self._model_fp = encoder_fingerprint(target)
        return self._model_fp

    def encode_fingerprint(self) -> str:
        """Identity of the pair encoder (tokenizer + style + budget)."""
        if self._pair_encoder_fp is None:
            self._pair_encoder_fp = pair_encoder_fingerprint(self.encoder)
        return self._pair_encoder_fp

    def _count_memo(self, label: str, cache: str, hit: bool) -> None:
        counter = self._memo_by_encoder.setdefault(label, {}).setdefault(
            cache, {"hits": 0, "misses": 0})
        counter["hits" if hit else "misses"] += 1

    # ------------------------------------------------------------------
    # Encoding (record-token memo)
    # ------------------------------------------------------------------
    def _cached_record_tokens(self, record) -> tuple[str, ...]:
        text = self.encoder.record_text(record)
        key = scoped_key(self.encode_fingerprint(), text_digest(text))
        cached = self._token_cache.get(key)
        self._count_memo(self.encode_fingerprint(), "token", cached is not None)
        if cached is None:
            cached = tuple(self.encoder.tokenizer.tokenize(text))
            self._token_cache.put(key, cached)
        return cached

    def encode_pair(self, pair: EntityPair,
                    dataset: EMDataset | None = None) -> EncodedPair:
        """Encode one pair, reusing cached per-record tokenizations."""
        if self.encoder is None:
            raise ValueError("engine was built without a PairEncoder")
        id1 = dataset.id_index(pair.record1.entity_id) if dataset else 0
        id2 = dataset.id_index(pair.record2.entity_id) if dataset else 0
        return self.encoder.build(
            self._cached_record_tokens(pair.record1),
            self._cached_record_tokens(pair.record2),
            label=pair.label, id1=id1, id2=id2,
        )

    def encode_pairs(self, pairs: Sequence[EntityPair],
                     dataset: EMDataset | None = None) -> list[EncodedPair]:
        with obs.span("engine.encode", pairs=len(pairs)):
            return [self.encode_pair(p, dataset) for p in pairs]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_encoded(self, encoded: Sequence[EncodedPair]) -> dict[str, np.ndarray]:
        """Score pre-encoded pairs in original order.

        Returns the same keys as the old per-consumer loops produced:
        ``em_prob``, ``em_pred``, optional ``id1_pred``/``id2_pred`` for
        multi-task models, plus the batch-side ``labels``/``id1``/``id2``
        arrays (in input order), and a boolean ``quarantined`` mask.

        A batch whose forward pass raises does not abort the call: the
        batch is bisected until the poison pairs are isolated, those
        pairs are quarantined (``em_prob`` = ``config.quarantine_score``,
        flagged in the mask and in ``EngineStats.quarantined``), and
        every healthy pair is still scored normally.  Disable with
        ``config.quarantine = False`` to re-raise instead.
        """
        n = len(encoded)
        if n == 0:
            return {
                "em_prob": np.zeros(0, dtype=np.float32),
                "em_pred": np.zeros(0, dtype=np.int64),
                "labels": np.zeros(0, dtype=np.float32),
                "id1": np.zeros(0, dtype=np.int64),
                "id2": np.zeros(0, dtype=np.int64),
                "quarantined": np.zeros(0, dtype=bool),
            }
        start = time.perf_counter()
        cfg = self.config
        outputs: dict[str, np.ndarray] = {}

        def scatter(key: str, index: np.ndarray, values: np.ndarray) -> None:
            if key not in outputs:
                outputs[key] = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
            outputs[key][index] = values

        quarantined_rows: list[int] = []
        was_training = self.model.training
        self.model.eval()
        try:
            with obs.span("engine.score", pairs=n), no_grad():
                with obs.span("engine.bucket") as bucket_span:
                    buckets = plan_buckets([e.length for e in encoded],
                                           cfg.batch_size,
                                           max_pad_waste=cfg.max_pad_waste)
                    bucket_span.set("buckets", len(buckets))
                for bucket in buckets:
                    self._score_rows(bucket, encoded, scatter, quarantined_rows)
        finally:
            if was_training:
                self.model.train()
        outputs["em_pred"] = (outputs["em_prob"] >= cfg.threshold).astype(np.int64)
        mask = np.zeros(n, dtype=bool)
        if quarantined_rows:
            mask[quarantined_rows] = True
        outputs["quarantined"] = mask
        self._pairs_scored += n
        elapsed = time.perf_counter() - start
        self._wall_seconds += elapsed
        if obs.enabled():
            self._export_metrics(n)
        runstore.record_event(
            "engine.score", pairs=n, wall_s=round(elapsed, 6),
            pairs_per_s=round(n / elapsed, 2) if elapsed > 0 else 0.0,
            quarantined=len(quarantined_rows))
        return outputs

    def _export_metrics(self, pairs: int) -> None:
        """Re-export the cumulative :class:`EngineStats` into ``repro.obs``."""
        obs.inc("engine.pairs_scored", pairs)
        stats = self.stats
        obs.gauge("engine.pad_waste_ratio", stats.pad_waste_ratio)
        obs.gauge("engine.encode_hit_rate", stats.encode_hit_rate)
        obs.gauge("engine.record_hit_rate", stats.record_hit_rate)
        obs.gauge("engine.pairs_per_second", stats.pairs_per_second)
        obs.gauge("engine.batches", stats.batches)
        obs.gauge("engine.quarantined", stats.quarantined)
        for label, caches in stats.encoder_hit_rates().items():
            for cache, rate in caches.items():
                obs.gauge(f"engine.memo.{label}.{cache}_hit_rate", rate)

    def _score_rows(self, index: np.ndarray, encoded: Sequence[EncodedPair],
                    scatter, quarantined_rows: list[int]) -> None:
        """Score the rows ``index``; bisect on failure to isolate poison.

        A poison pair among B pairs costs O(log B) extra forward passes;
        the healthy pairs in the bucket are all still scored.  Assertion
        errors (including ``REPRO_VERIFY`` invariant violations) are
        harness bugs, not data poison, and always propagate.
        """
        batch = collate([encoded[i] for i in index])
        try:
            with obs.span("engine.forward", rows=len(index),
                          max_len=batch.input_ids.shape[1]):
                output = self._forward(batch)
        except AssertionError:
            raise
        except Exception as exc:
            if not self.config.quarantine:
                raise
            if len(index) == 1:
                row = int(index[0])
                quarantined_rows.append(row)
                self._quarantined += 1
                self._quarantine_log.append((row, repr(exc)))
                obs.inc("engine.quarantined")
                scatter("em_prob", index,
                        np.full(1, self.config.quarantine_score, dtype=np.float32))
                scatter("labels", index, batch.labels)
                scatter("id1", index, batch.id1)
                scatter("id2", index, batch.id2)
                return
            mid = len(index) // 2
            self._score_rows(index[:mid], encoded, scatter, quarantined_rows)
            self._score_rows(index[mid:], encoded, scatter, quarantined_rows)
            return
        with obs.span("engine.scatter", rows=len(index)):
            logits = output.em_logits.data
            probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
            scatter("em_prob", index, probs)
            if output.id1_logits is not None:
                scatter("id1_pred", index, output.id1_logits.data.argmax(axis=-1))
            if output.id2_logits is not None:
                scatter("id2_pred", index, output.id2_logits.data.argmax(axis=-1))
            scatter("labels", index, batch.labels)
            scatter("id1", index, batch.id1)
            scatter("id2", index, batch.id2)
        self._batches += 1
        self._token_cells += int(batch.input_ids.size)
        self._real_tokens += int(batch.attention_mask.sum())
        if obs.enabled():
            obs.observe("engine.batch_size", len(index), bounds=obs.SIZE_BUCKETS)
            obs.observe("engine.seq_len", batch.input_ids.shape[1],
                        bounds=obs.LEN_BUCKETS)

    def score_pairs(self, pairs: Sequence[EntityPair],
                    dataset: EMDataset | None = None) -> dict[str, np.ndarray]:
        """Encode (memoized) then score raw entity pairs."""
        return self.score_encoded(self.encode_pairs(pairs, dataset))

    def predict_proba(self, pairs: Sequence[EntityPair],
                      dataset: EMDataset | None = None) -> np.ndarray:
        """Just the match probabilities, in input order."""
        return self.score_pairs(pairs, dataset)["em_prob"]

    def predict_proba_grouped(self, groups: Sequence[Sequence[EntityPair]],
                              dataset: EMDataset | None = None
                              ) -> list[np.ndarray]:
        """Match probabilities for nested pair groups, one bucketed pass.

        The masked-rescoring path of the explain suite scores many small
        variant groups (one per original pair: the unmasked base plus
        its masked perturbations).  Scoring group-by-group would forfeit
        the length-bucketed scheduler and the record memo across groups;
        this flattens everything into a single :meth:`score_encoded`
        call and splits the probabilities back along group boundaries.
        """
        flat = [pair for group in groups for pair in group]
        probs = self.predict_proba(flat, dataset)
        out: list[np.ndarray] = []
        cursor = 0
        for group in groups:
            out.append(probs[cursor:cursor + len(group)])
            cursor += len(group)
        return out

    # ------------------------------------------------------------------
    # Async entry points (the serving daemon's surface)
    # ------------------------------------------------------------------
    async def score_encoded_async(self, encoded: Sequence[EncodedPair],
                                  executor=None) -> dict[str, np.ndarray]:
        """:meth:`score_encoded` off the event loop, on ``executor``.

        The engine itself is synchronous CPU-bound code; this entry just
        keeps an asyncio caller (``repro serve``) responsive while a
        batch scores.  Callers that need serialized access to one engine
        (memo caches are not thread-safe) pass a single-thread executor
        — the serving daemon dedicates one per worker.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor, self.score_encoded, list(encoded))

    async def score_pairs_async(self, pairs: Sequence[EntityPair],
                                dataset: EMDataset | None = None,
                                executor=None) -> dict[str, np.ndarray]:
        """Encode + :meth:`score_encoded` off the event loop."""
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor, lambda: self.score_pairs(list(pairs), dataset))

    # ------------------------------------------------------------------
    # Forward (record-level encoder-output memoization)
    # ------------------------------------------------------------------
    def _forward(self, batch: Batch):
        if getattr(self.model, "late_interaction", False):
            return self._late_interaction_forward(batch)
        return self.model(batch)

    def _late_interaction_forward(self, batch: Batch):
        """Score one batch through the record memo + pairwise head.

        Each record of every pair is resolved against the record-output
        cache (keys scoped by encoder fingerprint); only cache misses go
        through the encoder, batched together, before the model's
        pairwise head (AoA + EM/ID heads for EMBA) runs on the stitched
        sequence.  The per-record outputs are padding-deterministic (see
        :meth:`repro.models.emba_dual.EmbaDual.encode_records`), so hit
        and miss paths produce bit-identical scores.
        """
        model = self.model
        fp = self.model_fingerprint()
        rows = model.record_rows(batch)
        pending: dict[str, np.ndarray] = {}
        resolved: dict[str, np.ndarray] = {}
        keys: list[str] = []
        for ids in rows:
            key = scoped_key(fp, array_digest(ids))
            keys.append(key)
            if key in resolved or key in pending:
                # Shared within this batch: the encoder work is reused
                # even if the entry was only just queued.
                self._record_cache.hits += 1
                self._count_memo(fp, "record", True)
                continue
            value = self._record_cache.get(key)
            self._count_memo(fp, "record", value is not None)
            if value is not None:
                resolved[key] = value
            else:
                pending[key] = ids
        if pending:
            miss_keys = list(pending)
            with obs.span("engine.record_encode", records=len(miss_keys)):
                outputs = model.encode_records([pending[k] for k in miss_keys])
            for key, output in zip(miss_keys, outputs):
                value = np.ascontiguousarray(output.data)
                resolved[key] = value
                self._record_cache.put(key, value)
        parts = [Tensor(resolved[key]) for key in keys]
        return model.forward_pairwise(parts, batch)
