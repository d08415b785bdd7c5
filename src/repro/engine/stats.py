"""Counters surfaced by the inference engine for efficiency studies."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class EngineStats:
    """What one :class:`~repro.engine.core.InferenceEngine` has done.

    ``token_cells`` is the total padded matrix area (batch x max length
    summed over batches) while ``real_tokens`` counts unpadded positions;
    their gap is the padding the bucket scheduler failed to avoid.

    ``memo_by_encoder`` breaks every memo lookup down by the encoder
    identity that namespaced the cache key — in a cascade, each stage's
    encoder reports its own hit/miss counters instead of disappearing
    into an aggregate.  Keys are short encoder fingerprints; values map
    cache names (``token``, ``record``) to ``{hits, misses}``.
    """

    pairs_scored: int = 0
    batches: int = 0
    token_cells: int = 0
    real_tokens: int = 0
    encode_hits: int = 0          # record-token cache
    encode_misses: int = 0
    # Nothing in the program writes encoder_hits/encoder_misses; they
    # stay only because perfbench/tracer.py reads them from as_dict().
    encoder_hits: int = 0
    encoder_misses: int = 0
    record_hits: int = 0          # record encoder-output cache (late interaction)
    record_misses: int = 0
    wall_seconds: float = 0.0
    quarantined: int = 0          # poison pairs isolated by batch bisection
    memo_by_encoder: dict = field(default_factory=dict)

    @property
    def pad_waste_ratio(self) -> float:
        """Fraction of batch cells occupied by padding."""
        if self.token_cells == 0:
            return 0.0
        return 1.0 - self.real_tokens / self.token_cells

    @property
    def encode_hit_rate(self) -> float:
        return _hit_rate(self.encode_hits, self.encode_misses)

    @property
    def record_hit_rate(self) -> float:
        return _hit_rate(self.record_hits, self.record_misses)

    @property
    def pairs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.pairs_scored / self.wall_seconds

    def encoder_hit_rates(self) -> dict[str, dict[str, float]]:
        """Per-encoder, per-cache hit rates derived from the raw counters."""
        rates: dict[str, dict[str, float]] = {}
        for label, caches in self.memo_by_encoder.items():
            rates[label] = {
                cache: _hit_rate(c.get("hits", 0), c.get("misses", 0))
                for cache, c in caches.items()
            }
        return rates

    def as_dict(self) -> dict:
        """Flat dict of counters plus the derived ratios (for reports)."""
        payload = asdict(self)
        payload["pad_waste_ratio"] = self.pad_waste_ratio
        payload["encode_hit_rate"] = self.encode_hit_rate
        payload["record_hit_rate"] = self.record_hit_rate
        return payload
