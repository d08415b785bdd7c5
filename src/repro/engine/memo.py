"""LRU memoization primitives for the inference engine.

Two cache granularities back :class:`~repro.engine.core.InferenceEngine`:

- a *record token* cache mapping the content digest of a serialized
  record to its wordpiece token tuple (tokenization is pure Python and
  dominates encode cost when the same record appears in many candidate
  pairs, as blocking output does);
- a *record encoder-output* cache for late-interaction models (e.g.
  :class:`~repro.models.emba_dual.EmbaDual`, or fastText
  :class:`~repro.models.emba.Emba`): each record's independent-encode
  token activations, reused across every pair the record appears in.

Both are plain bounded LRUs with hit/miss counters that feed
:class:`~repro.engine.stats.EngineStats`.

Cache keys are *namespaced by encoder identity*: every key mixes in an
:func:`encoder_fingerprint` (class + config + a digest of the actual
weights) or a :func:`pair_encoder_fingerprint` (tokenizer vocabulary +
serialization style + length budget).  Two encoders sharing one cache —
as the stages of a cascade may — therefore can never collide on a
record key, and a retrained encoder never resurrects activations cached
for the old weights.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable

import numpy as np

_MISSING = object()


class LRUCache:
    """Bounded least-recently-used mapping with hit/miss counters."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._items: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable):
        """Return the cached value or ``None`` (counts a hit or miss)."""
        value = self._items.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self._items.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def clear(self) -> None:
        self._items.clear()
        self.hits = 0
        self.misses = 0


def text_digest(text: str) -> str:
    """Stable content digest of a serialized record."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Stable content digest of a (contiguous) integer id array."""
    data = np.ascontiguousarray(array)
    return hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()


def encoder_fingerprint(encoder) -> str:
    """Identity digest of an encoder module: class, shapes, and weights.

    Hashing the parameter *values* (not just the config) is deliberate:
    two same-architecture encoders at different training states must
    occupy disjoint cache namespaces, otherwise a shared cache would
    serve one model's activations to the other.  The digest is computed
    once per engine construction; an engine instance assumes frozen
    weights for its lifetime (the existing memoization contract).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(type(encoder).__name__.encode("utf-8"))
    config = getattr(encoder, "config", None)
    if config is not None:
        h.update(repr(config).encode("utf-8"))
    for name, param in getattr(encoder, "named_parameters", lambda: ())():
        h.update(name.encode("utf-8"))
        h.update(repr(param.data.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(param.data).tobytes())
    return f"{type(encoder).__name__}:{h.hexdigest()}"


def pair_encoder_fingerprint(pair_encoder) -> str:
    """Identity digest of a :class:`~repro.data.loader.PairEncoder`.

    Covers everything that changes a record's token tuple: the
    serialization style, the truncation budget, and the tokenizer
    vocabulary itself.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{pair_encoder.style}:{pair_encoder.max_length}".encode("utf-8"))
    vocab = pair_encoder.tokenizer.vocab
    h.update("\n".join(vocab.tokens()).encode("utf-8"))
    return f"tok:{h.hexdigest()}"


def scoped_key(fingerprint: str, digest: str) -> str:
    """Compose an encoder-scoped cache key from identity + content."""
    return f"{fingerprint}/{digest}"
