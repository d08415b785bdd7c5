"""fastText-style embedding modules.

:class:`FastTextEmbeddings` maps token ids to vectors by averaging hashed
character-n-gram bucket embeddings — so rare and unseen surface forms
still get informative vectors, which is fastText's selling point.
:class:`FastTextEncoder` exposes the same output contract as
:class:`repro.bert.model.BertModel`, letting every EM head run unchanged
on top of it (the paper's EMBA (FT) variant).
"""

from __future__ import annotations

import numpy as np

from repro.bert.model import BertOutput
from repro.nn import functional as F
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.text.subword import SubwordHasher
from repro.text.vocab import Vocabulary

_MAX_NGRAMS = 24


class FastTextEmbeddings(Module):
    """Token-id -> averaged-subword-bucket embedding lookup.

    The bucket index lists for every vocabulary entry are precomputed at
    construction; WordPiece continuation markers are stripped before
    hashing so ``##flash`` and ``flash`` share n-grams.
    """

    def __init__(self, vocab: Vocabulary, hasher: SubwordHasher, dim: int,
                 rng: np.random.Generator,
                 pretrained_buckets: np.ndarray | None = None):
        super().__init__()
        self.dim = dim
        self.hasher = hasher
        if pretrained_buckets is not None:
            if pretrained_buckets.shape != (hasher.num_buckets, dim):
                raise ValueError(
                    f"pretrained bucket matrix shape {pretrained_buckets.shape} "
                    f"!= ({hasher.num_buckets}, {dim})"
                )
            self.buckets = Parameter(pretrained_buckets)
        else:
            self.buckets = Parameter(
                rng.normal(0.0, 0.1, size=(hasher.num_buckets, dim))
            )

        # (V, _MAX_NGRAMS) bucket ids padded with 0 + (V,) true counts.
        vocab_size = len(vocab)
        self._bucket_index = np.zeros((vocab_size, _MAX_NGRAMS), dtype=np.int64)
        self._bucket_count = np.ones(vocab_size, dtype=np.float32)
        for token_id, token in enumerate(vocab.tokens()):
            word = token.removeprefix("##")
            if token.startswith("[") and token.endswith("]"):
                # Special tokens hash as themselves (single full-word gram).
                ids = [hasher.word_buckets(token)[0]]
            else:
                ids = hasher.word_buckets(word)[:_MAX_NGRAMS]
            self._bucket_index[token_id, :len(ids)] = ids
            self._bucket_count[token_id] = len(ids)

    def forward(self, input_ids: np.ndarray) -> Tensor:
        """(B, S) token ids -> (B, S, dim) averaged subword embeddings."""
        bucket_ids = self._bucket_index[input_ids]          # (B, S, G)
        gathered = F.embedding(self.buckets, bucket_ids)    # (B, S, G, dim)
        # Zero out padding grams, then average by true gram count.
        pad_mask = np.zeros_like(bucket_ids, dtype=np.float32)
        pad_mask[...] = np.arange(_MAX_NGRAMS) < self._bucket_count[input_ids][..., None]
        summed = (gathered * Tensor(pad_mask[..., None])).sum(axis=-2)
        counts = Tensor(self._bucket_count[input_ids][..., None])
        return summed / counts


class FastTextEncoder(Module):
    """Non-contextual encoder with the BERT output contract.

    Sequence outputs are projected subword embeddings; the "pooled"
    vector is the masked mean of the sequence (there is no [CLS]
    semantics in fastText, so the mean stands in for it, as in fastText
    classification).

    Because each position's output depends only on that position's token
    id (no positions, no cross-token mixing), the encoder is
    *decomposable*: ``position_independent`` makes
    :class:`~repro.models.emba.Emba` (with masked AoA) a late-interaction
    model, so the inference engine encodes each record once, caches its
    activations in the record memo and runs only the AoA and EM/ID heads
    per pair.
    """

    position_independent = True

    def __init__(self, vocab: Vocabulary, hasher: SubwordHasher, dim: int,
                 rng: np.random.Generator,
                 pretrained_buckets: np.ndarray | None = None):
        super().__init__()
        self.embeddings = FastTextEmbeddings(vocab, hasher, dim, rng,
                                             pretrained_buckets)
        self.project = Linear(dim, dim, rng)
        self.norm = LayerNorm(dim)
        self.hidden_size = dim

    def pool(self, sequence: Tensor, attention_mask: np.ndarray) -> Tensor:
        """Pooled vector from an (already computed) sequence output."""
        return F.tanh(F.mean_pool(sequence, attention_mask))

    def forward(self, input_ids: np.ndarray, attention_mask: np.ndarray,
                segment_ids: np.ndarray | None = None) -> BertOutput:
        sequence = self.norm(self.project(self.embeddings(input_ids)))
        pooled = self.pool(sequence, attention_mask)
        return BertOutput(sequence=sequence, pooled=pooled, attentions=[])
