"""EMBA-Dual: the late-interaction (dual-encoder) EMBA variant.

The paper's AoA head (Sec. 3.4) consumes only the two records' token
representations — everything from ``I = E1 @ E2^T`` onward is pairwise.
``EmbaDual`` exploits that: each record is encoded *independently*
through the encoder as ``[CLS] record [SEP]`` (no cross-segment
attention between the two records), and only the AoA block plus the
EM/ID heads run on the stitched pair sequence.  A record's encoding is
therefore reusable across every candidate pair it appears in, which is
what the inference engine's record-level memo cache exploits to turn
O(pairs) encoder forwards into O(records) on blocking-shaped workloads.

Determinism contract: :meth:`EmbaDual.encode_records` groups records by
*quantized* length and pads each group to its quantized width, so a
record's token activations are bit-identical regardless of which other
records share its encoder batch.  :meth:`EmbaDual.forward_pairwise`
applies the same trick at the pair stage — pairs are regrouped by the
quantized width of their stitched ``[CLS] r1 [SEP] r2 [SEP]`` layout, so
every reduction over the token axis (AoA softmaxes and sums, the
token-aggregation heads) sees a width that is a function of the pair
alone, not of its batch neighbours.  The engine's memo hit and miss
paths (and the naive per-pair recompute) consequently agree exactly,
not just to tolerance — see ``tests/test_cascade.py``.

Like every matcher here, the class is encoder-agnostic: a BERT preset
gives the true dual-encoder, while a decomposable encoder (fastText)
degenerates gracefully (its outputs never mixed tokens to begin with).
That is also why the cross-encoder :class:`~repro.models.emba.Emba`
subclasses this one: over fastText with masked AoA it reuses this
record protocol at inference and keeps only its own joint ``forward``.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Batch
from repro.models.aoa import AttentionOverAttention
from repro.models.base import EMModel, EMOutput
from repro.models.heads import BinaryHead, TokenAggregationHead
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, stack

#: Record-encode batches pad to multiples of this many tokens.  The
#: quantized width is a function of the record alone (not of its batch
#: neighbours), which makes per-record encoder outputs deterministic
#: under re-batching while bounding padding waste to < _LEN_QUANT
#: positions per record.
_LEN_QUANT = 8

#: Width groups are processed in chunks of exactly this many rows (the
#: last chunk padded with dummy rows).  BLAS kernels are chosen by
#: operand shape, and different kernels can round differently — fixing
#: the batch dimension pins the kernel, and within a fixed-shape matmul
#: each output row depends only on its own input row, so per-row
#: results cannot depend on batch composition.
_BATCH_QUANT = 8


def _quantized_len(length: int) -> int:
    return max(_LEN_QUANT, -(-length // _LEN_QUANT) * _LEN_QUANT)


def _chunked(members: list) -> list[list]:
    return [members[i:i + _BATCH_QUANT]
            for i in range(0, len(members), _BATCH_QUANT)]


class EmbaDual(EMModel):
    """Dual-encoder EMBA: independent record encodes + AoA pair head."""

    #: Engine protocol flag: per-record encoder outputs are cacheable and
    #: pair scoring needs only :meth:`forward_pairwise`.
    late_interaction = True

    def __init__(self, encoder: Module, hidden: int, num_id_classes: int,
                 rng: np.random.Generator, masked_aoa: bool = True):
        super().__init__()
        self.encoder = encoder
        self.aoa = AttentionOverAttention(masked=masked_aoa)
        self.em_head = BinaryHead(hidden, rng)
        self.id1_head = TokenAggregationHead(hidden, num_id_classes, rng)
        self.id2_head = TokenAggregationHead(hidden, num_id_classes, rng)

    # ------------------------------------------------------------------
    # Record-level encoding (the engine's memo unit)
    # ------------------------------------------------------------------
    def record_rows(self, batch: Batch) -> list[np.ndarray]:
        """Per-record token-id rows of a packed batch, two per pair.

        Each row is ``[CLS] record tokens [SEP]`` lifted out of the
        ``[CLS] r1 [SEP] r2 [SEP]`` pair layout, in order
        ``r1_0, r2_0, r1_1, r2_1, ...``.  These rows are the engine's
        cache keys, so their construction must depend only on the
        record's (truncated) tokens.
        """
        rows: list[np.ndarray] = []
        for b in range(batch.size):
            ids = batch.input_ids[b]
            n1 = int(round(float(batch.mask1[b].sum())))
            n2 = int(round(float(batch.mask2[b].sum())))
            cls_id, sep_id = ids[0], ids[1 + n1]
            rows.append(np.concatenate(
                ([cls_id], ids[1:1 + n1], [sep_id])).astype(np.int64))
            rows.append(np.concatenate(
                ([cls_id], ids[2 + n1:2 + n1 + n2], [sep_id])).astype(np.int64))
        return rows

    def encode_records(self, rows: list[np.ndarray]) -> list[Tensor]:
        """Encode records independently; return each row's body outputs.

        Rows are grouped by quantized length, each group padded to its
        quantized width and processed in fixed-size chunks of
        ``_BATCH_QUANT`` rows (the last chunk padded with dummy rows),
        so every record's activations are a function of the record alone
        (bit-stable under re-batching).  The returned tensors are the
        ``(n_tokens, H)`` description-token outputs with the
        ``[CLS]``/``[SEP]`` positions stripped; gradients flow when grad
        mode is on, so the training loop uses this same path.
        """
        outputs: list[Tensor | None] = [None] * len(rows)
        groups: dict[int, list[int]] = {}
        for i, ids in enumerate(rows):
            groups.setdefault(_quantized_len(len(ids)), []).append(i)
        for width, members in sorted(groups.items()):
            for chunk in _chunked(members):
                ids_mat = np.zeros((_BATCH_QUANT, width), dtype=np.int64)
                mask = np.zeros((_BATCH_QUANT, width), dtype=np.float32)
                for k in range(_BATCH_QUANT):
                    ids = rows[chunk[min(k, len(chunk) - 1)]]
                    ids_mat[k, :len(ids)] = ids
                    mask[k, :len(ids)] = 1.0
                encoded = self.encoder(ids_mat, mask, np.zeros_like(ids_mat))
                for k, i in enumerate(chunk):
                    outputs[i] = encoded.sequence[k, 1:len(rows[i]) - 1]
        return outputs

    # ------------------------------------------------------------------
    # Pairwise head (all that runs at pair time on a memo hit)
    # ------------------------------------------------------------------
    def forward_pairwise(self, parts: list[Tensor], batch: Batch) -> EMOutput:
        """AoA + EM/ID heads over per-record encoder outputs.

        ``parts`` holds two tensors per pair (see :meth:`record_rows`).
        Pairs are grouped by the *quantized* width of their stitched
        ``[CLS] r1 [SEP] r2 [SEP]`` layout and each group is processed
        at that width in fixed-size chunks of ``_BATCH_QUANT`` rows, so
        the token-axis reductions are bit-stable under re-batching (the
        batch's own padded width and size never enter).  Special-token
        and padding positions are zero — every consumer (AoA, the
        token-aggregation heads) is span-masked, so those positions
        never contribute.
        """
        dtype = parts[0].data.dtype
        hidden = parts[0].data.shape[-1]
        zero_rows: dict[int, Tensor] = {}

        def zeros(n: int) -> Tensor:
            if n not in zero_rows:
                zero_rows[n] = Tensor(np.zeros((n, hidden), dtype=dtype))
            return zero_rows[n]

        groups: dict[int, list[int]] = {}
        for b in range(batch.size):
            n1 = parts[2 * b].data.shape[0]
            n2 = parts[2 * b + 1].data.shape[0]
            groups.setdefault(_quantized_len(3 + n1 + n2), []).append(b)

        order: list[int] = []
        em_chunks, id1_chunks, id2_chunks = [], [], []
        gamma = np.zeros(batch.mask1.shape, dtype=dtype)
        for width, members in sorted(groups.items()):
            for chunk in _chunked(members):
                rows = []
                mask1 = np.zeros((_BATCH_QUANT, width), dtype=np.float32)
                mask2 = np.zeros((_BATCH_QUANT, width), dtype=np.float32)
                for k in range(_BATCH_QUANT):
                    # Rows past the chunk repeat the last real pair;
                    # their outputs are sliced off below, so no gradient
                    # reaches them either.
                    b = chunk[min(k, len(chunk) - 1)]
                    e1, e2 = parts[2 * b], parts[2 * b + 1]
                    n1, n2 = e1.data.shape[0], e2.data.shape[0]
                    pieces = [zeros(1), e1, zeros(1), e2, zeros(1)]
                    tail = width - (3 + n1 + n2)
                    if tail > 0:
                        pieces.append(zeros(tail))
                    rows.append(concat(pieces, axis=0))
                    mask1[k, 1:1 + n1] = 1.0
                    mask2[k, 2 + n1:2 + n1 + n2] = 1.0
                sequence = stack(rows, axis=0)
                real = slice(0, len(chunk))
                x, chunk_gamma = self.aoa(sequence, mask1, mask2)
                em_chunks.append(self.em_head(x)[real])
                id1_chunks.append(self.id1_head(sequence, mask1)[real])
                id2_chunks.append(self.id2_head(sequence, mask2)[real])
                # gamma has exact-zero mass outside record1's span, so
                # truncating to the batch's own width loses nothing.
                w = min(width, gamma.shape[1])
                gamma[np.asarray(chunk), :w] = chunk_gamma[real, :w]
                order.extend(chunk)

        inverse = np.empty(batch.size, dtype=np.int64)
        inverse[np.asarray(order)] = np.arange(batch.size)
        return EMOutput(
            em_logits=concat(em_chunks, axis=0)[inverse],
            id1_logits=concat(id1_chunks, axis=0)[inverse],
            id2_logits=concat(id2_chunks, axis=0)[inverse],
            attentions=[],
            aoa_gamma=gamma,
        )

    def forward(self, batch: Batch) -> EMOutput:
        return self.forward_pairwise(
            self.encode_records(self.record_rows(batch)), batch)
