"""EMBA and its ablation variants (the paper's Section 3).

``Emba`` is the proposed model: individual token representations feed
both the two entity-ID heads (learned token aggregation, Sec. 3.3) and
the main EM head through attention-over-attention (Sec. 3.4), trained
with the dual objective of Eq. 3.

``EmbaCls`` keeps the AoA EM head but uses the pooled ``[CLS]`` vector
for the auxiliary heads (the paper's EMBA-CLS ablation).  ``EmbaSurfCon``
swaps AoA for a SurfCon-style context matcher (EMBA-SurfCon).

Encoder variants: any encoder honouring the :class:`BertModel` output
contract can back these classes, which is how EMBA (FT) (fastText),
EMBA (SB) (mini-small), and EMBA (DB) (mini-distil) are built.

``Emba`` shares its modules with :class:`~repro.models.emba_dual.EmbaDual`
and differs only in its ``forward``, which encodes the packed pair
jointly.  Over a position-independent encoder (fastText) a joint encode
equals two independent record encodes, so with masked AoA the model is
late-interaction and the inference engine scores it through the dual's
record memo protocol.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Batch
from repro.models.aoa import AttentionOverAttention
from repro.models.base import EMModel, EMOutput
from repro.models.emba_dual import EmbaDual
from repro.models.heads import BinaryHead, ClassHead, TokenAggregationHead
from repro.models.surfcon import SurfConMatcher
from repro.nn.module import Module


class Emba(EmbaDual):
    """The proposed model: token-level aux heads + AoA EM head.

    ``late_interaction`` holds when the encoder is ``position_independent``
    (no token sees another, so a record's activations do not depend on
    the pair it sits in) and AoA is masked (special-token and padding
    positions never contribute).  The engine then encodes each record
    once through :meth:`encode_records` and scores pairs with
    :meth:`forward_pairwise`; training always runs :meth:`forward`.
    """

    @property
    def late_interaction(self) -> bool:
        return bool(getattr(self.encoder, "position_independent", False)
                    and self.aoa.masked)

    def forward(self, batch: Batch) -> EMOutput:
        out = self.encoder(batch.input_ids, batch.attention_mask, batch.segment_ids)
        x, gamma = self.aoa(out.sequence, batch.mask1, batch.mask2)
        return EMOutput(
            em_logits=self.em_head(x),
            id1_logits=self.id1_head(out.sequence, batch.mask1),
            id2_logits=self.id2_head(out.sequence, batch.mask2),
            attentions=out.attentions,
            aoa_gamma=gamma,
        )


class EmbaCls(EMModel):
    """Ablation EMBA-CLS: AoA for EM, but [CLS] for both aux heads."""

    def __init__(self, encoder: Module, hidden: int, num_id_classes: int,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder = encoder
        self.aoa = AttentionOverAttention()
        self.em_head = BinaryHead(hidden, rng)
        self.id1_head = ClassHead(hidden, num_id_classes, rng)
        self.id2_head = ClassHead(hidden, num_id_classes, rng)

    def forward(self, batch: Batch) -> EMOutput:
        out = self.encoder(batch.input_ids, batch.attention_mask, batch.segment_ids)
        x, gamma = self.aoa(out.sequence, batch.mask1, batch.mask2)
        return EMOutput(
            em_logits=self.em_head(x),
            id1_logits=self.id1_head(out.pooled),
            id2_logits=self.id2_head(out.pooled),
            attentions=out.attentions,
            aoa_gamma=gamma,
        )


class EmbaSurfCon(EMModel):
    """Ablation EMBA-SurfCon: SurfCon context matching instead of AoA."""

    def __init__(self, encoder: Module, hidden: int, num_id_classes: int,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder = encoder
        self.matcher = SurfConMatcher(hidden, rng)
        self.em_head = BinaryHead(hidden, rng)
        self.id1_head = TokenAggregationHead(hidden, num_id_classes, rng)
        self.id2_head = TokenAggregationHead(hidden, num_id_classes, rng)

    def forward(self, batch: Batch) -> EMOutput:
        out = self.encoder(batch.input_ids, batch.attention_mask, batch.segment_ids)
        x = self.matcher(out.sequence, batch.mask1, batch.mask2)
        return EMOutput(
            em_logits=self.em_head(x),
            id1_logits=self.id1_head(out.sequence, batch.mask1),
            id2_logits=self.id2_head(out.sequence, batch.mask2),
            attentions=out.attentions,
        )
