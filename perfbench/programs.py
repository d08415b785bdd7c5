"""The program state each in-process workload needs, built the way the
program itself builds it.

``build(workload)`` is what a set-up probe times from a cold cache
(tokenizer training, 60 MLM pre-training steps or fastText training,
model construction) and what the measuring process rebuilds from the
last probe's warm disk cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

DATASET = "wdc_computers"
SERVE_MODEL = "emba_dual_sb"
TRAIN_SIZE = "xlarge"
PRETRAIN_STEPS = 60


@dataclass
class Scoring:
    """A model ready to score, with the pair encoder built for it."""

    model: object
    encoder: object


@dataclass
class Training:
    """Everything ``Trainer.fit`` needs, plus a fresh-model factory."""

    spec: object
    train: list
    valid: list
    new_model: object     # () -> a model with the same initial weights


def scoring(model_name: str) -> Scoring:
    """A model and pair encoder as ``repro serve`` builds them."""
    from repro.serve.scorer import factory_from_spec

    scorer = factory_from_spec(DATASET, "small", model_name,
                               pretrain_steps=PRETRAIN_STEPS)()
    return Scoring(model=scorer.model, encoder=scorer.engine.encoder)


def training() -> Training:
    """EMBA on WDC computers xlarge, set up as the experiment runner does."""
    from repro.data.loader import PairEncoder
    from repro.data.registry import load_dataset
    from repro.experiments.config import MODEL_SPECS, PROFILES, spec_for
    from repro.experiments.runner import (
        _build_encoder,
        _build_model,
        _tokenizer_for,
    )

    spec = dataclasses.replace(
        spec_for(DATASET, TRAIN_SIZE, "emba", 0, PROFILES["quick"]),
        pretrain_steps=PRETRAIN_STEPS)
    data = load_dataset(DATASET, size=TRAIN_SIZE, seed=spec.data_seed)
    tokenizer = _tokenizer_for(DATASET, TRAIN_SIZE, spec.data_seed,
                               spec.vocab_size)
    pair_encoder = PairEncoder(tokenizer, max_length=spec.max_length,
                               style=MODEL_SPECS["emba"].style)
    train = pair_encoder.encode_many(data.train, data)
    valid = pair_encoder.encode_many(data.valid, data)

    def new_model():
        encoder, hidden = _build_encoder(MODEL_SPECS["emba"].encoder, spec,
                                         tokenizer, data)
        return _build_model(spec, encoder, hidden, data, tokenizer)

    new_model()   # pre-trains the encoder (cached for later calls)
    return Training(spec=spec, train=train, valid=valid, new_model=new_model)


def build(workload: str):
    if workload == "score-blocked":
        return scoring("emba")
    if workload == "stream-ingest":
        return scoring("emba_ft")
    if workload == "train-emba":
        return training()
    raise ValueError(f"no in-process program state for {workload!r}")
