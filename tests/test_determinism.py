"""Seed-determinism: two identical end-to-end EMBA runs must agree byte
for byte — same training metrics, same probabilities, same engine
counters.  Guards against hidden global-RNG use or nondeterministic
iteration order anywhere in the train/predict path."""

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder
from repro.data.registry import load_dataset
from repro.engine import EngineConfig, InferenceEngine
from repro.models import Emba
from repro.models.trainer import TrainConfig, Trainer
from repro.text import WordPieceTokenizer, train_wordpiece

CFG = BertConfig(vocab_size=300, hidden_size=16, num_layers=1, num_heads=2,
                 intermediate_size=32, max_position=80, dropout=0.1,
                 attention_dropout=0.1)


@pytest.fixture(scope="module")
def splits():
    ds = load_dataset("wdc_computers", size="small")
    texts = [r.text() for p in ds.all_pairs() for r in (p.record1, p.record2)]
    tok = WordPieceTokenizer(train_wordpiece(texts, vocab_size=500))
    cfg = CFG.with_vocab(len(tok.vocab))
    enc = PairEncoder(tok, max_length=cfg.max_position)
    return {
        "config": cfg,
        "num_ids": ds.num_id_classes,
        "train": enc.encode_many(ds.train, ds)[:48],
        "valid": enc.encode_many(ds.valid, ds)[:24],
    }


def _train_and_predict(splits):
    cfg = splits["config"]
    model = Emba(BertModel(cfg, np.random.default_rng(0)), cfg.hidden_size,
                 splits["num_ids"], np.random.default_rng(1))
    trainer = Trainer(TrainConfig(epochs=2, learning_rate=1e-3, seed=0,
                                  patience=4))
    result = trainer.fit(model, splits["train"], splits["valid"])
    engine = InferenceEngine(model, config=EngineConfig(batch_size=16))
    out = engine.score_encoded(splits["valid"])
    return result, out, engine.stats


class TestSeedDeterminism:
    def test_two_runs_byte_identical(self, splits):
        result_a, out_a, stats_a = _train_and_predict(splits)
        result_b, out_b, stats_b = _train_and_predict(splits)

        # Training metrics: exactly equal, not just close.
        assert result_a.train_losses == result_b.train_losses
        assert result_a.valid_f1s == result_b.valid_f1s
        assert result_a.best_valid_f1 == result_b.best_valid_f1
        assert result_a.best_epoch == result_b.best_epoch
        assert result_a.epochs_run == result_b.epochs_run

        # Predictions: byte-identical arrays.
        for key in ("em_prob", "em_pred", "id1_pred", "id2_pred"):
            assert out_a[key].tobytes() == out_b[key].tobytes(), key

        # EngineStats counters: identical work performed (wall time is
        # the only legitimately nondeterministic field).
        for field in ("pairs_scored", "batches", "token_cells", "real_tokens",
                      "encode_hits", "encode_misses", "record_hits",
                      "record_misses"):
            assert getattr(stats_a, field) == getattr(stats_b, field), field

    def test_different_seed_changes_predictions(self, splits):
        # Sensitivity check: the comparison above is not vacuous.
        cfg = splits["config"]
        probs = []
        for seed in (2, 3):
            model = Emba(BertModel(cfg, np.random.default_rng(seed)),
                         cfg.hidden_size, splits["num_ids"],
                         np.random.default_rng(seed + 10))
            engine = InferenceEngine(model, config=EngineConfig(batch_size=16))
            probs.append(engine.score_encoded(splits["valid"])["em_prob"])
        assert probs[0].tobytes() != probs[1].tobytes()
