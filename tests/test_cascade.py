"""Staged scoring stack: dual-encoder parity, scoped memo keys, cascade."""

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder, collate
from repro.data.schema import EntityPair, EntityRecord
from repro.engine import (
    CascadeScorer,
    EngineConfig,
    InferenceEngine,
    encoder_fingerprint,
    pair_encoder_fingerprint,
    scoped_key,
)
from repro.eval.threshold import (
    CascadeBand,
    calibrate_cascade_band,
    cascade_predictions,
)
from repro.models import EmbaDual
from repro.models.base import EMModel, EMOutput
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.text import WordPieceTokenizer, train_wordpiece

VOCAB_WORDS = ("sandisk ultra compactflash card 4gb retail transcend 300x "
               "samsung evo ssd 1tb lexar pro sd 32gb usb stick flash").split()

CORPUS = [" ".join(VOCAB_WORDS[i:i + 6]) for i in range(0, len(VOCAB_WORDS), 3)] * 2

CFG = BertConfig(vocab_size=400, hidden_size=16, num_layers=1, num_heads=2,
                 intermediate_size=32, max_position=96, dropout=0.0,
                 attention_dropout=0.0)


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=400))


@pytest.fixture(scope="module")
def encoder(tokenizer):
    return PairEncoder(tokenizer, max_length=CFG.max_position)


@pytest.fixture(scope="module")
def dual_model(tokenizer):
    cfg = CFG.with_vocab(len(tokenizer.vocab))
    bert = BertModel(cfg, np.random.default_rng(0))
    model = EmbaDual(bert, cfg.hidden_size, 4, np.random.default_rng(1))
    model.eval()
    return model


def _random_records(rng, count, min_words=1, max_words=12):
    records = []
    for _ in range(count):
        n = int(rng.integers(min_words, max_words + 1))
        words = rng.choice(VOCAB_WORDS, size=n)
        records.append(EntityRecord.from_dict({"t": " ".join(words)}))
    return records


def _random_pairs(rng, num_records=8, num_pairs=25):
    records = _random_records(rng, num_records)
    return [
        EntityPair(records[int(rng.integers(num_records))],
                   records[int(rng.integers(num_records))],
                   int(rng.integers(2)))
        for _ in range(num_pairs)
    ]


class _BiasModel(EMModel):
    """Logit = scale * (record1 length - 4) + bias: fully predictable."""

    def __init__(self, scale: float = 0.8, bias: float = 0.0):
        super().__init__()
        self.w = Parameter(np.array([scale], dtype=np.float32))
        self.bias = bias

    def forward(self, batch):
        n1 = Tensor(batch.mask1.sum(axis=1, keepdims=True))
        logits = ((n1 - 4.0) * self.w).sum(axis=1) + self.bias
        return EMOutput(em_logits=logits)


# ----------------------------------------------------------------------
# Tentpole guarantee: dual-encoder output is bit-identical to the naive
# per-pair recompute, through both memo miss and memo hit paths.
# ----------------------------------------------------------------------
class TestDualEncoderParity:
    @pytest.mark.parametrize("seed,batch_size", [(0, 1), (1, 4), (2, 16)])
    def test_engine_bitwise_equals_naive(self, dual_model, encoder,
                                         seed, batch_size):
        rng = np.random.default_rng(seed)
        pairs = _random_pairs(rng)
        naive = np.concatenate([
            dual_model.predict(collate([encoder.encode(p)]))["em_prob"]
            for p in pairs
        ])
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=batch_size))
        cold = engine.score_pairs(pairs)   # record cache empty: miss path
        warm = engine.score_pairs(pairs)   # record cache full: hit path
        np.testing.assert_array_equal(cold["em_prob"], naive)
        np.testing.assert_array_equal(warm["em_prob"], naive)
        # ID heads ride the same stitched sequence: identical too.
        np.testing.assert_array_equal(cold["id1_pred"], warm["id1_pred"])
        np.testing.assert_array_equal(cold["id2_pred"], warm["id2_pred"])

    def test_training_forward_matches_engine(self, dual_model, encoder):
        """model(batch) (the training path) agrees with the engine."""
        rng = np.random.default_rng(3)
        pairs = _random_pairs(rng, num_pairs=9)
        batch = collate([encoder.encode(p) for p in pairs])
        direct = dual_model.predict(batch)["em_prob"]
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=4))
        np.testing.assert_array_equal(engine.score_pairs(pairs)["em_prob"],
                                      direct)

    def test_record_memo_hits_on_blocking_shape(self, dual_model, encoder):
        """Each record in many pairs => far fewer encodes than 2x pairs."""
        rng = np.random.default_rng(5)
        pairs = _random_pairs(rng, num_records=5, num_pairs=30)
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=8))
        engine.score_pairs(pairs)
        stats = engine.stats
        assert stats.record_hits + stats.record_misses == 2 * len(pairs)
        assert stats.record_misses <= 2 * 5 * 2   # ~records x few lengths
        assert stats.record_hit_rate > 0.5


# ----------------------------------------------------------------------
# Satellite: encoder-scoped cache keys cannot collide across encoders
# ----------------------------------------------------------------------
class TestEncoderScopedKeys:
    def test_same_config_different_weights_differ(self, tokenizer):
        cfg = CFG.with_vocab(len(tokenizer.vocab))
        a = BertModel(cfg, np.random.default_rng(0))
        b = BertModel(cfg, np.random.default_rng(99))
        assert encoder_fingerprint(a) != encoder_fingerprint(b)

    def test_fingerprint_deterministic(self, tokenizer):
        cfg = CFG.with_vocab(len(tokenizer.vocab))
        model = BertModel(cfg, np.random.default_rng(0))
        assert encoder_fingerprint(model) == encoder_fingerprint(model)

    def test_fingerprint_tracks_weight_updates(self, tokenizer):
        cfg = CFG.with_vocab(len(tokenizer.vocab))
        model = BertModel(cfg, np.random.default_rng(0))
        before = encoder_fingerprint(model)
        param = next(iter(model.parameters()))
        param.data = param.data + 0.25
        assert encoder_fingerprint(model) != before

    def test_pair_encoder_fingerprint_tracks_vocab(self, encoder):
        other_tok = WordPieceTokenizer(
            train_wordpiece(CORPUS[:3], vocab_size=150))
        other = PairEncoder(other_tok, max_length=CFG.max_position)
        assert (pair_encoder_fingerprint(encoder)
                != pair_encoder_fingerprint(other))
        assert (pair_encoder_fingerprint(encoder)
                == pair_encoder_fingerprint(encoder))

    def test_scoped_keys_disjoint(self):
        assert scoped_key("enc_a", "d1") != scoped_key("enc_b", "d1")
        assert scoped_key("enc_a", "d1") != scoped_key("enc_a", "d2")

    def test_engine_keys_namespace_by_model(self, encoder, tokenizer):
        cfg = CFG.with_vocab(len(tokenizer.vocab))
        m1 = EmbaDual(BertModel(cfg, np.random.default_rng(0)),
                      cfg.hidden_size, 4, np.random.default_rng(1))
        m2 = EmbaDual(BertModel(cfg, np.random.default_rng(50)),
                      cfg.hidden_size, 4, np.random.default_rng(51))
        m1.eval(), m2.eval()
        e1 = InferenceEngine(m1, encoder)
        e2 = InferenceEngine(m2, encoder)
        assert e1.model_fingerprint() != e2.model_fingerprint()
        # Identical pair encoders hash identically (token cache shares).
        assert e1.encode_fingerprint() == e2.encode_fingerprint()


# ----------------------------------------------------------------------
# Satellite: per-encoder memo counters in EngineStats
# ----------------------------------------------------------------------
class TestPerEncoderStats:
    def test_counters_keyed_by_fingerprint(self, dual_model, encoder):
        engine = InferenceEngine(dual_model, encoder,
                                 EngineConfig(batch_size=8))
        rng = np.random.default_rng(6)
        engine.score_pairs(_random_pairs(rng, num_records=4, num_pairs=15))
        stats = engine.stats
        model_fp = engine.model_fingerprint()
        token_fp = engine.encode_fingerprint()
        assert "record" in stats.memo_by_encoder[model_fp]
        assert "token" in stats.memo_by_encoder[token_fp]
        counters = stats.memo_by_encoder[model_fp]["record"]
        assert counters["hits"] + counters["misses"] == 2 * 15
        rates = stats.encoder_hit_rates()
        assert 0.0 <= rates[model_fp]["record"] <= 1.0

    def test_snapshot_is_isolated_and_resettable(self, dual_model, encoder):
        engine = InferenceEngine(dual_model, encoder)
        rng = np.random.default_rng(7)
        engine.score_pairs(_random_pairs(rng, num_pairs=6))
        snapshot = engine.stats
        snapshot.memo_by_encoder.clear()
        assert engine.stats.memo_by_encoder   # deep copy: engine unaffected
        engine.reset_stats()
        reset = engine.stats
        assert reset.memo_by_encoder == {}
        assert reset.record_hits == reset.record_misses == 0


# ----------------------------------------------------------------------
# Cascade scorer: routing, stats, calibration
# ----------------------------------------------------------------------
class TestCascadeScorer:
    def _engines(self, encoder, cheap_scale=0.8, full_bias=2.0):
        cheap = InferenceEngine(_BiasModel(scale=cheap_scale), encoder,
                                EngineConfig(batch_size=8))
        full = InferenceEngine(_BiasModel(scale=0.0, bias=full_bias), encoder,
                               EngineConfig(batch_size=8))
        return cheap, full

    def test_band_routes_and_full_decides(self, encoder):
        rng = np.random.default_rng(8)
        pairs = _random_pairs(rng, num_pairs=30)
        cheap, full = self._engines(encoder)   # full always says "match"
        scorer = CascadeScorer(cheap, full,
                               CascadeBand(0.35, 0.65, 0.0, 0.0, 0.0))
        out = scorer.score_pairs(pairs)
        cheap_probs = out["cheap_prob"]
        expected_band = (cheap_probs >= 0.35) & (cheap_probs <= 0.65)
        np.testing.assert_array_equal(out["escalated"], expected_band)
        # Outside the band the cheap decision stands; inside, the full
        # model (always-match) decides.
        np.testing.assert_array_equal(
            out["em_pred"][~expected_band],
            (cheap_probs[~expected_band] > 0.65).astype(int))
        assert (out["em_pred"][expected_band] == 1).all()
        # em_prob carries the deciding stage's probability.
        assert (out["em_prob"][expected_band] > 0.85).all()

    def test_stats_track_escalations(self, encoder):
        rng = np.random.default_rng(9)
        pairs = _random_pairs(rng, num_pairs=20)
        cheap, full = self._engines(encoder)
        scorer = CascadeScorer(cheap, full,
                               CascadeBand(0.35, 0.65, 0.0, 0.0, 0.0))
        out = scorer.score_pairs(pairs)
        stats = scorer.stats
        assert stats.pairs_scored == 20
        assert stats.escalated == int(out["escalated"].sum())
        assert stats.escalate_fraction == pytest.approx(
            out["escalated"].mean())
        assert stats.full.pairs_scored == stats.escalated
        scorer.reset_stats()
        assert scorer.stats.pairs_scored == 0

    def test_all_escalate_band_equals_full_engine(self, encoder):
        rng = np.random.default_rng(10)
        pairs = _random_pairs(rng, num_pairs=15)
        cheap, full = self._engines(encoder)
        scorer = CascadeScorer(cheap, full,
                               CascadeBand(0.0, 1.0, 1.0, 0.0, 0.0))
        out = scorer.score_pairs(pairs)
        reference = full.score_pairs(pairs)
        assert out["escalated"].all()
        np.testing.assert_array_equal(out["em_pred"], reference["em_pred"])

    def test_calibrated_constructor_preserves_f1(self, encoder):
        rng = np.random.default_rng(11)
        records = _random_records(rng, 8, min_words=2, max_words=10)
        pairs = [EntityPair(records[int(rng.integers(8))],
                            records[int(rng.integers(8))],
                            int(rng.integers(2))) for _ in range(40)]
        cheap, full = self._engines(encoder, cheap_scale=0.4)
        encoded = cheap.encode_pairs(pairs)
        scorer = CascadeScorer.calibrated(cheap, full, encoded,
                                          tolerance=0.01)
        assert 0.0 <= scorer.band.low <= scorer.band.high <= 1.0
        assert scorer.band.cascade_f1 >= scorer.band.full_f1 - 0.01
        out = scorer.score_encoded(encoded)
        assert out["em_pred"].shape == (len(pairs),)

    def test_empty_input(self, encoder):
        cheap, full = self._engines(encoder)
        scorer = CascadeScorer(cheap, full,
                               CascadeBand(0.4, 0.6, 0.0, 0.0, 0.0))
        out = scorer.score_encoded([])
        assert out["em_prob"].shape == (0,)
        assert out["escalated"].shape == (0,)


class TestCalibrateBand:
    def test_sharp_cheap_model_escalates_little(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=200)
        # Cheap scores agree with the full model and separate cleanly.
        full = np.where(labels == 1, 0.9, 0.1) + rng.normal(0, 0.02, 200)
        cheap = full + rng.normal(0, 0.02, 200)
        band = calibrate_cascade_band(labels, cheap, full, tolerance=0.01)
        assert band.escalate_fraction < 0.2
        assert band.cascade_f1 >= band.full_f1 - 0.01

    def test_useless_cheap_model_escalates_all(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=120)
        cheap = np.full(120, 0.5)
        full = np.where(labels == 1, 0.8, 0.2)
        band = calibrate_cascade_band(labels, cheap, full, tolerance=0.0)
        assert band.escalate_fraction == 1.0
        assert band.cascade_f1 == pytest.approx(band.full_f1)

    def test_tolerance_is_respected_on_validation(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=150)
        cheap = np.clip(labels * 0.6 + rng.normal(0.2, 0.2, 150), 0, 1)
        full = np.where(labels == 1, 0.85, 0.15)
        for tolerance in (0.0, 0.01, 0.05):
            band = calibrate_cascade_band(labels, cheap, full,
                                          tolerance=tolerance)
            assert band.cascade_f1 >= band.full_f1 - tolerance - 1e-12

    def test_wider_tolerance_never_escalates_more(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=150)
        cheap = np.clip(labels * 0.5 + rng.normal(0.25, 0.25, 150), 0, 1)
        full = np.where(labels == 1, 0.9, 0.1)
        tight = calibrate_cascade_band(labels, cheap, full, tolerance=0.0)
        loose = calibrate_cascade_band(labels, cheap, full, tolerance=0.05)
        assert loose.escalate_fraction <= tight.escalate_fraction

    def test_degenerate_inputs(self):
        empty = calibrate_cascade_band(np.zeros(0), np.zeros(0), np.zeros(0))
        assert (empty.low, empty.high) == (0.0, 1.0)
        with pytest.raises(ValueError):
            calibrate_cascade_band(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_cascade_predictions_routing(self):
        cheap = np.array([0.1, 0.45, 0.5, 0.55, 0.9])
        full = np.array([0.9, 0.1, 0.9, 0.1, 0.1])
        preds, escalated = cascade_predictions(cheap, full, 0.4, 0.6)
        np.testing.assert_array_equal(escalated, [False, True, True, True, False])
        np.testing.assert_array_equal(preds, [0, 0, 1, 0, 1])


# ----------------------------------------------------------------------
# Determinism regression: serving the cascade concurrently must score
# exactly like serial, direct submission — interleaving across client
# connections cannot perturb a score (batch-shape invariance + the
# serial per-worker executor).
# ----------------------------------------------------------------------
class TestServedCascadeDeterminism:
    def test_concurrent_interleaving_equals_serial(self, dual_model, encoder):
        import threading

        from repro.serve import MatchScorer, MatchServer, ServeClient, \
            ServeConfig, ServerHandle

        rng = np.random.default_rng(21)
        records = _random_records(rng, 8)
        requests = [(dict(records[int(rng.integers(8))].attributes),
                     dict(records[int(rng.integers(8))].attributes))
                    for _ in range(24)]
        pairs = [EntityPair(EntityRecord.from_dict(left),
                            EntityRecord.from_dict(right), 0)
                 for left, right in requests]

        def cascade_factory(model):
            cheap = InferenceEngine(model, encoder, EngineConfig(batch_size=8))
            full = InferenceEngine(_BiasModel(scale=0.0, bias=2.0), encoder,
                                   EngineConfig(batch_size=8))
            return CascadeScorer(cheap, full,
                                 CascadeBand(0.35, 0.65, 0.0, 0.0, 0.0))

        serial = cascade_factory(dual_model).score_pairs(pairs)
        server = MatchServer(
            lambda: MatchScorer(cascade_factory, dual_model),
            ServeConfig(port=0, max_batch=5, max_delay=0.001))
        results: dict[int, list] = {}
        with ServerHandle(server) as (host, port):
            def hammer(worker_id):
                with ServeClient(host, port) as client:
                    results[worker_id] = client.match_many(requests)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for responses in results.values():
            for i, response in enumerate(responses):
                assert response["score"] == float(serial["em_prob"][i])
                assert response["is_match"] == bool(serial["em_pred"][i])
