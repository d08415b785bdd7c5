"""Golden digests and engine-vs-naive differential parity."""

import json

import numpy as np
import pytest

from repro.verify import golden


class TestGoldenDigests:
    def test_stored_digests_exist(self):
        for name in golden.WORKLOADS:
            assert golden.golden_path(name).exists(), (
                f"missing golden file for {name}; run "
                f"`python -m repro.verify.golden --regen`")

    @pytest.mark.parametrize("name", sorted(golden.WORKLOADS))
    def test_digest_matches(self, name):
        mismatches = golden.check([name])[name]
        assert not mismatches, "\n".join(mismatches[:10])

    def test_workloads_are_deterministic(self):
        # Two in-process runs of the same workload must agree exactly.
        a = golden.workload_emba_multitask()
        b = golden.workload_emba_multitask()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_engine_stats_counts_pinned_exactly(self):
        stored = json.loads(
            golden.golden_path("engine_bucketed").read_text(encoding="utf-8"))
        computed = golden.workload_engine_bucketed()
        assert stored["stats"] == computed["stats"]
        assert stored["em_pred"] == computed["em_pred"]

    def test_compare_flags_drift(self):
        stored = golden.workload_emba_multitask()
        drifted = json.loads(json.dumps(stored))
        drifted["loss"] = stored["loss"] * (1 + 1e-3)
        mismatches = []
        golden._compare("emba", stored, drifted, mismatches)
        assert any("loss" in m for m in mismatches)


class TestEngineNaiveParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_bert(self, seed):
        gap = golden.engine_naive_parity(seed, use_fasttext=False)
        assert gap <= golden.PARITY_TOLERANCE

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_fasttext_memoized(self, seed):
        # Position-independent encoder: also exercises the engine's
        # record memo and the late-interaction pairwise head.
        gap = golden.engine_naive_parity(seed, use_fasttext=True)
        assert gap <= golden.PARITY_TOLERANCE

    def test_parity_tolerance_is_meaningful(self):
        # Sanity that the harness can detect divergence at all: two
        # differently-seeded models disagree far beyond the tolerance.
        probs0 = _probs_for_seed(100)
        probs1 = _probs_for_seed(101)
        assert np.abs(probs0 - probs1).max() > golden.PARITY_TOLERANCE


def _probs_for_seed(seed):
    from repro.bert.model import BertModel
    from repro.engine import EngineConfig, InferenceEngine
    from repro.models import Emba

    rng = np.random.default_rng(seed)
    model = Emba(BertModel(golden._tiny_config(), rng), golden._HIDDEN, 3, rng)
    model.eval()
    pairs = golden._random_encoded_pairs(np.random.default_rng(7), 10)
    engine = InferenceEngine(model, config=EngineConfig(batch_size=4))
    return engine.score_encoded(pairs)["em_prob"]
