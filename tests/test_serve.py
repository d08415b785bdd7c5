"""Serving test battery: protocol fuzzing, micro-batching, backpressure,
hot-swap, sharding, and crash containment for ``repro serve``.

The daemon runs on a background event loop (``ServerHandle``) against an
ephemeral port; every scheduling property is driven through the pure
:class:`BatchQueue` with a :class:`tests.helpers.FakeClock` — no
sleep-and-hope.  The end-to-end invariant checked throughout: a served
score is **bit-identical** to calling ``engine.score_pairs`` directly.
"""

import json
import threading

import numpy as np
import pytest

from repro.bert.config import BertConfig
from repro.bert.model import BertModel
from repro.data.loader import PairEncoder
from repro.data.schema import EntityPair, EntityRecord
from repro.engine import EngineConfig, InferenceEngine
from repro.ft.faults import FaultPlan, PoisonPairs, inject
from repro.models import EmbaDual
from repro.models.base import EMModel, EMOutput
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.serve import (
    BatchQueue,
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_OVERLOADED,
    E_SWAP_FAILED,
    E_TOO_LARGE,
    E_UNKNOWN_OP,
    MatchScorer,
    MatchServer,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServeLimits,
    ServerHandle,
    decode_response,
    encode_response,
    parse_request,
    publish_model,
    shard_of,
)
from repro.text import WordPieceTokenizer, train_wordpiece
from tests.helpers import FakeClock

VOCAB_WORDS = ("sandisk ultra compactflash card 4gb retail transcend 300x "
               "samsung evo ssd 1tb lexar pro sd 32gb usb stick flash").split()

CORPUS = [" ".join(VOCAB_WORDS[i:i + 6])
          for i in range(0, len(VOCAB_WORDS), 3)] * 2

CFG = BertConfig(vocab_size=400, hidden_size=16, num_layers=1, num_heads=2,
                 intermediate_size=32, max_position=96, dropout=0.0,
                 attention_dropout=0.0)


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer(train_wordpiece(CORPUS, vocab_size=400))


@pytest.fixture(scope="module")
def encoder(tokenizer):
    return PairEncoder(tokenizer, max_length=CFG.max_position)


def _dual_model(tokenizer, seed=0):
    cfg = CFG.with_vocab(len(tokenizer.vocab))
    bert = BertModel(cfg, np.random.default_rng(seed))
    model = EmbaDual(bert, cfg.hidden_size, 4, np.random.default_rng(seed + 1))
    model.eval()
    return model


@pytest.fixture(scope="module")
def dual_model(tokenizer):
    return _dual_model(tokenizer)


def _engine_factory(encoder, batch_size=8):
    return lambda model: InferenceEngine(
        model, encoder, EngineConfig(batch_size=batch_size))


def _scorer_factory(model, encoder, batch_size=8):
    return lambda: MatchScorer(_engine_factory(encoder, batch_size), model)


def _random_requests(rng, count, num_records=8):
    records = []
    for _ in range(num_records):
        n = int(rng.integers(1, 10))
        records.append({"t": " ".join(rng.choice(VOCAB_WORDS, size=n))})
    return [(records[int(rng.integers(num_records))],
             records[int(rng.integers(num_records))])
            for _ in range(count)]


def _to_pair(left, right):
    return EntityPair(EntityRecord.from_dict(left),
                      EntityRecord.from_dict(right), 0)


# ======================================================================
# Protocol: parsing, validation, fuzzing (pure — no sockets)
# ======================================================================
class TestProtocol:
    def test_match_roundtrip_flat_record(self):
        line = json.dumps({"op": "match", "id": 7,
                           "left": {"title": "sandisk 4gb"},
                           "right": {"title": "sandisk ultra 4gb"}})
        request = parse_request(line)
        assert request.op == "match" and request.id == 7
        assert request.left.attributes == (("title", "sandisk 4gb"),)
        pair = request.pair()
        assert pair.label == 0
        assert pair.record2.attributes == (("title", "sandisk ultra 4gb"),)

    def test_match_structured_record(self):
        line = json.dumps({
            "op": "match",
            "left": {"attributes": {"t": "lexar pro"}, "entity_id": "e1",
                     "source": "amazon"},
            "right": {"t": "lexar"},
        })
        request = parse_request(line)
        assert request.left.entity_id == "e1"
        assert request.left.source == "amazon"
        assert request.right.entity_id is None

    def test_scalar_values_coerced_to_strings(self):
        request = parse_request(json.dumps({
            "op": "match",
            "left": {"price": 42, "stock": True, "note": None},
            "right": {"price": 3.5},
        }))
        assert dict(request.left.attributes) == {
            "price": "42", "stock": "True", "note": ""}
        assert dict(request.right.attributes) == {"price": "3.5"}

    def test_truncated_json_is_bad_json(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "match", "left": {"t"')
        assert info.value.code == E_BAD_JSON

    @pytest.mark.parametrize("payload", [b"[1, 2]", b'"match"', b"42", b"null"])
    def test_non_object_json_is_bad_json(self, payload):
        with pytest.raises(ProtocolError) as info:
            parse_request(payload)
        assert info.value.code == E_BAD_JSON

    def test_missing_op_is_bad_request(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"left": {}, "right": {}}')
        assert info.value.code == E_BAD_REQUEST

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "explode"}')
        assert info.value.code == E_UNKNOWN_OP

    def test_match_missing_records(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "match", "left": {"t": "x"}}')
        assert info.value.code == E_BAD_REQUEST

    def test_record_must_be_object(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(json.dumps(
                {"op": "match", "left": "sandisk", "right": {}}))
        assert info.value.code == E_BAD_REQUEST

    def test_structured_attribute_value_rejected(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(json.dumps({
                "op": "match", "left": {"t": {"nested": 1}}, "right": {}}))
        assert info.value.code == E_BAD_REQUEST

    def test_error_carries_request_id(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(json.dumps({"op": "match", "id": "abc"}))
        assert info.value.request_id == "abc"
        response = info.value.response(info.value.request_id)
        assert response["id"] == "abc"
        assert response["error"]["code"] == E_BAD_REQUEST

    def test_oversized_line_rejected(self):
        limits = ServeLimits(max_line_bytes=128)
        line = json.dumps({"op": "match", "left": {"t": "x" * 500},
                           "right": {}})
        with pytest.raises(ProtocolError) as info:
            parse_request(line, limits)
        assert info.value.code == E_TOO_LARGE

    def test_too_many_attributes_rejected(self):
        limits = ServeLimits(max_attributes=4)
        left = {f"a{i}": "v" for i in range(5)}
        with pytest.raises(ProtocolError) as info:
            parse_request(json.dumps({"op": "match", "left": left,
                                      "right": {}}), limits)
        assert info.value.code == E_TOO_LARGE

    def test_oversized_attribute_value_rejected(self):
        limits = ServeLimits(max_value_chars=16)
        with pytest.raises(ProtocolError) as info:
            parse_request(json.dumps({
                "op": "match", "left": {"t": "y" * 17}, "right": {}}), limits)
        assert info.value.code == E_TOO_LARGE

    def test_swap_ref_validated(self):
        assert parse_request(b'{"op": "swap"}').ref == "latest"
        assert parse_request(b'{"op": "swap", "ref": "run-7"}').ref == "run-7"
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "swap", "ref": ""}')
        assert info.value.code == E_BAD_REQUEST

    def test_fuzz_garbage_only_raises_protocol_error(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80)),
                                      dtype=np.uint8))
            try:
                parse_request(blob)
            except ProtocolError:
                pass  # the only exception untrusted input may produce

    def test_fuzz_mutated_valid_frames(self):
        rng = np.random.default_rng(1)
        base = json.dumps({"op": "match", "id": 3,
                           "left": {"t": "sandisk ultra"},
                           "right": {"t": "samsung evo"}}).encode()
        for _ in range(300):
            blob = bytearray(base)
            for _ in range(int(rng.integers(1, 6))):
                blob[int(rng.integers(len(blob)))] = int(rng.integers(0, 256))
            try:
                parse_request(bytes(blob))
            except ProtocolError:
                pass

    def test_float_scores_roundtrip_exactly(self):
        # float32 -> float64 widening is exact and json round-trips
        # float64 via repr: the wire cannot perturb a served score.
        rng = np.random.default_rng(2)
        for value in rng.random(50, dtype=np.float32):
            score = float(value)
            frame = encode_response({"score": score, "is_match": True})
            assert decode_response(frame)["score"] == score

    def test_encode_response_is_one_line(self):
        frame = encode_response({"score": 0.5, "is_match": False})
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1


# ======================================================================
# Micro-batcher: size/deadline/FIFO properties on a fake clock
# ======================================================================
class TestBatchQueue:
    def test_empty_queue_cuts_nothing(self):
        queue = BatchQueue(clock=FakeClock())
        assert queue.cut() == (None, None)
        assert queue.deadline() is None

    def test_below_size_waits_exactly_until_deadline(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=8, max_delay=0.005, clock=clock)
        queue.offer("a")
        clock.advance(0.002)
        batch, wait = queue.cut()
        assert batch is None
        assert wait == pytest.approx(0.003)

    def test_deadline_cut_is_partial_and_fifo(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=8, max_delay=0.005, clock=clock)
        for item in ("a", "b", "c"):
            queue.offer(item)
        clock.advance(0.005)
        batch, wait = queue.cut()
        assert batch == ["a", "b", "c"] and wait is None
        assert queue.depth == 0

    def test_size_cut_fires_before_deadline(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=3, max_delay=10.0, clock=clock)
        for item in range(3):
            queue.offer(item)
        batch, _ = queue.cut()
        assert batch == [0, 1, 2]

    def test_size_cut_leaves_overflow_queued_in_order(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=2, max_delay=10.0, clock=clock)
        for item in range(5):
            queue.offer(item)
        assert queue.cut()[0] == [0, 1]
        assert queue.cut()[0] == [2, 3]
        assert queue.depth == 1
        batch, wait = queue.cut()
        assert batch is None and wait == pytest.approx(10.0)

    def test_batch_never_exceeds_max_batch_at_deadline(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=4, max_delay=0.001, clock=clock)
        for item in range(11):
            queue.offer(item)
        clock.advance(1.0)
        sizes = []
        while True:
            batch, _ = queue.cut()
            if batch is None:
                break
            sizes.append(len(batch))
        assert sizes == [4, 4, 3]

    def test_offer_rejects_at_capacity_without_state_change(self):
        queue = BatchQueue(max_batch=2, max_queue=3, clock=FakeClock())
        assert all(queue.offer(i) for i in range(3))
        assert not queue.offer(99)
        assert queue.depth == 3
        assert queue.offered == 4
        assert queue.rejected == 1
        assert queue.peak_depth == 3

    def test_capacity_frees_after_cut(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=2, max_queue=2, clock=clock)
        queue.offer("a"), queue.offer("b")
        assert not queue.offer("c")
        queue.cut()
        assert queue.offer("c")

    def test_zero_delay_cuts_any_queued_item(self):
        clock = FakeClock()
        queue = BatchQueue(max_batch=8, max_delay=0.0, clock=clock)
        queue.offer("a")
        batch, _ = queue.cut()
        assert batch == ["a"]

    def test_drain_returns_everything_fifo(self):
        queue = BatchQueue(clock=FakeClock())
        for item in range(4):
            queue.offer(item)
        assert queue.drain() == [0, 1, 2, 3]
        assert queue.depth == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BatchQueue(max_batch=0)
        with pytest.raises(ValueError):
            BatchQueue(max_delay=-1.0)
        with pytest.raises(ValueError):
            BatchQueue(max_queue=0)


# ======================================================================
# End-to-end: served scores == engine scores, bit for bit
# ======================================================================
@pytest.fixture(scope="module")
def served(dual_model, encoder):
    server = MatchServer(_scorer_factory(dual_model, encoder),
                         ServeConfig(port=0, max_batch=8, max_delay=0.002))
    with ServerHandle(server) as (host, port):
        yield server, host, port


class TestServedScoring:
    def test_single_match_bitwise_parity(self, served, dual_model, encoder):
        _, host, port = served
        left, right = {"t": "sandisk ultra card 4gb"}, {"t": "samsung evo ssd"}
        direct = _engine_factory(encoder)(dual_model).score_pairs(
            [_to_pair(left, right)])
        with ServeClient(host, port) as client:
            response = client.match(left, right)
        assert response["score"] == float(direct["em_prob"][0])
        assert response["is_match"] == bool(direct["em_pred"][0])

    def test_pipelined_batch_parity_and_order(self, served, dual_model,
                                              encoder):
        _, host, port = served
        rng = np.random.default_rng(10)
        requests = _random_requests(rng, 30)
        direct = _engine_factory(encoder)(dual_model).score_pairs(
            [_to_pair(l, r) for l, r in requests])
        with ServeClient(host, port) as client:
            responses = client.match_many(requests)
        assert len(responses) == 30
        for i, response in enumerate(responses):
            assert response["score"] == float(direct["em_prob"][i])

    def test_malformed_lines_leave_connection_usable(self, served):
        _, host, port = served
        with ServeClient(host, port) as client:
            client.send({"op": "wat"})
            assert client.read_response()["error"]["code"] == E_UNKNOWN_OP
            client._file.write(b'{"op": "match", "left"\n')
            client._file.flush()
            assert client.read_response()["error"]["code"] == E_BAD_JSON
            client._file.write(b"\n\n")  # blank lines are skipped, not answered
            client._file.flush()
            response = client.match({"t": "usb stick"}, {"t": "usb stick"})
            assert "score" in response

    def test_oversized_frame_answered_connection_survives(
            self, dual_model, encoder):
        # A terminated oversized line can be resynced: the daemon answers
        # with a structured error and keeps the connection.
        config = ServeConfig(port=0, limits=ServeLimits(max_line_bytes=256))
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                client._file.write(b'{"op": "match", "pad": "%s"}\n'
                                   % (b"x" * 1024))
                client._file.flush()
                assert client.read_response()["error"]["code"] == E_TOO_LARGE
                assert client.health()["ok"] is True

    def test_unterminated_oversized_stream_answered_then_closed(
            self, dual_model, encoder):
        # With no newline in sight past the limit the stream can never be
        # resynced: answer once, then hang up.
        config = ServeConfig(port=0, limits=ServeLimits(max_line_bytes=256))
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                client._file.write(b"x" * 100_000)  # no newline, ever
                client._file.flush()
                assert client.read_response()["error"]["code"] == E_TOO_LARGE
                with pytest.raises(ConnectionError):
                    client.read_response()

    def test_health_op(self, served):
        server, host, port = served
        with ServeClient(host, port) as client:
            health = client.health()
        assert health["ok"] is True
        assert health["workers"] == 1 and health["sharded"] is False
        assert health["uptime_s"] >= 0

    def test_stats_counters_and_percentiles(self, served):
        _, host, port = served
        with ServeClient(host, port) as client:
            client.match_many(_random_requests(np.random.default_rng(11), 12))
            stats = client.stats()
        assert stats["completed"] >= 12
        assert stats["batches"] >= 1
        assert stats["mean_batch_size"] > 0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] >= 0
        assert stats["pairs_per_s"] > 0
        assert stats["workers"][0]["offered"] >= 12

    def test_concurrent_clients_all_answered(self, served, dual_model,
                                             encoder):
        _, host, port = served
        rng = np.random.default_rng(12)
        requests = _random_requests(rng, 16)
        direct = _engine_factory(encoder)(dual_model).score_pairs(
            [_to_pair(l, r) for l, r in requests])
        results: dict[int, list] = {}

        def hammer(worker_id):
            with ServeClient(host, port) as client:
                results[worker_id] = client.match_many(requests)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for responses in results.values():
            for i, response in enumerate(responses):
                assert response["score"] == float(direct["em_prob"][i])

    def test_match_after_engine_warm_is_identical(self, served):
        # The record memo warming across requests must not change scores.
        _, host, port = served
        left, right = {"t": "lexar pro sd 32gb"}, {"t": "lexar pro sd"}
        with ServeClient(host, port) as client:
            cold = client.match(left, right)
            warm = client.match(left, right)
        assert cold["score"] == warm["score"]

    def test_shutdown_op_stops_daemon(self, dual_model, encoder):
        server = MatchServer(_scorer_factory(dual_model, encoder),
                             ServeConfig(port=0))
        handle = ServerHandle(server)
        host, port = handle.start()
        try:
            assert server.running
            with ServeClient(host, port) as client:
                assert client.request({"op": "shutdown"})["ok"] is True
            deadline = threading.Event()
            for _ in range(200):
                if not server.running:
                    break
                deadline.wait(0.01)
            assert not server.running
        finally:
            handle.stop()


# ======================================================================
# Backpressure: bounded admission, explicit rejection, drain
# ======================================================================
class _LenModel(EMModel):
    """Logit from record-1 length: predictable, cross-encoder shaped."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([0.3], dtype=np.float32))

    def forward(self, batch):
        n1 = Tensor(batch.mask1.sum(axis=1, keepdims=True))
        return EMOutput(em_logits=((n1 - 4.0) * self.w).sum(axis=1))


class _GateModel(EMModel):
    """Forward blocks on an event; lets a test pin scoring in-flight."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.zeros(1, dtype=np.float32))
        self.entered = threading.Event()
        self.gate = threading.Event()

    def forward(self, batch):
        self.entered.set()
        assert self.gate.wait(30), "test gate never released"
        n1 = Tensor(batch.mask1.sum(axis=1, keepdims=True))
        logits = (n1 * 0.1 + self.w).sum(axis=1)
        return EMOutput(em_logits=logits)


class TestBackpressure:
    def test_queue_full_rejects_then_drains(self, encoder):
        model = _GateModel()
        model.eval()
        config = ServeConfig(port=0, max_batch=1, max_delay=0.0, max_queue=4)
        server = MatchServer(_scorer_factory(model, encoder, batch_size=1),
                             config)
        requests = _random_requests(np.random.default_rng(13), 6)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                # First request enters the (gated) engine forward...
                client.send({"op": "match", "id": 0,
                             "left": requests[0][0], "right": requests[0][1]})
                assert model.entered.wait(10)
                # ...the next 4 fill the queue, the 6th must be rejected.
                for i, (left, right) in enumerate(requests[1:], start=1):
                    client.send({"op": "match", "id": i,
                                 "left": left, "right": right})
                responses = {}
                rejected = None
                # The rejection is answered immediately, before the gate
                # opens; everything else drains after.
                first = client.read_response()
                assert first["error"]["code"] == E_OVERLOADED
                rejected = first["id"]
                model.gate.set()
                for _ in range(5):
                    response = client.read_response()
                    responses[response["id"]] = response
                stats = client.stats()
        assert rejected == 5  # FIFO: the last submission overflowed
        assert sorted(responses) == [0, 1, 2, 3, 4]
        assert all("score" in r for r in responses.values())
        assert stats["rejected"] == 1
        assert stats["completed"] == 5

    def test_rejection_is_structured_not_a_disconnect(self, encoder):
        model = _GateModel()
        model.eval()
        config = ServeConfig(port=0, max_batch=1, max_delay=0.0, max_queue=1)
        server = MatchServer(_scorer_factory(model, encoder, batch_size=1),
                             config)
        requests = _random_requests(np.random.default_rng(14), 3)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                client.send({"op": "match", "id": 0,
                             "left": requests[0][0], "right": requests[0][1]})
                assert model.entered.wait(10)
                client.send({"op": "match", "id": 1,
                             "left": requests[1][0], "right": requests[1][1]})
                client.send({"op": "match", "id": 2,
                             "left": requests[2][0], "right": requests[2][1]})
                rejection = client.read_response()
                assert rejection["error"]["code"] == E_OVERLOADED
                assert rejection["id"] == 2
                model.gate.set()
                survivors = {client.read_response()["id"] for _ in range(2)}
                assert survivors == {0, 1}


# ======================================================================
# Hot-swap through the runs registry
# ======================================================================
class TestHotSwap:
    def test_swap_unknown_ref_is_structured_failure(self, dual_model, encoder,
                                                    tmp_path):
        config = ServeConfig(port=0, runs_root=tmp_path)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as info:
                    client.swap("no-such-run")
                assert info.value.code == E_SWAP_FAILED
                # The daemon survives a failed swap.
                assert "score" in client.match({"t": "usb"}, {"t": "usb"})

    def test_swap_run_without_weights_fails_cleanly(self, dual_model, encoder,
                                                    tmp_path):
        from repro.runs.store import RunStore

        RunStore(tmp_path).create(name="no-weights", kind="model").finish()
        config = ServeConfig(port=0, runs_root=tmp_path)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as info:
                    client.swap("no-weights")
                assert info.value.code == E_SWAP_FAILED

    def test_swap_serves_new_weights_bitwise(self, tokenizer, encoder,
                                             tmp_path):
        old_model = _dual_model(tokenizer, seed=0)
        new_model = _dual_model(tokenizer, seed=42)
        run_id = publish_model(new_model, name="retrained", root=tmp_path,
                               valid_f1=0.9)
        requests = _random_requests(np.random.default_rng(15), 10)
        pairs = [_to_pair(l, r) for l, r in requests]
        old_direct = _engine_factory(encoder)(old_model).score_pairs(pairs)
        new_direct = _engine_factory(encoder)(new_model).score_pairs(pairs)
        config = ServeConfig(port=0, runs_root=tmp_path)
        server = MatchServer(_scorer_factory(old_model, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                before = client.match_many(requests)
                swapped = client.swap("latest")
                after = client.match_many(requests)
                health = client.health()
        assert swapped["swapped"] == run_id
        assert health["weights_ref"] == run_id
        for i in range(len(requests)):
            assert before[i]["score"] == float(old_direct["em_prob"][i])
            assert after[i]["score"] == float(new_direct["em_prob"][i])

    def test_swap_under_inflight_load_drops_nothing(self, tokenizer, encoder,
                                                    tmp_path):
        """Requests racing several swaps are all answered, every score
        belonging to exactly one model version (old or new)."""
        model_a = _dual_model(tokenizer, seed=0)
        model_b = _dual_model(tokenizer, seed=42)
        publish_model(model_a, name="model-a", root=tmp_path)
        publish_model(model_b, name="model-b", root=tmp_path)
        requests = _random_requests(np.random.default_rng(16), 8)
        pairs = [_to_pair(l, r) for l, r in requests]
        scores_a = _engine_factory(encoder)(model_a).score_pairs(pairs)
        scores_b = _engine_factory(encoder)(model_b).score_pairs(pairs)
        valid = {
            i: {float(scores_a["em_prob"][i]), float(scores_b["em_prob"][i])}
            for i in range(len(requests))
        }
        config = ServeConfig(port=0, max_batch=4, max_delay=0.001,
                             runs_root=tmp_path)
        server = MatchServer(_scorer_factory(model_a, encoder), config)
        bad: list = []
        rounds = 0
        stop = threading.Event()

        def load():
            nonlocal rounds
            with ServeClient(host, port) as client:
                while not stop.is_set():
                    responses = client.match_many(requests)
                    rounds += 1
                    for i, response in enumerate(responses):
                        if response.get("score") not in valid[i]:
                            bad.append((i, response))

        with ServerHandle(server) as (host, port):
            loader = threading.Thread(target=load)
            with ServeClient(host, port) as swapper:
                loader.start()
                try:
                    for ref in ("model-b", "model-a", "model-b", "model-a"):
                        swapper.swap(ref)
                finally:
                    stop.set()
                    loader.join(30)
                final = swapper.match_many(requests)
        assert bad == []
        assert rounds >= 1  # the loader really ran during the swaps
        for i, response in enumerate(final):
            assert response["score"] in valid[i]

    def test_publish_and_resolve_roundtrip(self, tokenizer, tmp_path):
        from repro.serve import resolve_weights

        model = _dual_model(tokenizer, seed=3)
        run_id = publish_model(model, name="pub", root=tmp_path, em_f1=0.5)
        resolved_id, state = resolve_weights("pub", root=tmp_path)
        assert resolved_id == run_id
        original = model.state_dict()
        assert set(state) == set(original)
        for key in original:
            np.testing.assert_array_equal(state[key], original[key])


# ======================================================================
# Sharding: routing stability, cross-process parity, crash containment
# ======================================================================
class TestSharding:
    def test_shard_of_is_stable_and_bounded(self):
        rng = np.random.default_rng(17)
        records = [EntityRecord.from_dict(
            {"t": " ".join(rng.choice(VOCAB_WORDS, size=3))}, source="a")
            for _ in range(40)]
        for shards in (1, 2, 3, 8):
            for record in records:
                first = shard_of(record, shards)
                assert 0 <= first < max(shards, 1)
                assert shard_of(record, shards) == first

    def test_shard_of_single_shard_is_zero(self):
        record = EntityRecord.from_dict({"t": "x"})
        assert shard_of(record, 0) == 0
        assert shard_of(record, 1) == 0

    def test_shard_of_spreads_records(self):
        rng = np.random.default_rng(18)
        records = [EntityRecord.from_dict({"t": f"rec {i} "
                                           + " ".join(rng.choice(VOCAB_WORDS, 2))})
                   for i in range(64)]
        hit = {shard_of(r, 4) for r in records}
        assert hit == {0, 1, 2, 3}

    def test_sharded_serving_bitwise_parity(self, dual_model, encoder):
        rng = np.random.default_rng(19)
        requests = _random_requests(rng, 20)
        direct = _engine_factory(encoder)(dual_model).score_pairs(
            [_to_pair(l, r) for l, r in requests])
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002, shards=2)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                responses = client.match_many(requests)
                health = client.health()
        assert health["workers"] == 2 and health["sharded"] is True
        for i, response in enumerate(responses):
            assert response["score"] == float(direct["em_prob"][i])

    def test_swap_reaches_every_shard(self, tokenizer, encoder, tmp_path):
        model_a = _dual_model(tokenizer, seed=0)
        model_b = _dual_model(tokenizer, seed=42)
        run_id = publish_model(model_b, name="next", root=tmp_path)
        requests = _random_requests(np.random.default_rng(20), 12)
        new_direct = _engine_factory(encoder)(model_b).score_pairs(
            [_to_pair(l, r) for l, r in requests])
        config = ServeConfig(port=0, shards=2, runs_root=tmp_path)
        server = MatchServer(_scorer_factory(model_a, encoder), config)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                swapped = client.swap("next")
                responses = client.match_many(requests)
        assert swapped == {"swapped": run_id, "workers": 2}
        for i, response in enumerate(responses):
            assert response["score"] == float(new_direct["em_prob"][i])


class TestCrashContainment:
    def test_killed_worker_is_respawned_and_batch_retried(self, dual_model,
                                                          encoder):
        """kill -9 a shard mid-batch: requests are requeued, not dropped."""
        plan = FaultPlan().kill_at("serve.worker_batch", 0)
        requests = _random_requests(np.random.default_rng(21), 6)
        direct = _engine_factory(encoder)(dual_model).score_pairs(
            [_to_pair(l, r) for l, r in requests])
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002, shards=1)
        server = MatchServer(_scorer_factory(dual_model, encoder), config,
                             worker_fault_plan=plan)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                responses = client.match_many(requests)
                stats = client.stats()
        for i, response in enumerate(responses):
            assert response["score"] == float(direct["em_prob"][i])
        assert stats["retries"] >= 1

    def test_slow_shard_still_answers(self, dual_model, encoder):
        plan = FaultPlan().sleep_at("serve.worker_batch", 0, 0.3)
        requests = _random_requests(np.random.default_rng(22), 4)
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002, shards=1)
        server = MatchServer(_scorer_factory(dual_model, encoder), config,
                             worker_fault_plan=plan)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                responses = client.match_many(requests)
        assert all("score" in r for r in responses)

    def test_local_worker_exception_becomes_internal_error(self, encoder):
        """A scoring exception answers the batch; the daemon survives."""

        class _Boom(EMModel):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(1, dtype=np.float32))
                self.calls = 0

            def forward(self, batch):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("injected scoring failure")
                n1 = Tensor(batch.mask1.sum(axis=1, keepdims=True))
                return EMOutput(em_logits=(n1 * 0.1 + self.w).sum(axis=1))

        model = _Boom()
        model.eval()
        # quarantine=False: the engine re-raises instead of bisecting,
        # which is the daemon-level failure path under test.
        factory = lambda: MatchScorer(
            lambda m: InferenceEngine(m, encoder, EngineConfig(
                batch_size=4, quarantine=False)), model)
        server = MatchServer(factory, ServeConfig(port=0, max_batch=2,
                                                  max_delay=0.0))
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                first = client.request({"op": "match",
                                        "left": {"t": "usb"},
                                        "right": {"t": "usb stick"}})
                assert first["error"]["code"] == E_INTERNAL
                # Next request is scored normally.
                second = client.match({"t": "usb"}, {"t": "usb stick"})
                assert "score" in second

    def test_quarantined_pair_answered_as_internal_error(self, encoder):
        """Engine quarantine surfaces per-pair: the poison pair gets a
        structured error, its batchmates get real scores."""
        requests = _random_requests(np.random.default_rng(23), 6)
        poison_pair = _to_pair(*requests[2])
        # A cross-encoder-shaped model: the engine routes it through
        # model(batch), which is where PoisonPairs intercepts.
        model = _LenModel()
        model.eval()
        poisoned = PoisonPairs(model, [encoder.encode(poison_pair)])

        def factory():
            return MatchScorer(_engine_factory(encoder), poisoned)

        server = MatchServer(factory, ServeConfig(port=0, max_batch=8,
                                                  max_delay=0.002))
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                responses = client.match_many(requests)
        assert responses[2]["error"]["code"] == E_INTERNAL
        others = [r for i, r in enumerate(responses) if i != 2
                  and requests[i] != requests[2]]
        assert all("score" in r for r in others)


# ----------------------------------------------------------------------
# End-to-end tracing, live telemetry, and SLOs
# ----------------------------------------------------------------------

import os
import signal
import time as _time_mod

from repro import obs
from repro.runs import RunStore, recording
from repro.serve import SloBreach, SloSpec, check_run, render_top
from repro.serve.protocol import MAX_TRACE_CHARS, match_response


@pytest.fixture()
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTraceProtocol:
    def test_match_accepts_trace_string(self):
        request = parse_request(json.dumps(
            {"op": "match", "left": {"t": "a"}, "right": {"t": "b"},
             "trace": "req-7"}))
        assert request.trace == "req-7"

    def test_trace_defaults_empty(self):
        request = parse_request(json.dumps(
            {"op": "match", "left": {"t": "a"}, "right": {"t": "b"}}))
        assert request.trace == ""

    def test_non_string_trace_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(json.dumps(
                {"op": "match", "left": {"t": "a"}, "right": {"t": "b"},
                 "trace": 7}))
        assert err.value.code == E_BAD_REQUEST

    def test_oversized_trace_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(json.dumps(
                {"op": "match", "left": {"t": "a"}, "right": {"t": "b"},
                 "trace": "x" * (MAX_TRACE_CHARS + 1)}))
        assert err.value.code == E_TOO_LARGE

    def test_metrics_op_parses(self):
        assert parse_request(json.dumps({"op": "metrics"})).op == "metrics"

    def test_match_response_echoes_trace_only_when_set(self):
        assert match_response(0.5, True, 3, trace="t-1")["trace"] == "t-1"
        assert "trace" not in match_response(0.5, True, 3)


class TestEndToEndTracing:
    def test_sharded_journey_reassembles_across_processes(
            self, dual_model, encoder, tmp_path, clean_obs, capsys):
        """The acceptance path: a traced 2-shard serve run leaves one
        parseable trace file per process, and the merger rebuilds every
        request's queue → batch → shard → forward journey under a single
        trace id."""
        path = tmp_path / "trace.jsonl"
        # Enable BEFORE building the server: forked shards inherit the
        # enabled flag + sink and re-key to pid-suffixed files.
        obs.enable(trace_path=str(path))
        requests = _random_requests(np.random.default_rng(31), 10)
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002, shards=2)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        worker_pids = [ws.worker._proc.pid for ws in server._workers]
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                responses = client.match_many(requests, trace="req")
        obs.disable()

        # Every response echoes its request's trace id.
        assert [r.get("trace") for r in responses] == \
               [f"req-{i}" for i in range(len(requests))]

        # The parent file is strictly parseable and single-pid: the
        # forked workers never wrote through the inherited descriptor.
        parent_records, _ = obs.read_jsonl(path)
        assert {r.pid for r in parent_records} == {os.getpid()}
        files = sorted(tmp_path.glob("trace.pid*.jsonl"))
        assert [int(f.stem.split("pid")[1]) for f in files] == \
               sorted(worker_pids)

        merged = obs.merge_traces(path)
        assert set(merged.pids()) == {os.getpid(), *worker_pids}
        for i in range(len(requests)):
            tid = f"req-{i}"
            keys = merged.select(tid)
            assert keys, f"{tid} missing from merged trace"
            names = {merged.by_key[k].name for k in keys}
            # Full journey: client send/recv, daemon stages, worker batch.
            assert {"client.match", "serve.request", "serve.queue_wait",
                    "serve.score_wait", "serve.write",
                    "serve.batch"} <= names
            # Nesting: stage spans hang off this request's serve.request
            # root, and the worker subtree off a serve.dispatch span.
            roots = {k for k in keys
                     if merged.by_key[k].name == "serve.request"}
            (root,) = roots
            stages = {merged.by_key[k].name
                      for k in merged.children.get(root, ())}
            assert {"serve.queue_wait", "serve.score_wait",
                    "serve.write"} <= stages
            for key in keys:
                record = merged.by_key[key]
                if record.name == "serve.batch":
                    assert record.pid in worker_pids
                    graft_parent = next(
                        parent for parent, kids in merged.children.items()
                        if key in kids)
                    assert merged.by_key[graft_parent].name == "serve.dispatch"

        # The CLI --merge path renders the same reassembly.
        from repro.cli import main
        assert main(["trace", str(path), "--merge"]) == 0
        out = capsys.readouterr().out
        assert "serve.batch" in out and "pids=" in out
        assert main(["trace", str(path), "--merge",
                     "--trace-id", "req-3"]) == 0
        out = capsys.readouterr().out
        assert "trace req-3:" in out and "per-stage latency:" in out

    def test_trace_survives_worker_crash_and_respawn(
            self, dual_model, encoder, tmp_path, clean_obs):
        """Satellite: a batch whose worker is killed mid-flight keeps its
        trace id through the respawn — the merged tree shows the failed
        attempt (error dispatch span) and the retried one side by side."""
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(path))
        plan = FaultPlan().kill_at("serve.worker_batch", 0)
        requests = _random_requests(np.random.default_rng(32), 4)
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002, shards=1)
        server = MatchServer(_scorer_factory(dual_model, encoder), config,
                             worker_fault_plan=plan)
        with ServerHandle(server) as (host, port):
            with ServeClient(host, port) as client:
                responses = client.match_many(requests, trace="crashy")
        obs.disable()

        assert all("score" in r for r in responses)
        merged = obs.merge_traces(path)
        dispatches = sorted(
            (r for r in merged.records if r.name == "serve.dispatch"),
            key=lambda r: r.attrs["attempt"])
        assert len(dispatches) >= 2
        failed, retried = dispatches[0], dispatches[-1]
        assert failed.status == "error" and "crash" in failed.attrs
        assert retried.status == "ok"
        # Same requests on both attempts: the trace ids carried over.
        assert failed.attrs["trace_ids"] == retried.attrs["trace_ids"]
        assert "crashy-0" in failed.attrs["trace_ids"]
        # Each request's journey still selects, including the error leg.
        keys = merged.select("crashy-0")
        names = {merged.by_key[k].name for k in keys}
        assert {"serve.request", "serve.dispatch", "client.match"} <= names
        statuses = {merged.by_key[k].status for k in keys
                    if merged.by_key[k].name == "serve.dispatch"}
        assert statuses == {"error", "ok"}

    def test_untraced_serving_has_no_trace_artifacts(self, served):
        _, host, port = served
        with ServeClient(host, port) as client:
            response = client.match({"t": "usb stick"}, {"t": "usb drive"})
        assert "trace" not in response


class TestLiveTelemetry:
    def test_metrics_op_reports_windowed_view(self, served):
        _, host, port = served
        with ServeClient(host, port) as client:
            client.match_many(_random_requests(np.random.default_rng(33), 6))
            payload = client.metrics()
        window = payload["window"]
        assert window["requests"] >= 6
        assert window["completed"] >= 6
        assert window["rejected"] == 0
        assert window["rejection_rate"] == 0.0
        assert window["latency_p99_ms"] >= window["latency_p50_ms"] > 0.0
        assert window["window_s"] == pytest.approx(30.0)
        assert payload["uptime_s"] >= 0.0
        assert all(w["status"] == "up" for w in payload["workers"])
        assert payload["slo"]["breaches"] == 0

    def test_stats_carries_window_and_worker_status(self, served):
        _, host, port = served
        with ServeClient(host, port) as client:
            client.match({"t": "usb"}, {"t": "usb stick"})
            stats = client.stats()
        assert stats["window"]["completed"] >= 1
        assert stats["slo"]["breaches"] == 0
        assert all(w["status"] == "up" for w in stats["workers"])

    def test_windowed_counters_expire(self):
        clock = FakeClock(start=1000.0)
        config = ServeConfig(port=0, window_s=10.0)
        server = MatchServer(
            lambda: MatchScorer(lambda m: m, _LenModel()), config,
            clock=clock)
        server._win_requests.inc()
        server._win_completed.inc()
        server._win_latency.observe(0.050)
        window = server.window_metrics()
        assert window["requests"] == 1 and window["completed"] == 1
        assert window["latency_p99_ms"] == pytest.approx(50.0)
        # stats() reads its percentiles from the same windowed histogram.
        stats = server.stats()
        assert stats["latency_p99_ms"] == stats["window"]["latency_p99_ms"]
        assert stats["latency_p99_ms"] == pytest.approx(50.0)
        clock.advance(11.0)
        window = server.window_metrics()
        assert window["requests"] == 0
        assert window["latency_p99_ms"] == 0.0
        stats = server.stats()
        assert stats["latency_p99_ms"] == stats["window"]["latency_p99_ms"] == 0.0

    def test_stats_degrades_to_dead_for_killed_shard(self, dual_model,
                                                     encoder):
        """Satellite: the stats op must answer — never raise — while a
        shard is mid-death; the dead worker reports status="dead"."""
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002, shards=2)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with ServerHandle(server) as (host, port):
            victim = server._workers[0].worker
            os.kill(victim._proc.pid, signal.SIGKILL)
            victim._proc.join(5)
            with ServeClient(host, port) as client:
                stats = client.stats()
        by_index = {w["index"]: w for w in stats["workers"]}
        assert by_index[0]["status"] == "dead"
        assert by_index[1]["status"] == "up"
        assert by_index[1].get("model")  # the live one was described

    def test_render_top_frame(self, served):
        _, host, port = served
        with ServeClient(host, port) as client:
            client.match({"t": "usb"}, {"t": "usb stick"})
            frame = render_top(client.metrics())
        assert "repro top" in frame
        assert "p99" in frame and "reject-rate" in frame
        assert "worker  0" in frame


class TestSlo:
    def _spec(self, **kw):
        return SloSpec(**kw)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown SLO spec field"):
            SloSpec.from_dict({"p99": 10.0})

    def test_load_and_to_dict_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"p99_ms": 250.0, "min_requests": 5}))
        spec = SloSpec.load(path)
        assert spec.p99_ms == 250.0 and spec.min_requests == 5
        assert spec.to_dict() == {"p99_ms": 250.0, "min_requests": 5,
                                  "window_s": 30.0}

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            SloSpec.load(path)

    def test_evaluate_breach_matrix(self):
        spec = self._spec(p99_ms=100.0, rejection_rate=0.05,
                          max_queue_depth=8, worker_restarts=1)
        clean = {"completed": 50, "latency_p99_ms": 40.0,
                 "rejection_rate": 0.0, "queue_depth": 2,
                 "worker_restarts": 0}
        assert spec.evaluate(clean) == []
        hot = dict(clean, latency_p99_ms=500.0, rejection_rate=0.5,
                   queue_depth=100, worker_restarts=3)
        rules = {b.rule for b in spec.evaluate(hot)}
        assert rules == {"p99_ms", "rejection_rate", "max_queue_depth",
                         "worker_restarts"}
        breach = spec.evaluate(hot)[0]
        assert ">" in breach.message() and "limit" in breach.message()

    def test_latency_rules_gated_on_min_requests(self):
        spec = self._spec(p99_ms=1.0, worker_restarts=0, min_requests=20)
        idle = {"completed": 3, "latency_p99_ms": 9999.0,
                "worker_restarts": 1}
        # Percentile rules wait for samples; structural rules never do.
        assert [b.rule for b in spec.evaluate(idle)] == ["worker_restarts"]

    def test_missing_metric_for_set_rule_is_breach(self):
        spec = self._spec(p99_ms=100.0, min_requests=1)
        (breach,) = spec.evaluate({"completed": 50})
        assert breach.rule == "p99_ms"
        assert breach.value != breach.value  # NaN: unmeasurable

    def test_peak_depth_key_switches_post_hoc(self):
        spec = self._spec(max_queue_depth=4)
        live = {"completed": 1, "queue_depth": 9}
        post = {"completed": 1, "peak_queue_depth": 9}
        assert spec.evaluate(live)[0].rule == "max_queue_depth"
        assert spec.evaluate(post, peak_depth=True)[0].rule == \
               "max_queue_depth"
        assert spec.evaluate(live, peak_depth=True)[0].value != \
               spec.evaluate(live, peak_depth=True)[0].value  # NaN

    def test_daemon_records_breaches_into_run_registry(
            self, dual_model, encoder, tmp_path):
        """Live monitoring: a tight spec breaches during serving; the
        breach lands in the counters, the recent ring, and — because a
        serve run is recording — the run registry's event stream."""
        spec = self._spec(p99_ms=1e-6, min_requests=1)
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002,
                             slo=spec, slo_interval=3600.0)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        store = RunStore(tmp_path)
        writer = store.create(name="slo-live", kind="serve")
        with recording(writer):
            with ServerHandle(server) as (host, port):
                with ServeClient(host, port) as client:
                    client.match({"t": "usb"}, {"t": "usb stick"})
                    breaches = server.check_slo()
                    stats = client.stats()
        writer.finish(**server.final_metrics())

        assert any(b.rule == "p99_ms" for b in breaches)
        assert stats["slo"]["breaches"] >= 1
        assert any("p99_ms" in line for line in stats["slo"]["recent"])
        assert stats["slo"]["spec"]["p99_ms"] == pytest.approx(1e-6)
        record = store.resolve("slo-live")
        events = [e for e in record.events() if e["name"] == "slo_breach"]
        assert events and events[0]["rule"] == "p99_ms"
        assert events[0]["value"] > events[0]["limit"]
        assert record.metrics["slo_breaches"] >= 1
        # check_run surfaces both the metric and the live events.
        violations = check_run(record.manifest, spec, record.events())
        assert any("p99_ms" in v for v in violations)
        assert any("live slo_breach event" in v for v in violations)

    def test_check_run_clean_and_missing_metric(self):
        spec = self._spec(p99_ms=100.0, worker_restarts=0, min_requests=1)
        clean = {"metrics": {"completed": 10, "latency_p99_ms": 5.0,
                             "worker_restarts": 0}}
        assert check_run(clean, spec, []) == []
        bare = {"metrics": {"completed": 10, "worker_restarts": 0}}
        (violation,) = check_run(bare, spec, [])
        assert "recorded no 'latency_p99_ms' metric" in violation


class TestServeObservabilityCli:
    def _make_run(self, root, name, **metrics):
        store = RunStore(root)
        writer = store.create(name=name, kind="serve")
        writer.finish(**metrics)
        return store

    def _spec_file(self, tmp_path, **fields):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(fields))
        return str(path)

    CLEAN = dict(completed=100, requests=100, latency_p50_ms=5.0,
                 latency_p99_ms=20.0, rejection_rate=0.0,
                 worker_restarts=0, peak_queue_depth=3)

    def test_slo_check_passes_clean_run(self, tmp_path, capsys):
        from repro.cli import main

        self._make_run(tmp_path / "runs", "good", **self.CLEAN)
        spec = self._spec_file(tmp_path, p99_ms=100.0, rejection_rate=0.05,
                               max_queue_depth=64, worker_restarts=2)
        assert main(["slo", "check", "good", "--spec", spec,
                     "--root", str(tmp_path / "runs")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_slo_check_fails_on_breach(self, tmp_path, capsys):
        from repro.cli import main

        hot = dict(self.CLEAN, latency_p99_ms=5000.0, worker_restarts=9)
        self._make_run(tmp_path / "runs", "hot", **hot)
        spec = self._spec_file(tmp_path, p99_ms=100.0, worker_restarts=2)
        assert main(["slo", "check", "hot", "--spec", spec,
                     "--root", str(tmp_path / "runs")]) == 1
        out = capsys.readouterr().out
        assert "SLO BREACH" in out
        assert "p99_ms" in out and "worker_restarts" in out

    def test_slo_check_fails_on_live_breach_events(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path / "runs")
        writer = store.create(name="eventful", kind="serve")
        writer.log_event("slo_breach", rule="p99_ms", value=9.0, limit=1.0)
        writer.finish(**self.CLEAN)
        spec = self._spec_file(tmp_path, p99_ms=100.0)
        assert main(["slo", "check", "eventful", "--spec", spec,
                     "--root", str(tmp_path / "runs")]) == 1
        assert "live slo_breach" in capsys.readouterr().out

    def test_slo_check_bad_inputs_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec_file(tmp_path, p99_ms=100.0)
        assert main(["slo", "check", "ghost", "--spec", spec,
                     "--root", str(tmp_path / "runs")]) == 2
        assert main(["slo", "check", "latest",
                     "--spec", str(tmp_path / "absent.json"),
                     "--root", str(tmp_path / "runs")]) == 2
        bad = self._spec_file(tmp_path, p99=1.0)
        assert main(["slo", "check", "latest", "--spec", bad,
                     "--root", str(tmp_path / "runs")]) == 2

    def test_top_renders_one_frame_and_exits(self, served, capsys):
        from repro.cli import main

        _, host, port = served
        assert main(["top", "--host", host, "--port", str(port),
                     "--count", "1", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "p99" in out

    def test_top_unreachable_exits_2(self, capsys):
        from repro.cli import main

        assert main(["top", "--host", "127.0.0.1", "--port", "1",
                     "--count", "1", "--no-clear"]) == 2

    def test_serve_record_seals_run_with_final_metrics(
            self, dual_model, encoder, tmp_path):
        """--record integration, exercised at the daemon layer the CLI
        wraps: a recorded serve run's manifest carries the final-metrics
        keys `repro slo check` audits."""
        store = RunStore(tmp_path)
        writer = store.create(name="session", kind="serve",
                              config={"window_s": 30.0})
        config = ServeConfig(port=0, max_batch=4, max_delay=0.002)
        server = MatchServer(_scorer_factory(dual_model, encoder), config)
        with recording(writer):
            with ServerHandle(server) as (host, port):
                with ServeClient(host, port) as client:
                    client.match_many(
                        _random_requests(np.random.default_rng(34), 5))
        writer.finish(**server.final_metrics())
        record = store.resolve("session")
        assert record.manifest["kind"] == "serve"
        for key in ("requests", "completed", "rejected", "rejection_rate",
                    "latency_p50_ms", "latency_p99_ms", "pairs_per_s",
                    "worker_restarts", "peak_queue_depth", "slo_breaches"):
            assert key in record.metrics, key
        assert record.metrics["completed"] == 5
        spec = SloSpec(p99_ms=60_000.0, worker_restarts=0, min_requests=1)
        assert check_run(record.manifest, spec, record.events()) == []
