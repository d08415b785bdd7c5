"""Layer-by-layer tracing from outside the program.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces the public entry points of each layer with thin wrappers that
record a span (name, start, end, parent span) in memory, and puts the
originals back afterwards.  A function that callers imported by name
(``from repro.text.normalize import basic_tokenize``) is patched in
every module that holds a reference to it, because that is where those
callers look it up.

Self time of a span is its duration minus the durations of its direct
children; per-layer metrics sum self time by span name.  Time in the
traced region that no root span covers is reported on its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_MARK = "__perfbench_wrapped__"


def _linear_flops(tracer, args, kwargs, result) -> None:
    """Counted from tensor shapes: 2 * rows * in_features * out_features."""
    x = args[0] if args else kwargs["x"]
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    rows = int(np.prod(x.shape[:-1]))
    out_features, in_features = weight.shape
    tracer.counters["nn.linear_flop"] += 2.0 * rows * in_features * out_features


def _collate_cells(tracer, args, kwargs, result) -> None:
    mask = result.attention_mask
    tracer.counters["loader.cells"] += float(mask.size)
    tracer.counters["loader.real_tokens"] += float(mask.sum())


def _engine_created(tracer, args, kwargs, result) -> None:
    tracer.engines.append(args[0])


def _queue_offered(tracer, args, kwargs, result) -> None:
    peak = tracer.counters["serve.peak_queue_depth"]
    tracer.counters["serve.peak_queue_depth"] = max(peak, float(args[0].depth))


# (owner, attribute, span name, hook).  An owner "pkg.mod:Class" patches
# a method on that class; an owner "pkg.mod" patches a module-level
# function everywhere it is bound.  A hook runs after the call with
# (tracer, args, kwargs, result) to count work done at the boundary.
PATCHES = (
    ("repro.text.wordpiece:WordPieceTokenizer", "tokenize", "text.wordpiece", None),
    ("repro.text.normalize", "basic_tokenize", "text.basic_tokenize", None),
    ("repro.blocking.minhash:MinHashBlocker", "signature", "blocking.signature", None),
    ("repro.stream.index:IncrementalMinHashIndex", "insert", "stream.index_insert", None),
    ("repro.stream.wal:WriteAheadLog", "append", "stream.wal_append", None),
    ("repro.stream.wal:WriteAheadLog", "sync", "stream.wal_sync", None),
    ("repro.stream.pipeline:StreamPipeline", "snapshot", "stream.snapshot", None),
    ("repro.stream.pipeline:StreamPipeline", "_score_batch", "stream.score", None),
    ("repro.stream.clusters:StreamClusterStore", "union", "stream.union", None),
    ("repro.data.loader:PairEncoder", "build", "loader.build", None),
    ("repro.data.loader", "collate", "loader.collate", _collate_cells),
    ("repro.data.loader", "plan_buckets", "loader.plan_buckets", None),
    ("repro.engine.core:InferenceEngine", "__init__", "engine.init", _engine_created),
    ("repro.engine.core:InferenceEngine", "encode_pairs", "engine.encode", None),
    ("repro.engine.core:InferenceEngine", "score_encoded", "engine.score", None),
    ("repro.bert.model:BertModel", "forward", "bert.forward", None),
    ("repro.bert.embeddings:BertEmbeddings", "forward", "bert.embeddings", None),
    ("repro.bert.attention:MultiHeadSelfAttention", "forward", "bert.attention", None),
    ("repro.bert.encoder:TransformerLayer", "forward", "bert.layer", None),
    ("repro.models.emba:Emba", "forward", "models.forward", None),
    ("repro.models.emba_dual:EmbaDual", "forward", "models.forward", None),
    ("repro.models.aoa:AttentionOverAttention", "forward", "models.aoa", None),
    ("repro.models.heads:BinaryHead", "forward", "models.heads", None),
    ("repro.models.heads:ClassHead", "forward", "models.heads", None),
    ("repro.models.heads:TokenAggregationHead", "forward", "models.heads", None),
    ("repro.models.emba_dual:EmbaDual", "encode_records", "models.encode_records", None),
    ("repro.models.emba_dual:EmbaDual", "forward_pairwise", "models.forward_pairwise", None),
    ("repro.models.base:EMModel", "loss", "models.loss", None),
    ("repro.nn.functional", "linear", "nn.linear", _linear_flops),
    ("repro.nn.functional", "gelu", "nn.gelu", None),
    ("repro.nn.functional", "layer_norm", "nn.layer_norm", None),
    ("repro.nn.functional", "softmax", "nn.softmax", None),
    ("repro.nn.tensor:Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim:Adam", "step", "nn.adam", None),
    ("repro.models.trainer:Trainer", "fit", "trainer.fit", None),
    ("repro.serve.batcher:BatchQueue", "offer", "serve.offer", _queue_offered),
)

# Span names whose summed self time is a per-layer metric ("<name>_s").
# bert.layer reports as bert.layer_self_s: what a transformer block
# spends outside its attention, linear, GELU and layer-norm children.
SELF_TIME = {
    "text.wordpiece": "text.wordpiece_s",
    "text.basic_tokenize": "text.basic_tokenize_s",
    "blocking.signature": "blocking.signature_s",
    "stream.index_insert": "stream.index_insert_s",
    "stream.wal_append": "stream.wal_append_s",
    "stream.wal_sync": "stream.wal_sync_s",
    "stream.snapshot": "stream.snapshot_s",
    "stream.score": "stream.score_s",
    "stream.union": "stream.union_s",
    "loader.build": "loader.build_s",
    "loader.collate": "loader.collate_s",
    "loader.plan_buckets": "loader.plan_buckets_s",
    "engine.encode": "engine.encode_s",
    "engine.score": "engine.score_s",
    "bert.forward": "bert.forward_s",
    "bert.embeddings": "bert.embeddings_s",
    "bert.attention": "bert.attention_s",
    "bert.layer": "bert.layer_self_s",
    "models.forward": "models.forward_s",
    "models.aoa": "models.aoa_s",
    "models.heads": "models.heads_s",
    "models.encode_records": "models.encode_records_s",
    "models.forward_pairwise": "models.forward_pairwise_s",
    "models.loss": "models.loss_s",
    "nn.linear": "nn.linear_s",
    "nn.gelu": "nn.gelu_s",
    "nn.layer_norm": "nn.layer_norm_s",
    "nn.softmax": "nn.softmax_s",
    "nn.backward": "nn.backward_s",
    "nn.adam": "nn.adam_s",
}
# Engine counters the per-layer metrics are computed from.
ENGINE_COUNTS = ("encode_hits", "encode_misses", "encoder_hits",
                 "encoder_misses", "record_hits", "record_misses",
                 "batches", "pairs_scored", "quarantined")
CALLS = {
    "text.wordpiece": "text.wordpiece_calls",
    "text.basic_tokenize": "text.basic_tokenize_calls",
    "blocking.signature": "blocking.signature_calls",
    "nn.adam": "trainer.steps",
}


def _import_program() -> None:
    """Import every program module, so each by-name binding already
    exists when the wrappers go in (a later ``from x import f`` would
    copy a wrapper and keep it after :meth:`Tracer.uninstall`)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, name, start, end)
        self.counters: dict[str, float] = defaultdict(float)
        self.engines: list = []          # every InferenceEngine built
        self._engine_base: dict = {}     # id(engine) -> counts at reset()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple] = []  # (target, attr, original)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point in :data:`PATCHES`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        _import_program()
        for owner, attr, name, hook in PATCHES:
            target = _resolve(owner)
            if isinstance(target, type):
                original = target.__dict__[attr]
                self._patched.append((target, attr, original))
                setattr(target, attr, self.wrap(original, name, hook))
                continue
            original = getattr(target, attr)
            wrapper = self.wrap(original, name, hook)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def alternate(self, run_once, times: int) -> tuple[list, list]:
        """Call ``run_once`` untraced, then traced, ``times`` times over.

        Alternating keeps slow drift in host speed out of the ratio of
        traced to untraced time.  Returns (untraced, traced) results.
        """
        plain, traced = [], []
        for _ in range(times):
            plain.append(run_once())
            self.install()
            try:
                traced.append(run_once())
            finally:
                self.uninstall()
        return plain, traced

    def leftover_patches(self) -> list[str]:
        """Self-test: every attribute any wrapper replaced is restored.

        Scans each patched class and every loaded program module for an
        attribute that is still one of this module's wrappers.
        """
        leaks = []
        owners = [_resolve(owner) for owner, *_ in PATCHES]
        owners += [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("repro")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if getattr(value, _MARK, False):
                    leaks.append(f"{owner.__name__}.{attr}")
        return sorted(set(leaks))

    def reset(self) -> None:
        """Drop spans and counters so far.  Engines already built stay;
        their counts are reported from here on."""
        self.spans.clear()
        self.counters.clear()
        self._engine_base = {id(e): e.stats.as_dict() for e in self.engines}

    def _engine_counts(self) -> list[dict]:
        counts = []
        for engine in self.engines:
            now = engine.stats.as_dict()
            base = self._engine_base.get(id(engine), {})
            counts.append({k: now[k] - base.get(k, 0) for k in ENGINE_COUNTS})
        return counts

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line (id, parent, name, start, end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Aggregate spans and counters into plain numbers.

        Returns ``self_s`` and ``calls`` per span name, the time covered
        by root spans, the inclusive time of ``engine.score`` spans nested
        in ``trainer.fit`` (validation), the counters and the counts of
        every engine built while traced (since :meth:`reset`).
        """
        child_time: dict[int, float] = defaultdict(float)
        by_id = {}
        for span_id, parent, name, start, end in self.spans:
            by_id[span_id] = (parent, name)
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = 0.0
        validate = 0.0
        for span_id, parent, name, start, end in self.spans:
            duration = end - start
            self_s[name] += duration - child_time[span_id]
            calls[name] += 1
            if parent < 0:
                covered += duration
            if name == "engine.score":
                ancestor = parent
                while ancestor >= 0:
                    up, up_name = by_id[ancestor]
                    if up_name == "trainer.fit":
                        validate += duration
                        break
                    ancestor = up
        return {"self_s": dict(self_s), "calls": dict(calls), "covered_s": covered,
                "validate_s": validate, "counters": dict(self.counters),
                "engine_stats": self._engine_counts()}


def _rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values (without serve.* and obs.*) from a summary."""
    out = {metric: summary["self_s"].get(name, 0.0)
           for name, metric in SELF_TIME.items()}
    for name, metric in CALLS.items():
        out[metric] = float(summary["calls"].get(name, 0))
    counters = summary["counters"]
    out["nn.linear_gflop"] = counters.get("nn.linear_flop", 0.0) / 1e9
    cells = counters.get("loader.cells", 0.0)
    out["loader.pad_waste"] = (
        1.0 - counters.get("loader.real_tokens", 0.0) / cells if cells else 0.0)
    out["trainer.validate_s"] = summary["validate_s"]

    stats = summary["engine_stats"]
    total = defaultdict(float)
    for entry in stats:
        for key in ENGINE_COUNTS:
            total[key] += entry[key]
    out["engine.token_hit_rate"] = _rate(total["encode_hits"],
                                         total["encode_misses"])
    out["engine.encoder_hit_rate"] = _rate(total["encoder_hits"],
                                           total["encoder_misses"])
    out["engine.record_hit_rate"] = _rate(total["record_hits"],
                                          total["record_misses"])
    out["engine.batches"] = total["batches"]
    out["engine.rows_per_batch"] = (total["pairs_scored"] / total["batches"]
                                    if total["batches"] else 0.0)
    out["engine.quarantined"] = total["quarantined"]
    return out
