"""train-emba: fine-tune EMBA with ``Trainer.fit`` on WDC computers xlarge.

Each fit starts from the same initial weights and runs a fixed number
of epochs over the 550 training pairs; the shuffle order comes from the
workload seed.  This is the only workload that runs loss, backward and
Adam.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from common import run_slices

EPOCHS = 1


def _fit(state, seed: int):
    from repro.models import TrainConfig, Trainer

    spec = state.spec
    model = state.new_model()
    trainer = Trainer(TrainConfig(
        epochs=EPOCHS, batch_size=spec.batch_size,
        learning_rate=spec.learning_rate, patience=EPOCHS, seed=seed))
    start = time.perf_counter()
    result = trainer.fit(model, state.train, state.valid)
    return time.perf_counter() - start, result


def _check(results) -> bool:
    """Same seed, same start: the loss history is bitwise identical."""
    first = np.array(results[0].train_losses, dtype=np.float64)
    return bool(np.isfinite(first).all() and len(first) == EPOCHS and all(
        np.array_equal(first, np.array(r.train_losses, dtype=np.float64))
        for r in results[1:]))


def build_inputs(seed: int) -> int:
    """The shuffle seed; the training set itself is fixed."""
    return seed


def _steps(state) -> int:
    per_epoch = -(-len(state.train) // state.spec.batch_size)
    return per_epoch * EPOCHS


def measure(state, seed: int, seconds: float, run_dir, gaps=()) -> dict:
    """Fits over ``seconds``; with no gap, at least two, for the check."""
    fits = run_slices(seconds, lambda: _fit(state, seed), gaps)
    if len(fits) < 2:
        fits.append(_fit(state, seed))
    results = [r for _, r in fits]
    return {
        "correct": _check(results),
        "attempted": len(fits) * _steps(state),
        "failed": sum(r.nonfinite_skipped for r in results),
        "throughput_per_s": EPOCHS * len(state.train) / median(
            t for t, _ in fits),
    }


def traced(state, seed: int, seconds: float, tracer, run_dir) -> dict:
    """Untraced and traced fits from the same start (fixed work)."""
    fits = max(1, round(seconds / 5))
    plain, spans = tracer.alternate(lambda: _fit(state, seed), fits)
    results = [r for _, r in plain + spans]
    return {
        "correct": _check(results),
        "attempted": 2 * fits * _steps(state),
        "failed": sum(r.nonfinite_skipped for r in results),
        "traced_s": sum(t for t, _ in spans),
        "overhead": median([t for t, _ in spans]) / median([t for t, _ in plain]),
        "layers": {"trainer.nonfinite_skipped": float(
            sum(r.nonfinite_skipped for _, r in spans))},
    }
