"""Per-layer metrics of a traced run: probes that time one layer call
against another on the same batch, and figures derived from the spans."""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from upliftmil import data, metrics, mil, models, nncore
from tracing import Tracer, duration_ms


def _batches(cfg, train_ds, count: int):
    for b in data.minibatches(train_ds, cfg.batch_size, cfg.seed, 0)[:count]:
        idx = b.indices
        yield (train_ds.features[idx], train_ds.treatment[idx],
               train_ds.outcome[idx], b.u_t)


def step_probe(cfg, train_ds, seconds: float) -> dict:
    """Forward, backward, MIL and Adam cost of one training step.

    For each batch, calls forward_full, the combined loss with alpha = 0
    and with the run's alpha, then adam_step plus the parameter
    write-back, back to back, so host-speed swings hit all four alike.
    backward is the alpha = 0 loss minus forward, the MIL overhead the
    alpha > 0 loss minus the alpha = 0 one; differences are taken per
    batch and their medians reported. A step is the alpha > 0 loss plus
    Adam on the same batch; each _share is the median over batches of a
    cost divided by its batch's step, so host speed cancels out of it.
    """
    model = models.build(cfg.model, train_ds.d, cfg.hidden_sizes, cfg.seed)
    model.scaler = data.fit_scaler(train_ds.features)
    arrays = model.parameter_arrays()
    state = nncore.init_adam(arrays, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    batches = list(_batches(cfg, train_ds, 4))
    fwd, base, over, adam, step = [], [], [], [], []

    def combined(alpha, x, t, y, u_t):
        t0 = time.perf_counter()
        _, grads, _ = mil.combined_loss_and_grads(model, x, t, y, u_t, alpha, cfg.bag_size)
        return time.perf_counter() - t0, grads

    deadline = time.perf_counter() + seconds
    while len(fwd) < 3 * len(batches) or time.perf_counter() < deadline:
        for x, t, y, u_t in batches:
            t0 = time.perf_counter()
            models.forward_full(model, x)
            fwd.append(time.perf_counter() - t0)
            # Alternate which loss runs first, so neither gains from the
            # other warming the caches.
            if len(fwd) % 2:
                plain, _ = combined(0.0, x, t, y, u_t)
                full, grads = combined(cfg.alpha, x, t, y, u_t)
            else:
                full, grads = combined(cfg.alpha, x, t, y, u_t)
                plain, _ = combined(0.0, x, t, y, u_t)
            base.append(plain)
            over.append(full - plain)
            t0 = time.perf_counter()
            arrays, state = nncore.adam_step(arrays, grads, state)
            models.set_parameter_arrays(model, arrays)
            adam.append(time.perf_counter() - t0)
            step.append(full + adam[-1])
    backward = [b - f for b, f in zip(base, fwd)]
    ms = lambda xs: 1e3 * statistics.median(xs)
    share = lambda xs: statistics.median(x / s for x, s in zip(xs, step))
    return {
        "models.forward_ms": ms(fwd),
        "models.forward_share": share(fwd),
        "models.backward_ms": ms(backward),
        "models.backward_share": share(backward),
        "nncore.adam_ms": ms(adam),
        "nncore.adam_share": share(adam),
        "mil.overhead_ms": ms(over),
        "mil.overhead_share": share(over),
        "mil.overhead_ratio": statistics.median(over) / statistics.median(base),
        "nncore.param_count": sum(a.size for a in arrays),
        "probe.samples": len(fwd),
    }


def eval_probe(model, ds, segment_scores, repeats: int = 5) -> dict:
    """Allocation of one predict call and the cost of the uplift curve on
    continuous model scores against tie-heavy segment scores."""
    tracemalloc.start()
    try:
        _, _, uplift = models.predict(model, ds.features)
        alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    curve, ties = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        metrics.uplift_curve(uplift, ds.outcome, ds.treatment)
        t1 = time.perf_counter()
        metrics.uplift_curve(segment_scores, ds.outcome, ds.treatment)
        t2 = time.perf_counter()
        curve.append(t1 - t0)
        ties.append(t2 - t1)
    return {
        "models.predict_alloc_mb": alloc / 2**20,
        "metrics.curve_ms": 1e3 * statistics.median(curve),
        "metrics.curve_ties_ms": 1e3 * statistics.median(ties),
    }


def span_metrics(tracer: Tracer, op: list) -> dict:
    """Step, evaluation, bag and data figures from one traced train() and
    predict throughput from the traced operation `op`."""
    # The traced operation's own train(), or for an evaluation workload
    # the one that made its checkpoint (the last, after its warm-up).
    run = (tracer.named("trainer.train", op) or tracer.named("trainer.train"))[-1]
    combined = tracer.named("mil.combined_loss_and_grads", run)
    evals = tracer.named("trainer.evaluate", run)
    eval_starts = [s[2] for s in evals]
    # A step runs from one combined-loss call to the next; steps that hold
    # a validation evaluation are left out and reported as eval_ms.
    steps = [
        (b[2] - a[2]) / 1e6
        for a, b in zip(combined, combined[1:])
        if not any(a[2] <= e < b[2] for e in eval_starts)
    ]
    clusters = tracer.named("mil.cluster_bags", run)
    bags = [s[4]["bags"] for s in clusters]
    usable = sum(s[4]["usable_bags"] for s in combined)
    predicts = tracer.named("models.predict", op)
    rows = sum(s[4]["rows"] for s in predicts)
    predict_s = sum(duration_ms(s) for s in predicts) / 1e3
    median_ms = lambda spans: statistics.median(duration_ms(s) for s in spans)
    step_ms = statistics.median(steps)
    return {
        "trainer.steps": len(combined),
        "trainer.evals": len(evals),
        "trainer.step_ms_p50": step_ms,
        "trainer.step_ms_p90": float(np.percentile(steps, 90)),
        "trainer.step_samples": len(steps),
        "trainer.eval_ms": median_ms(evals),
        "trainer.eval_share": sum(duration_ms(s) for s in evals) / duration_ms(run),
        "mil.cluster_ms": median_ms(clusters),
        "mil.cluster_share": median_ms(clusters) / step_ms,
        "mil.bags_per_step": bags[0],
        "mil.usable_bag_frac": usable / sum(bags),
        "data.minibatches_ms": median_ms(tracer.named("data.minibatches", run)),
        "data.load_table_s": median_ms(tracer.named("data.load_table")) / 1e3,
        "data.split_ms": median_ms(tracer.named("data.split")),
        "models.predict_rows_per_s": rows / predict_s,
    }

