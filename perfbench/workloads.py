"""The benchmark's workloads: inputs made from the seed, set-up, the timed
phase with its correctness checks, and the traced run."""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from upliftmil import data, metrics, models, trainer
from upliftmil.trainer import TrainConfig

import layers
from harness import Ops, peak_rss_mb
from tracing import Tracer

# Synthetic regime: mean uplift tau_max / 4 = 0.15, learnable within a few
# dozen steps, so test AUUC sits well above the random-scorer level
# (about half the empirical ATE) and drops if training breaks.
TAU_MAX = 0.6
SPLIT = (0.6, 0.2, 0.2)
SCHEMA = data.TableSchema(true_ite_col="true_ite")
SEGMENTS = 32  # distinct values of the tie-heavy segment score


@dataclass(frozen=True)
class Workload:
    """kind "train" repeats train() calls; kind "eval" repeats evaluate()
    of a checkpoint that `cfg` trains while the inputs are made."""

    name: str
    kind: str
    cfg: TrainConfig
    rows: int = 50_000
    heldout_rows: int = 0

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in seconds."""
        cfg = replace(self.cfg, max_steps=6, eval_every=3,
                      warmup_steps=min(self.cfg.resolved_warmup(), 2))
        return replace(self, cfg=cfg, rows=4_000,
                       heldout_rows=min(self.heldout_rows, 20_000))


WORKLOADS = {w.name: w for w in (
    Workload(
        "train_tarnet",
        "train",
        TrainConfig(max_steps=40, warmup_steps=8, eval_every=20),
    ),
    Workload(
        "train_sdr_bag2",
        "train",
        TrainConfig(model="sdr", hidden_sizes=(64, 32), bag_size=2,
                    warmup_steps=0, max_steps=300, eval_every=100),
    ),
    Workload(
        "eval_large",
        "eval",
        TrainConfig(model="sdr", hidden_sizes=(64, 32), warmup_steps=0,
                    max_steps=3600, eval_every=600),
        heldout_rows=200_000,
    ),
)}
POOL_RUNS = 2


def samples(report) -> int:
    """Training samples one run consumed (it stops right after an eval)."""
    return report.history[-1].step * report.config["batch_size"]


class Run:
    """One benchmark run of a workload for one seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.cfg = replace(workload.cfg, seed=seed)
        self.workdir = workdir
        self.ops = Ops()
        self.values: dict = {}
        self.extra: dict = {}
        self.auucs: list[float] = []
        self.train_samples = 0
        self.train_s = 0.0
        self.setup_s: list[float] = []

    # -- inputs and set-up ------------------------------------------------

    def make_inputs(self) -> bool:
        """Every input, from the seed alone. Training data goes through a
        CSV file, which set-up loads as a user would."""
        table = data.generate_synthetic(
            data.SynthConfig(n=self.w.rows, tau_max=TAU_MAX, seed=self.seed))
        self.csv = self.workdir / "table.csv"
        data.save_table(table, self.csv)
        self.parts = data.split(data.load_table(self.csv, SCHEMA), SPLIT, self.seed)
        if self.w.kind != "eval":
            return True
        held = data.generate_synthetic(data.SynthConfig(
            n=self.w.heldout_rows, tau_max=TAU_MAX, seed=self.seed + 1_000_000))
        self.heldout = (held.features, held.treatment, held.outcome)
        self.warm_train(self.parts)
        self.trained = self.train_once(*self.parts)
        self.checkpoint = self.workdir / "model.npz"
        models.save_checkpoint(self.trained, self.checkpoint)
        return True

    def setup(self):
        """What a user does before the work: load the table and split it,
        or load the checkpoint and build the evaluation set. Timed."""
        t0 = time.perf_counter()
        if self.w.kind == "eval":
            state = models.load_checkpoint(self.checkpoint), data.Dataset(*self.heldout)
        else:
            state = data.split(data.load_table(self.csv, SCHEMA), SPLIT, self.seed)
        self.setup_s.append(time.perf_counter() - t0)
        return state

    def eval_set(self, state):
        return state[1] if self.w.kind == "eval" else state[2]

    # -- operations -------------------------------------------------------

    def train_once(self, tr, va, te):
        t0 = time.perf_counter()
        model, report = trainer.train(tr, va, te, self.cfg)
        self.train_s += time.perf_counter() - t0
        self.train_samples += samples(report)
        self.auucs.append(report.test_auuc)
        return model

    def eval_once(self, model, ds):
        auuc, _ = trainer.evaluate(model, ds, self.cfg.n_points)
        metrics.uplift_curve(self.segments, ds.outcome, ds.treatment, self.cfg.n_points)
        self.auucs.append(auuc)
        return model

    def operate(self, state):
        """One operation of the workload; returns the model it used, or
        None when it failed, and its wall time."""
        t0 = time.perf_counter()
        if self.w.kind == "train":
            model = self.ops.call("train", self.train_once, *state)
        else:
            model = self.ops.call("evaluate", self.eval_once, *state)
        return model, time.perf_counter() - t0

    # -- checks -----------------------------------------------------------

    def check_outputs(self, model, ds) -> None:
        """Exact identities of the evaluation outputs."""
        p_t, p_c, uplift = models.predict(model, ds.features)
        self.ops.check("uplift == p_t - p_c", np.array_equal(uplift, p_t - p_c))
        ate = data.empirical_ate(ds)
        for label, scores in (("model", uplift), ("segment", self.segments)):
            curve = metrics.uplift_curve(scores, ds.outcome, ds.treatment,
                                         self.cfg.n_points)
            self.ops.check(f"g(1) == empirical ATE ({label} scores)",
                           curve.g[-1] == ate, f"{curve.g[-1]!r} != {ate!r}")
        if self.w.kind == "eval":
            head = ds.features[:4096]
            self.ops.check("loaded checkpoint scores as the trained model",
                           np.array_equal(models.predict(self.trained, head)[2],
                                          models.predict(model, head)[2]))

    def check_auucs(self) -> None:
        """Every operation of one seed, traced or not, returns the same
        finite test AUUC."""
        ok = bool(self.auucs) and all(np.isfinite(self.auucs))
        self.ops.check("test_auuc finite", ok, repr(self.auucs[:4]))
        self.ops.check("test_auuc repeats bit for bit",
                       len(set(self.auucs)) <= 1, repr(sorted(set(self.auucs))))

    def prepare(self):
        """Inputs, then set-up; returns the set-up state or None."""
        if self.ops.call("inputs", self.make_inputs) is None:
            return None
        state = self.ops.call("setup", self.setup)
        if state is not None:
            ds = self.eval_set(state)
            self.segments = np.floor(ds.features[:, 1] * SEGMENTS)
        return state

    def pool_probe(self) -> None:
        """repeat_runs of POOL_RUNS seeds on a process pool of nproc workers
        against one inline run, both one evaluation window long; the pool's
        run of the first seed must equal the inline run."""
        cfg = replace(self.cfg, max_steps=self.cfg.eval_every,
                      warmup_steps=min(self.cfg.resolved_warmup(), self.cfg.eval_every))
        t0 = time.perf_counter()
        _, inline, _ = trainer.repeat_runs(*self.parts, cfg, 1, jobs=1)
        inline_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        _, pooled, failures = trainer.repeat_runs(
            *self.parts, cfg, POOL_RUNS, jobs=os.cpu_count() or 1)
        pool_s = time.perf_counter() - t0
        for seed, message in failures:
            self.ops.check("repeat_runs", False, f"seed {seed}: {message}")
        self.values["trainer.pool_efficiency"] = POOL_RUNS * inline_s / pool_s
        self.ops.check("pool run equals the inline run",
                       pooled[0].report.test_auuc == inline[0].report.test_auuc)

    def warm_train(self, parts) -> None:
        """A short untimed train() before training is timed, so first-call
        costs (page faults, thread start) stay out of the timing."""
        steps = max(10, self.cfg.max_steps // 20)
        cfg = replace(self.cfg, max_steps=steps, eval_every=steps,
                      warmup_steps=min(steps // 2, self.cfg.resolved_warmup()))
        self.ops.call("warm-up", trainer.train, *parts, cfg)

    def warm_up(self, state) -> None:
        """The same for the workload's timed operation."""
        if self.w.kind == "eval":
            self.ops.call("warm-up", trainer.evaluate, *state)
        else:
            self.warm_train(state)

    # -- the two kinds of run ---------------------------------------------

    def measure(self, seconds: float) -> None:
        """Untraced run: end-to-end metrics over a timed phase of about
        `seconds`, made of whole operations. On an evaluation workload the
        checkpoint's training counts towards the `seconds`."""
        state = self.prepare()
        if state is None:
            return
        self.warm_up(state)
        if self.w.kind == "eval":
            self.auucs.clear()  # the checkpoint's own test AUUC
            seconds = max(seconds / 2, seconds - self.train_s)
        clock = Tracer({"trainer": ("evaluate",)})
        model, started, took = None, time.perf_counter(), []
        with clock.recording():
            while True:
                used, op_s = self.operate(state)
                took.append(op_s)
                if used is None:  # failed; the result is wrong already
                    break
                model = used
                # Set up again between operations, so the set-up times
                # sample the whole run rather than one moment of it.
                self.ops.call("setup", self.setup)
                if time.perf_counter() - started + op_s / 2 >= seconds:
                    break
        self.extra["operation_s"] = took
        self.values["setup_s"] = statistics.median(self.setup_s)
        evals = clock.named("trainer.evaluate")
        rows = sum(s[4]["rows"] for s in evals)
        if evals:
            self.values["eval_rows_per_s"] = rows / sum((s[3] - s[2]) / 1e9 for s in evals)
        if self.train_s:
            self.values["train_samples_per_s"] = self.train_samples / self.train_s
        self.check_auucs()
        if self.auucs:
            self.values["test_auuc"] = self.auucs[0]
        if model is not None:
            self.ops.call("check outputs", self.check_outputs, model, self.eval_set(state))
        self.values["peak_rss_mb"] = peak_rss_mb()

    def trace(self, seconds: float, tracer: Tracer) -> None:
        """Traced run: the workload's operation untraced and traced in turn
        (same seed, so the same test AUUC), then the layer probes."""
        with tracer.recording():
            state = self.prepare()
        if state is None:
            return
        self.warm_up(state)
        self.auucs.clear()
        plain_s = traced_s = 0.0
        started = time.perf_counter()
        while not plain_s or time.perf_counter() - started < seconds / 4:
            model, op_s = self.operate(state)
            plain_s += op_s
            with tracer.recording(), tracer.mark("bench.traced_op"):
                traced, op_s = self.operate(state)
            traced_s += op_s
            if model is None or traced is None:
                return
        self.values["trace.overhead_frac"] = traced_s / plain_s - 1.0
        self.check_auucs()
        ds = self.eval_set(state)
        self.ops.call("check outputs", self.check_outputs, model, ds)
        self.ops.call("pool probe", self.pool_probe)
        probes = self.ops.call("step probe", layers.step_probe, self.cfg,
                               self.parts[0], max(1.0, seconds / 6))
        evals = self.ops.call("eval probe", layers.eval_probe, model, ds, self.segments)
        op = tracer.named("bench.traced_op")[0]
        spans = self.ops.call("span metrics", layers.span_metrics, tracer, op)
        for part in (probes, evals, spans):
            if part is not None:
                self.values.update(part)
