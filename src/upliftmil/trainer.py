"""Training orchestration: warm-up on the base loss, per-batch
predict/cluster/bag, joint optimization with early stopping on
validation AUUC, and multi-seed repetition.

A run starts with `warmup_steps` of pure base training (the bag
regularizer weight held at zero), then switches to the combined loss
with bags re-formed from fresh predictions every step. Validation AUUC
is computed every `eval_every` steps; training stops at `max_steps` or
after `patience` evaluations without improvement, and the returned model
is the best-validation checkpoint. Evaluations within warm-up are
recorded in the history but neither compete for the best checkpoint nor
count toward `patience`, so the returned model has trained with the
regularizer; only a run that is all warm-up (`warmup_steps ==
max_steps`) keeps its best warm-up checkpoint.

`train` makes one `models.BufferSet` for the whole run, of
max(`batch_size`, `models.CHUNK`) rows: every step and every evaluation
within the run (`models.CHUNK` rows at a time, as outside a run) reuse
it (`nncore`'s pass contract), so a step allocates nothing of the
model's size. At the default `batch_size` of 1024 that is one batch's
rows, 1024, and no row of it serves evaluation alone. The set is
dropped on return.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, count
from typing import ClassVar

import numpy as np

from . import metrics, mil, models, nncore
from .data import Dataset, fit_scaler, minibatches
from .errors import (ConfigError, MetricError, TrainingError, check_int, enum_member,
                     is_real)
from .metrics import RunAggregate, UpliftCurve
from .mil import BagMode
from .models import ModelKind, UpliftModel


# The integer fields of a `TrainConfig` and their least values;
# warmup_steps may also be None.
_INT_FIELDS = (("batch_size", 2), ("bag_size", 2), ("max_steps", 1),
               ("warmup_steps", 0), ("eval_every", 1), ("patience", 1), ("seed", 0))


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of one training run.

    model and hidden_sizes pick the architecture; learning_rate sets
    Adam's step; alpha weighs the bag regularizer over bags of bag_size
    rows from batch_size batches, formed as `mode` says; max_steps,
    warmup_steps, eval_every and patience set the schedule; seed fixes
    every draw. Features are always standardized by the training split's
    scaler.

    A config is checked once, when it is made: construction raises
    ConfigError naming the first bad field, for a batch_size or bag_size
    below 2, as `data.minibatches` and `mil.cluster_bags` would, and for
    a bag_size above the batch_size. Each integer setting is stored as a
    Python int, so a numpy integer given for one leaves the report plain
    JSON. A config is frozen: make a variant with `dataclasses.replace`,
    which checks it again. What depends on the data is checked by
    `train`: a batch_size above the training split's row count through
    `data.minibatches`, before it builds a model, and a bad
    learning_rate through `nncore.init_adam`, before the first step.

    Defaults mirror the reference regime (a TARNet of hidden sizes
    1024/512/256, batch 1024, clustered bags of 64, alpha 1e-3, Adam at
    learning rate 1e-3) with the step budget scaled to desk-size data:
    3000 steps, an evaluation every 500 and patience 5, seed 0.
    warmup_steps=None resolves to 20% of max_steps, rounded down to an
    int: 600 by default.

    Adam's moment decays `beta1` 0.9 and `beta2` 0.999 and its `eps`
    1e-8, and `n_points`, the curves' grid of 100 points
    (`metrics.DEFAULT_GRID`), are class constants, not fields: they are
    conventions of the reference regime, not part of the method, so no
    run sets them. They read as `cfg.beta1` and so on, and `to_dict`
    writes them into the report.
    """

    model: str = "tarnet"
    hidden_sizes: tuple[int, ...] = (1024, 512, 256)
    learning_rate: float = 1e-3
    alpha: float = 1e-3
    batch_size: int = 1024
    bag_size: int = 64
    max_steps: int = 3000
    warmup_steps: int | None = None
    eval_every: int = 500
    patience: int = 5
    seed: int = 0
    mode: str = "clustered"
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    n_points: ClassVar[int] = metrics.DEFAULT_GRID

    def resolved_warmup(self) -> int:
        if self.warmup_steps is None:
            return self.max_steps // 5
        return self.warmup_steps

    def __post_init__(self):
        enum_member(ModelKind, self.model, "model")
        enum_member(BagMode, self.mode, "mode")
        if not (is_real(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"'alpha' must be finite and >= 0, got {self.alpha!r}")
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            if not (name == "warmup_steps" and value is None):
                object.__setattr__(self, name, check_int(name, value, least))
        if self.bag_size > self.batch_size:
            raise ConfigError(
                f"bag_size {self.bag_size} exceeds batch_size {self.batch_size}"
            )
        if self.resolved_warmup() > self.max_steps:
            raise ConfigError(
                f"warmup_steps {self.resolved_warmup()} exceeds max_steps "
                f"{self.max_steps}"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_sizes"] = [int(h) for h in self.hidden_sizes]
        d["warmup_steps"] = self.resolved_warmup()
        d.update(beta1=self.beta1, beta2=self.beta2, eps=self.eps, n_points=self.n_points)
        return d


@dataclass
class EvalPoint:
    step: int
    l_base: float
    l_mil: float
    val_auuc: float
    usable_bags: int


@dataclass
class TrainReport:
    """History and outcome of one run; serializes to the report JSON.

    wall_clock_s is timing metadata and is excluded from reproducibility
    comparisons.
    """

    config: dict
    history: list[EvalPoint] = field(default_factory=list)
    best_step: int = 0
    best_val_auuc: float = float("-inf")
    test_auuc: float = float("nan")
    wall_clock_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    model: UpliftModel,
    ds: Dataset,
    n_points: int = metrics.DEFAULT_GRID,
    buffers: models.BufferSet | None = None,
) -> tuple[float, UpliftCurve]:
    """AUUC and uplift curve of a model's uplift scores on a dataset,
    scored in `buffers` when given (see `models.predict`); the AUUC is
    the same with or without them."""
    _, _, uplift = models.predict(model, ds.features, buffers)
    curve = metrics.uplift_curve(uplift, ds.outcome, ds.treatment, n_points)
    return curve.auuc, curve


def train(
    train_ds: Dataset, valid_ds: Dataset, test_ds: Dataset, cfg: TrainConfig
) -> tuple[UpliftModel, TrainReport]:
    """Run one training job and return the best-validation model of the
    evaluations after warm-up. An evaluation replaces the best checkpoint
    only when its validation AUUC is strictly higher, so on a tie the
    earlier checkpoint is kept, and the tie counts toward `patience`. A
    validation or test split without both arms, whose uplift curve is
    undefined, raises MetricError naming it and its arm counts before any
    model is built. The report's `wall_clock_s` is the time from after
    these checks to the end of the test evaluation.

    `cfg` was checked when it was made (`TrainConfig`); a batch_size above
    the training split's row count raises ConfigError from
    `data.minibatches`, which draws epoch 0's batches before the model
    is built."""
    for name, ds in (("validation", valid_ds), ("test", test_ds)):
        n_t = int(ds.treatment.sum())
        if not 0 < n_t < ds.n:
            raise MetricError(f"uplift curve undefined on the {name} split: "
                              f"{n_t} treated, {ds.n - n_t} control")
    started = time.perf_counter()
    first = minibatches(train_ds, cfg.batch_size, cfg.seed, 0)
    model = models.build(cfg.model, train_ds.d, cfg.hidden_sizes, cfg.seed)
    model.scaler = fit_scaler(train_ds.features)
    state = nncore.init_adam(model.params, cfg.learning_rate,
                             cfg.beta1, cfg.beta2, cfg.eps)
    buffers = models.buffer_set(model, max(cfg.batch_size, models.CHUNK))
    # Dedicated stream for the random-bag ablation; consumed only when
    # that mode is active, so clustered runs stay bitwise comparable.
    bag_rng = np.random.default_rng([cfg.seed, 104729])

    warmup = cfg.resolved_warmup()
    mode = BagMode(cfg.mode)
    report = TrainReport(config=cfg.to_dict())
    best_params = model.params.copy()
    bad_evals = 0

    # The epochs' batches back to back; an epoch after the first is
    # shuffled only when a step needs its first batch.
    epochs = (minibatches(train_ds, cfg.batch_size, cfg.seed, e) for e in count(1))
    batches = chain(first, chain.from_iterable(epochs))
    for step, batch in zip(range(1, cfg.max_steps + 1), batches):
        eff_alpha = 0.0 if step <= warmup else cfg.alpha
        breakdown, grads, _ = mil.combined_loss_and_grads(
            model,
            train_ds.features[batch.indices],
            train_ds.treatment[batch.indices],
            train_ds.outcome[batch.indices],
            batch.u_t,
            eff_alpha,
            cfg.bag_size,
            mode,
            rng=bag_rng,
            buffers=buffers,
        )
        if not np.isfinite(breakdown.loss):
            raise TrainingError(
                f"non-finite loss at step {step}: l_base={breakdown.l_base!r} "
                f"l_mil={breakdown.l_mil!r} u_t={batch.u_t!r} "
                f"batch_head={batch.indices[:8].tolist()} "
                f"first_nonfinite_grad={_first_nonfinite_grad(buffers)}"
            )
        nncore.adam_step(model.params, grads, state)

        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            val_auuc, _ = evaluate(model, valid_ds, cfg.n_points, buffers)
            report.history.append(
                EvalPoint(step, breakdown.l_base, breakdown.l_mil, val_auuc,
                          breakdown.usable_bags)
            )
            if step <= warmup < cfg.max_steps:
                continue  # a warm-up eval: neither a best checkpoint nor patience
            if val_auuc > report.best_val_auuc:
                report.best_val_auuc = val_auuc
                report.best_step = step
                np.copyto(best_params, model.params)
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= cfg.patience:
                    break

    np.copyto(model.params, best_params)
    report.test_auuc, _ = evaluate(model, test_ds, cfg.n_points, buffers)
    report.wall_clock_s = time.perf_counter() - started
    return model, report


def _first_nonfinite_grad(buffers: models.BufferSet) -> str:
    """'net layer k' of the first gradient block, in parameter order, that
    holds a non-finite value; 'none' when every value is finite."""
    for name, net in buffers.nets.items():
        for k, block in enumerate(net.grad_blocks):
            if not np.isfinite(block).all():
                return f"{name} layer {k}"
    return "none"


@dataclass
class RunResult:
    seed: int
    model: UpliftModel
    report: TrainReport


def _run_one(args) -> RunResult | tuple[int, str]:
    """One seed's run, or (seed, message) when training aborts."""
    train_ds, valid_ds, test_ds, cfg = args
    try:
        return RunResult(cfg.seed, *train(train_ds, valid_ds, test_ds, cfg))
    except TrainingError as exc:
        return cfg.seed, str(exc)


def repeat_runs(
    train_ds: Dataset,
    valid_ds: Dataset,
    test_ds: Dataset,
    cfg: TrainConfig,
    n_runs: int,
    jobs: int = 1,
) -> tuple[RunAggregate | None, list[RunResult], list[tuple[int, str]]]:
    """Repeat training with seeds seed+0 .. seed+n_runs-1.

    Returns (aggregate over completed runs' test AUUCs, completed run
    results ordered by seed, failures as (seed, message)). The aggregate
    is None when every run failed. Runs are state-isolated, so parallel
    execution (jobs > 1) gives results identical to sequential. `cfg` was
    checked when it was made (`TrainConfig`), and each seed's config is
    checked again by `dataclasses.replace`; `n_runs` and `jobs` are
    checked before any seed is derived.
    """
    n_runs, jobs = check_int("n_runs", n_runs), check_int("jobs", jobs)
    tasks = [
        (train_ds, valid_ds, test_ds, replace(cfg, seed=cfg.seed + i))
        for i in range(n_runs)
    ]
    if jobs > 1:
        # The fork start method launches every worker up front, used or not.
        with ProcessPoolExecutor(max_workers=min(jobs, n_runs)) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(t) for t in tasks]

    results = [r for r in outcomes if isinstance(r, RunResult)]
    failures = [r for r in outcomes if not isinstance(r, RunResult)]
    aggregate = None
    if results:
        aggregate = metrics.aggregate_runs([r.report.test_auuc for r in results])
    return aggregate, results, failures
