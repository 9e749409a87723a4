"""Bag-level regularization for two-model uplift learners.

A mini-batch is packed into equal-sized bags, normally by sorting rows
on their current uplift predictions and taking adjacent runs, so each
bag holds instances with similar predicted effects. Per bag, the
observed responses give a bag-wise ATE label

    y_bag = sum_{i in T} y_i / u_t - sum_{j in C} y_j / (1 - u_t)

and the model's factual-arm probabilities give the matching prediction

    h_bag = sum_{i in T} p_t_i / u_t - sum_{j in C} p_c_j / (1 - u_t)

with u_t the treated fraction of the whole mini-batch. The squared
residuals, summed over bags holding both arms, form a regularizer that
is added to the base loss with weight alpha. The bag assignment is
discrete and carries no gradient; bags are re-formed from fresh
predictions every step.

The paper's abstract sums each bag's individual uplift predictions,
h_bag = sum_bag (p_t - p_c). Over random assignment that form has the
same expectation as the factual one above; it carries no assignment
noise, and it sends gradient to both arms of every row, where the
factual form reaches each row through its factual arm alone, so that
its residual calibrates the bag's factual predictions rather than
constraining the uplift directly. The factual form stays because the
two could not be told apart: on synthetic data at the default tau_max
(TARNet 64/32, 50k rows, bag 64, 6 seeds), with clustered bags and
alpha 1e-2, the abstract's form gave a test AUUC of 12.14 +- 0.83
(x 1e-3) and an ITE RMSE of 0.0275 +- 0.0075, the factual form
11.87 +- 1.27 and 0.0271 +- 0.0042.

A partition is one (n_bags, bag_size) array of batch positions, so every
bag's label, prediction, residual and gradient comes from a few array
operations over its rows; there are no per-bag objects. `batch_bag_stats`
gives every bag's label and prediction at once, and a single bag is a
one-row partition.

A training step, `combined_loss_and_grads`, is one `models.forward_full`
pass, the bag sums and one `models.backprop_factual` pass, both in one
`models.BufferSet` (`nncore`'s pass contract). The regularizer reaches a
bag member only through its factual probability p_f, so its gradient is
one (n_bags, bag_size) array, d l_mil / d p_f times p_f (1 - p_f), added
by one fancy-index scatter into the factual column of the base loss's
(n, 2) arm-logit gradient. Bags are disjoint, so the scatter writes each
member's element once, by the operations of a dense (n, 2) form in the
same order. Elsewhere that form adds +0.0, which turns the base
gradient's -0.0 entries into +0.0 and changes nothing else, so the two
arm-logit gradients differ only in the sign of some zeros and the
parameter gradients agree bit for bit (tests/oracles.py keeps the dense
form).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import models
from .errors import ConfigError, ShapeError, check_int, check_reals, enum_member, is_real
from .models import ModelOutputs, UpliftModel


class BagMode(str, Enum):
    CLUSTERED = "clustered"
    RANDOM = "random"


@dataclass
class BagPartition:
    """Disjoint equal-sized bags as one (n_bags, bag_size) array of batch
    positions, one bag per row; the remainder rows (batch size mod bag
    size) belong to no bag. `cluster_bags` never makes an empty one: a
    bag size beyond the batch size raises ConfigError."""

    bags: np.ndarray


@dataclass
class BagStats:
    """Label, prediction and usable flag of every bag, aligned with the
    rows of `BagPartition.bags`, and `treated`, which flags the treated
    members of each bag (the shape of `bags`). A bag is usable for the
    regularizer only when it holds both arms; an unusable bag's label and
    prediction are NaN."""

    y_bag: np.ndarray
    h_bag: np.ndarray
    usable: np.ndarray
    treated: np.ndarray


@dataclass
class LossBreakdown:
    """One training step's loss terms: loss = l_base + alpha * l_mil, with
    the alpha the step was called with."""

    l_base: float
    l_mil: float
    loss: float
    usable_bags: int


def _check_bags(n: int, bag_size, mode, rng) -> BagMode:
    """`mode` as a BagMode once the bag settings can cut a batch of n rows
    into bags, else ConfigError naming the first bad one: a mode that is
    no BagMode, a bag_size that is no integer >= 2 or exceeds n, or RANDOM
    bags with an rng that is no numpy Generator."""
    mode = enum_member(BagMode, mode, "mode")
    check_int("bag_size", bag_size, 2)
    if bag_size > n:
        raise ConfigError(f"bag_size {bag_size} exceeds batch size {n}")
    if mode is BagMode.RANDOM and not isinstance(rng, np.random.Generator):
        raise ConfigError("random bags need an rng, so the shuffle is reproducible: "
                          f"'rng' must be a numpy Generator, got {rng!r}")
    return mode


def cluster_bags(
    uplift_predictions: np.ndarray,
    bag_size: int,
    mode: BagMode = BagMode.CLUSTERED,
    rng: np.random.Generator | None = None,
) -> BagPartition:
    """Pack a batch into equal-sized bags of adjacent uplift predictions.

    CLUSTERED sorts batch positions by predicted uplift ascending (ties
    keep original order) and partitions consecutive runs without
    overlaps. RANDOM shuffles instead of sorting, the no-clustering
    ablation; it needs `rng`, a numpy Generator (ConfigError naming it
    otherwise), so every shuffle is reproducible. Trailing rows that do
    not fill a bag are dropped. A `bag_size` below 2, or above the
    batch's row count, raises ConfigError naming it, so the partition
    holds at least one bag. Predictions that are not a vector (a column
    or a 0-d array) raise ShapeError naming their shape, so a bag never
    repeats a row.
    """
    preds = check_reals("uplift_predictions", uplift_predictions)
    if preds.ndim != 1:
        raise ShapeError(f"'uplift_predictions' must be a vector, got shape {preds.shape}")
    n = len(preds)
    mode = _check_bags(n, bag_size, mode, rng)
    if not np.all(np.isfinite(preds)):
        raise ConfigError("uplift predictions contain non-finite values")
    if mode is BagMode.CLUSTERED:
        order = np.argsort(preds, kind="stable")
    else:
        order = rng.permutation(n)
    bags = order[: n - n % bag_size].reshape(-1, bag_size)
    return BagPartition(bags)


def batch_bag_stats(
    outcome, treatment, p_t, p_c, partition: BagPartition, u_t: float
) -> BagStats:
    """Label and prediction for every bag of a partition.

    The label y_bag is the treated members' outcomes over u_t minus the
    control members' outcomes over (1 - u_t); the prediction h_bag is the
    same weighted sum of each member's factual-arm probability (p_t if
    treated, p_c if control). A single-arm bag is unusable: its label and
    prediction are NaN and it takes no part in the regularizer. A u_t
    outside (0, 1) raises ConfigError when some bag holds both arms.
    """
    bags = partition.bags
    treated = np.asarray(treatment)[bags] == 1
    n_t = treated.sum(axis=1)
    usable = (n_t > 0) & (n_t < bags.shape[1])
    if not 0.0 < u_t < 1.0:
        if usable.any():
            raise ConfigError(f"u_t must lie in (0, 1) for a two-arm bag, got {u_t}")
        nan = np.full(len(bags), np.nan)
        return BagStats(nan, nan.copy(), usable, treated)

    def weighted_sums(a_t, a_c):
        # Treated members' a_t over u_t minus control members' a_c over
        # (1 - u_t), per bag; NaN for an unusable bag.
        s_t = np.where(treated, np.asarray(a_t, dtype=np.float64)[bags], 0.0).sum(axis=1)
        s_c = np.where(treated, 0.0, np.asarray(a_c, dtype=np.float64)[bags]).sum(axis=1)
        return np.where(usable, s_t / u_t - s_c / (1.0 - u_t), np.nan)

    return BagStats(weighted_sums(outcome, outcome), weighted_sums(p_t, p_c), usable, treated)


def mil_loss(stats: BagStats) -> tuple[float, np.ndarray]:
    """Sum of squared (label - prediction) residuals over usable bags.

    Returns (l_mil, residuals); residuals are aligned with the bags and
    zero for unusable bags so gradient routing can index them directly.
    """
    residuals = np.where(stats.usable, stats.y_bag - stats.h_bag, 0.0)
    return float(np.sum(residuals**2)), residuals


def combined_loss_and_grads(
    model: UpliftModel,
    x,
    treatment,
    outcome,
    u_t: float,
    alpha: float,
    bag_size: int,
    mode: BagMode = BagMode.CLUSTERED,
    rng: np.random.Generator | None = None,
    buffers: models.BufferSet | None = None,
) -> tuple[LossBreakdown, np.ndarray, ModelOutputs]:
    """Base loss (`models.factual_loss`) plus the bag-level regularizer,
    with gradients.

    Bags are formed by `cluster_bags` from the uplift predictions of this
    call's own forward pass (the returned outputs); RANDOM bags draw from
    `rng`, which they need. The assignment is fixed during the gradient.
    The MIL gradient reaches each bag member only through its factual
    arm's probability p_f: alpha * d l_mil / d p_f * p_f * (1 - p_f),
    gathered per member and scattered once into that arm's column of the
    base loss's (n, 2) arm-logit gradient; the bags are disjoint, so no
    element is written twice, and the parameter gradient has the bits of
    the dense (n, 2) form (module docstring). With alpha = 0 the
    bag machinery is skipped entirely and the gradients are bit-for-bit
    those of `models.base_loss_and_grads`.
    A non-finite base loss (a diverged model) forms no bags either: the
    returned loss is then non-finite for the caller to report.

    The pass runs in `buffers` (`models.buffer_set`; one fresh set of
    len(x) rows when none is given), and the returned gradient is a view
    into it. A non-finite or negative alpha raises ConfigError, and so do
    bag settings that `cluster_bags` rejects (a bag_size, mode or rng),
    before the forward pass and whatever alpha is: an alpha-0 step, which
    forms no bags, rejects what a later step would. So does a treatment
    or outcome that is not a vector of len(x) rows (a column, say): it
    raises ShapeError naming the argument and its shape.
    """
    if not (is_real(alpha) and alpha >= 0):
        raise ConfigError(f"'alpha' must be finite and >= 0, got {alpha!r}")
    _check_bags(len(x), bag_size, mode, rng)
    t = np.asarray(treatment, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.float64)
    for name, v in (("treatment", t), ("outcome", y)):
        if v.shape != (len(x),):
            raise ShapeError(f"{name!r} must be a vector of {len(x)} rows, "
                             f"got shape {v.shape}")
    if buffers is None:
        buffers = models.buffer_set(model, len(x))
    out = models.forward_full(model, x, buffers)
    l_base, g = models.factual_loss(out, t, y)

    l_mil, usable = 0.0, 0
    if alpha != 0.0 and np.isfinite(l_base):
        partition = cluster_bags(out.uplift, bag_size, mode, rng)
        stats = batch_bag_stats(y, t, out.p_t, out.p_c, partition, u_t)
        l_mil, residuals = mil_loss(stats)
        usable = int(stats.usable.sum())
    if usable:
        # d l_mil / d p_f at each member's factual probability p_f: -2 r / u_t
        # for a treated member, +2 r / (1 - u_t) for a control one (zero in
        # an unusable bag); then through the logistic, into the factual
        # column of g. Bags are disjoint, so the scatter adds into each
        # member's element once, in the order a dense (n, 2) form would.
        bags, treated = partition.bags, stats.treated
        r = residuals[:, None]
        dp = np.where(treated, -2.0 * r / u_t, 2.0 * r / (1.0 - u_t))
        pf = np.where(treated, out.p_t[bags], out.p_c[bags])
        g[bags, treated.astype(np.intp)] += alpha * dp * pf * (1.0 - pf)

    grads = models.backprop_factual(model, g, buffers)
    breakdown = LossBreakdown(
        l_base=l_base,
        l_mil=l_mil,
        loss=l_base + alpha * l_mil,
        usable_bags=usable,
    )
    return breakdown, grads, out
