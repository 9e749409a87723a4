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

A partition is one (n_bags, bag_size) array of batch positions, one bag
per row. A step gathers each bag member once through it, into
(n_bags, bag_size) arrays of the members' outcomes, treated flags and
factual probabilities p_f, so every bag's label, prediction, residual
and gradient comes from a few array operations over those arrays; there
are no per-bag objects. `batch_bag_stats` sums them into every bag's
label and prediction at once, and a single bag is one row of each.

A training step, `combined_loss_and_grads`, is one `models.forward_full`
pass, the bag sums and one `models.backprop_factual` pass, both in one
`models.BufferSet` (`nncore`'s pass contract). The regularizer reaches a
bag member only through its factual probability p_f, so its gradient is
one (n_bags, bag_size) array, d l_mil / d p_f times p_f (1 - p_f), added
by one fancy-index scatter into the factual column of the base loss's
(n, 2) arm-logit gradient. Bags are disjoint, so the scatter writes each
member's element once, by the operations of a dense (n, 2) form in the
same order. Elsewhere that form adds +0.0, which changes no entry of the
base gradient: its counterfactual column is +0.0 and no factual entry,
(logistic(z) - y) / n_arm, is -0.0. So the two arm-logit gradients and
the parameter gradients agree bit for bit (tests/oracles.py keeps the
dense form).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import models
from .errors import (ConfigError, ShapeError, check_alpha, check_int, check_reals,
                     enum_member)
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
    outcomes, probabilities, treated, u_t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label, prediction and usable flag of every bag, from its members.

    The three numpy arrays hold the bags' members, one bag per row, in one
    (n_bags, bag_size) shape: each member's outcome, its factual-arm
    probability (p_t if treated, p_c if control) and its treated flag.
    The label y_bag is the treated members' outcomes over u_t minus the
    control members' outcomes over (1 - u_t); the prediction h_bag is the
    same weighted sum of the probabilities. Returns (y_bag, h_bag, usable),
    aligned with the bags. A single-arm bag is unusable: its label and
    prediction are NaN and it takes no part in the regularizer. Arrays
    that do not share one (n_bags, bag_size) shape (a column-gathered
    outcome, say) raise ShapeError naming the three shapes. A u_t outside
    (0, 1) raises ConfigError when some bag holds both arms.
    """
    shapes = (outcomes.shape, probabilities.shape, treated.shape)
    if len(shapes[0]) != 2 or len(set(shapes)) != 1:
        raise ShapeError("bag members must share one (n_bags, bag_size) shape, got "
                         "outcomes {}, probabilities {} and treated {}".format(*shapes))
    n_t = treated.sum(axis=1)
    usable = (n_t > 0) & (n_t < treated.shape[1])
    if not 0.0 < u_t < 1.0:
        if usable.any():
            raise ConfigError(f"u_t must lie in (0, 1) for a two-arm bag, got {u_t}")
        nan = np.full(len(treated), np.nan)
        return nan, nan.copy(), usable

    def weighted_sums(a):
        # Treated members' values over u_t minus control members' over
        # (1 - u_t), per bag; NaN for an unusable bag.
        s_t = np.where(treated, a, 0.0).sum(axis=1)
        s_c = np.where(treated, 0.0, a).sum(axis=1)
        return np.where(usable, s_t / u_t - s_c / (1.0 - u_t), np.nan)

    return weighted_sums(outcomes), weighted_sums(probabilities), usable


def mil_loss(y_bag, h_bag, usable) -> tuple[float, np.ndarray]:
    """Sum of squared (label - prediction) residuals over usable bags, from
    `batch_bag_stats`'s (y_bag, h_bag, usable).

    Returns (l_mil, residuals); residuals are aligned with the bags and
    zero for unusable bags so gradient routing can index them directly.
    """
    residuals = np.where(usable, y_bag - h_bag, 0.0)
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
    Each bag member is gathered once, as (n_bags, bag_size) arrays of
    outcomes, treated flags and factual probabilities p_f, which feed
    `batch_bag_stats` and then the gradient. The MIL gradient reaches a
    member only through p_f: alpha * d l_mil / d p_f * p_f * (1 - p_f),
    per member, scattered once into its factual arm's column of the
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
    check_alpha(alpha)
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
        bags = cluster_bags(out.uplift, bag_size, mode, rng).bags
        treated = t[bags] == 1
        p_f = np.where(treated, out.p_t[bags], out.p_c[bags])
        y_bag, h_bag, two_arm = batch_bag_stats(y[bags], p_f, treated, u_t)
        l_mil, residuals = mil_loss(y_bag, h_bag, two_arm)
        usable = int(two_arm.sum())
    if usable:
        # d l_mil / d p_f at each member's factual probability p_f: -2 r / u_t
        # for a treated member, +2 r / (1 - u_t) for a control one (zero in
        # an unusable bag); then through the logistic, into the factual
        # column of g. Bags are disjoint, so the scatter adds into each
        # member's element once, in the order a dense (n, 2) form would.
        r = residuals[:, None]
        dp = np.where(treated, -2.0 * r / u_t, 2.0 * r / (1.0 - u_t))
        g[bags, treated.astype(np.intp)] += alpha * dp * p_f * (1.0 - p_f)

    grads = models.backprop_factual(model, g, buffers)
    breakdown = LossBreakdown(
        l_base=l_base,
        l_mil=l_mil,
        loss=l_base + alpha * l_mil,
        usable_bags=usable,
    )
    return breakdown, grads, out
