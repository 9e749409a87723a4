"""Uplift evaluation: uplift curves, AUUC, and run aggregation.

The curve ranks treated and control rows separately by score (the robust
choice under imbalanced arms). For each targeting fraction phi on a
uniform grid, the top ceil(phi * N) rows of each arm are selected and

    g(phi) = phi * (response rate of selected treated
                    - response rate of selected control)

AUUC is the average of g over the grid.

Tied scores are never ranked by row order. When a group of rows with
equal scores is only partly selected, the selected part contributes the
group's mean response for the share it takes: the expected value over
every ordering of the tied rows, as in ROC analysis, where tied scores
collapse into one threshold. The curve is therefore a function of the
scores alone. A constant scorer gives g(phi) = phi * ATE exactly, so its
AUUC is ATE * (P + 1) / (2 P) on a P-point grid, and g(1) equals the
empirical ATE exactly since both rankings then include everyone. The
empirical ATE acts as an approximate upper bound.

Each selected rate is computed as one ratio of integers, which is exact
(correctly rounded) while m * (group size) < 2**53 per arm, i.e. up to
about 9e7 rows per arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError

DEFAULT_GRID = 100


@dataclass
class UpliftCurve:
    """Ordered (phi, g) points on (0, 1] plus the AUUC scalar."""

    phi: np.ndarray
    g: np.ndarray
    auuc: float


@dataclass
class RunAggregate:
    """AUUCs of repeated runs with mean and sample standard deviation."""

    values: list[float]
    mean: float
    std: float
    single_run: bool

    def format_x1000(self) -> str:
        """Table entry in the mean±std (x 0.001) convention."""
        return f"{self.mean * 1000:.3f}±{self.std * 1000:.3f}"


def _ceil_div(a, b):
    return -(-a // b)


def _ranked(scores: np.ndarray, *values: np.ndarray):
    """Ascending sort keys (the negated scores, so best first) and the
    0-prefixed cumulative sums of each value vector in that order. The
    order within a tied group does not matter: only sums at group
    boundaries are read."""
    keys = -scores
    order = np.argsort(keys)
    cums = [np.concatenate(([0], np.cumsum(v[order]))) for v in values]
    return keys[order], cums


def _tied_group(keys: np.ndarray, m: np.ndarray):
    """Bounds [a, b) of the tied group that holds position m - 1 of the
    sorted keys, for every selection size in m."""
    last = keys[m - 1]
    return (
        np.searchsorted(keys, last, side="left"),
        np.searchsorted(keys, last, side="right"),
    )


def _selected(cum: np.ndarray, a: np.ndarray, b: np.ndarray, m: np.ndarray):
    """(b - a) times the sum over the top m rows, where the partly
    selected group [a, b) adds its sum in proportion (m - a) / (b - a).
    An integer, so the caller's ratio is exact."""
    return cum[a] * (b - a) + (m - a) * (cum[b] - cum[a])


def uplift_curve(
    scores,
    outcome,
    treatment,
    n_points: int = DEFAULT_GRID,
    ranking: str = "separate",
) -> UpliftCurve:
    """Uplift curve over a uniform grid phi = k / n_points, k = 1..n_points.

    `ranking="separate"` (default) ranks each arm by score on its own;
    `ranking="joint"` ranks all rows together and compares the selected
    arms' rates, provided for comparison only.

    In both rankings a partly selected group of tied scores contributes
    its mean response (and, for the joint ranking, its treated and
    control counts) in proportion to the share it takes, so the result
    does not depend on row order. A constant scorer gives
    g(phi) = phi * ATE and AUUC = ATE * (n_points + 1) / (2 n_points).
    NaN scores have no place in a ranking and raise MetricError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.int64)
    t = np.asarray(treatment, dtype=np.int64)
    if not (scores.shape == y.shape == t.shape) or scores.ndim != 1:
        raise ConfigError("scores, outcome and treatment must be equal-length vectors")
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise MetricError(f"uplift curve undefined: {n_nan} of {len(scores)} scores are NaN")
    if n_points < 2:
        raise ConfigError(f"n_points must be at least 2, got {n_points}")
    n_t = int(t.sum())
    n_c = len(t) - n_t
    if n_t == 0 or n_c == 0:
        raise MetricError(f"uplift curve undefined: {n_t} treated, {n_c} control")

    phi = np.arange(1, n_points + 1) / n_points
    if ranking == "separate":
        g = _separate_g(scores, y, t, n_points)
    elif ranking == "joint":
        g = _joint_g(scores, y, t, n_points)
    else:
        raise ConfigError(f"unknown ranking {ranking!r}")
    auuc = math.fsum(g) / n_points
    return UpliftCurve(phi=phi, g=np.asarray(g), auuc=auuc)


def _separate_g(scores, y, t, n_points):
    k = np.arange(1, n_points + 1)
    treated = t == 1
    rates = []
    for arm in (treated, ~treated):
        keys, (cum,) = _ranked(scores[arm], y[arm])
        m = _ceil_div(k * len(keys), n_points)
        a, b = _tied_group(keys, m)
        rates.append(_selected(cum, a, b, m) / (m * (b - a)))
    return (k / n_points) * (rates[0] - rates[1])


def _joint_g(scores, y, t, n_points):
    k = np.arange(1, n_points + 1)
    keys, cums = _ranked(scores, t, y * t, 1 - t, y * (1 - t))
    m = _ceil_div(k * len(keys), n_points)
    a, b = _tied_group(keys, m)
    n_t, y_t, n_c, y_c = (_selected(cum, a, b, m) for cum in cums)
    # The (b - a) factor cancels, so each arm's rate is one integer
    # ratio; an arm with no selected rows has rate 0.
    rate_t = np.divide(y_t, n_t, out=np.zeros(n_points), where=n_t > 0)
    rate_c = np.divide(y_c, n_c, out=np.zeros(n_points), where=n_c > 0)
    return (k / n_points) * (rate_t - rate_c)


def auuc(scores, outcome, treatment) -> float:
    """AUUC on the default grid; equals uplift_curve(...).auuc."""
    return uplift_curve(scores, outcome, treatment, n_points=DEFAULT_GRID).auuc


def aggregate_runs(auucs) -> RunAggregate:
    """Mean and sample (n-1) standard deviation of repeated-run AUUCs.

    A single run aggregates to its own value with std reported as 0 and
    the single-run flag set.
    """
    values = [float(v) for v in auucs]
    if not values:
        raise ConfigError("aggregate_runs needs at least one value")
    single = len(values) == 1
    std = 0.0 if single else float(np.std(values, ddof=1))
    return RunAggregate(values, float(np.mean(values)), std, single)


def export_curve(curve: UpliftCurve, path) -> None:
    """Write the curve as 'phi,g' rows; 17 significant digits so the
    file round-trips bitwise."""
    if len(curve.phi) < 2:
        raise ConfigError("a curve needs at least 2 points")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack([curve.phi, curve.g]), fmt="%.17g",
                   delimiter=",", header="phi,g", comments="")
