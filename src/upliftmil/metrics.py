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
empirical ATE exactly since both arms' rankings then include everyone. The
empirical ATE acts as an approximate upper bound.

The curve is counted, as the classic ROC algorithm counts positives at
each threshold (Fawcett, Pattern Recognit. Lett. 2006). Each arm sorts
the negated scores of its rows, and apart from them those of its
responders, as keys. For a selection of the top m rows, the bounds
[a, b) of the tied group holding the m-th key are binary-search
positions in the arm's keys, and the responders ranked before that
group and through it are binary-search counts in the responders' keys:
all exact integers, with no permutation or running sum formed. The
search compares keys, so -0.0 and +0.0 count as one score whichever
order the sort left them in.

Each selected rate is computed as one ratio of integers, which is exact
(correctly rounded) while m * (group size) < 2**53 per arm, i.e. up to
about 9e7 rows per arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError, check_int, check_reals, is_binary, is_real

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


def _binary(values, name: str) -> np.ndarray:
    """`values` as int64, or MetricError naming the column unless
    `is_binary(values)`: for a bool, integer or float column the error
    counts the values that are not 0 or 1, for any other it names the
    dtype."""
    v = np.asarray(values)
    if not is_binary(v):
        if v.dtype.kind not in "iuf":
            raise MetricError(f"uplift curve undefined: {name} must be bool, "
                              f"integer or float, got {v.dtype}")
        bad = np.count_nonzero((v != 0) & (v != 1))
        raise MetricError(
            f"uplift curve undefined: {bad} of {v.size} {name} values are not 0 or 1"
        )
    return v.astype(np.int64, copy=False)


def uplift_curve(
    scores, outcome, treatment, n_points: int = DEFAULT_GRID
) -> UpliftCurve:
    """Uplift curve over a uniform grid phi = k / n_points, k = 1..n_points.

    Each arm is ranked by score on its own. A partly selected group of
    tied scores contributes its mean response in proportion to the share
    it takes, so the result does not depend on row order. A constant
    scorer gives g(phi) = phi * ATE and AUUC = ATE * (n_points + 1) /
    (2 n_points). NaN scores have no place in a ranking, and outcome and
    treatment must be binary as `errors.is_binary` defines it (bool, or
    integers or floats equal to 0 or 1); both raise MetricError, which
    for a column names it and counts its other values, or names its dtype
    when that is not bool, integer or float. Scores that are not real
    numbers (`errors.check_reals`) raise ConfigError.
    """
    scores = check_reals("scores", scores)
    y = _binary(outcome, "outcome")
    t = _binary(treatment, "treatment")
    if not (scores.shape == y.shape == t.shape) or scores.ndim != 1:
        raise ConfigError("scores, outcome and treatment must be equal-length vectors")
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise MetricError(f"uplift curve undefined: {n_nan} of {len(scores)} scores are NaN")
    check_int("n_points", n_points, 2)
    n_t = int(t.sum())
    n_c = len(t) - n_t
    if n_t == 0 or n_c == 0:
        raise MetricError(f"uplift curve undefined: {n_t} treated, {n_c} control")

    k = np.arange(1, n_points + 1)
    keys = -scores  # ascending keys rank the best scores first
    treated, responded = t == 1, y == 1
    rates = []
    for arm in (treated, ~treated):
        ranked = np.sort(np.compress(arm, keys))
        hits = np.sort(np.compress(arm & responded, keys))
        m = _ceil_div(k * len(ranked), n_points)
        last = ranked[m - 1]
        a, b = (np.searchsorted(ranked, last, side) for side in ("left", "right"))
        ha, hb = (np.searchsorted(hits, last, side) for side in ("left", "right"))
        # (b - a) times the responders among the top m: all ha before
        # the tied group [a, b) and its hb - ha in proportion (m - a) /
        # (b - a); an integer, so the ratio is exact.
        rates.append((ha * (b - a) + (m - a) * (hb - ha)) / (m * (b - a)))
    g = (k / n_points) * (rates[0] - rates[1])
    return UpliftCurve(phi=k / n_points, g=g, auuc=math.fsum(g) / n_points)


def auuc(scores, outcome, treatment) -> float:
    """AUUC on the default grid; equals uplift_curve(...).auuc."""
    return uplift_curve(scores, outcome, treatment, n_points=DEFAULT_GRID).auuc


def aggregate_runs(auucs) -> RunAggregate:
    """Mean and sample (n-1) standard deviation of repeated-run AUUCs.

    A single run aggregates to its own value with std reported as 0 and
    the single-run flag set.
    """
    values = list(auucs)
    for v in values:
        if not is_real(v):
            raise ConfigError(f"aggregate_runs needs finite numbers, got {v!r}")
    values = list(map(float, values))
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
