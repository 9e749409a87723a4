"""Uplift curves, AUUC, aggregation, curve files."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from upliftmil.data import SynthConfig, empirical_ate, generate_synthetic
from upliftmil.errors import ConfigError, MetricError
from upliftmil.metrics import (
    UpliftCurve,
    aggregate_runs,
    auuc,
    export_curve,
    uplift_curve,
)

from oracles import brute_force_curve


def _random_set(rng, n_max=30):
    while True:
        n = int(rng.integers(4, n_max + 1))
        t = rng.integers(0, 2, n)
        if 0 < t.sum() < n:
            break
    y = rng.integers(0, 2, n)
    scores = rng.normal(size=n)
    if rng.random() < 0.3:
        scores = np.round(scores)  # force ties
    return scores, y, t


class TestUpliftCurve:
    def test_constant_scores_give_phi_times_ate(self):
        # With every treated row positive and every control row negative
        # the selected rates are constant in phi, so g(phi) = phi * ATE
        # and AUUC has the closed form ATE * (P + 1) / (2 P).
        y = np.array([1] * 10 + [0] * 10)
        t = np.array([1] * 10 + [0] * 10)
        curve = uplift_curve(np.zeros(20), y, t, n_points=10)
        np.testing.assert_allclose(curve.g, curve.phi * 1.0, atol=1e-12)
        assert abs(curve.auuc - 1.0 * 11 / 20) < 1e-12

    def test_matches_brute_force_on_hand_built_set(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=8)
        y = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        t = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        curve = uplift_curve(scores, y, t, n_points=25)
        g_ref, auuc_ref = brute_force_curve(scores, y, t, 25)
        np.testing.assert_array_equal(curve.g, g_ref)
        assert curve.auuc == auuc_ref

    def test_oracle_equivalence_on_many_small_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            scores, y, t = _random_set(rng)
            n_points = int(rng.integers(2, 40))
            curve = uplift_curve(scores, y, t, n_points=n_points)
            g_ref, auuc_ref = brute_force_curve(scores, y, t, n_points)
            np.testing.assert_array_equal(curve.g, g_ref)
            assert curve.auuc == auuc_ref

    def test_perfect_separation_approaches_ate_from_below(self):
        # All the uplift sits in the top-scored treated rows.
        y_t = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        scores_t = -np.arange(10, dtype=float)
        y_c = np.zeros(10, dtype=int)
        y = np.concatenate([y_t, y_c])
        t = np.array([1] * 10 + [0] * 10)
        scores = np.concatenate([scores_t, np.zeros(10)])
        curve = uplift_curve(scores, y, t, n_points=100)
        ate = 0.3
        random_auuc = ate * 101 / 200
        assert curve.auuc <= ate
        assert curve.auuc > random_auuc

    def test_endpoint_anchors_to_empirical_ate(self):
        ds = generate_synthetic(SynthConfig(n=5000, seed=3))
        rng = np.random.default_rng(3)
        curve = uplift_curve(
            rng.normal(size=ds.n), ds.outcome, ds.treatment, n_points=40
        )
        assert abs(curve.g[-1] - empirical_ate(ds)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        scores, y, t = _random_set(rng)
        a = uplift_curve(scores, y, t, n_points=20)
        b = uplift_curve(np.exp(3.0 * scores) + 7.0, y, t, n_points=20)
        np.testing.assert_array_equal(a.g, b.g)

    def test_permutation_insensitive_with_distinct_scores(self):
        rng = np.random.default_rng(6)
        n = 24
        scores = rng.permutation(np.linspace(-1, 1, n))
        y = rng.integers(0, 2, n)
        t = np.array([0, 1] * (n // 2))
        a = uplift_curve(scores, y, t, n_points=10)
        perm = rng.permutation(n)
        b = uplift_curve(scores[perm], y[perm], t[perm], n_points=10)
        np.testing.assert_array_equal(a.g, b.g)

    def test_permutation_insensitive_with_tied_scores(self):
        # Rounded scores put most rows in tied groups; the curve must
        # not depend on which tied row comes first in the input.
        rng = np.random.default_rng(7)
        n = 60
        scores = np.round(rng.normal(size=n))
        y = rng.integers(0, 2, n)
        t = np.array([0, 1] * (n // 2))
        a = uplift_curve(scores, y, t, n_points=17)
        perm = rng.permutation(n)
        b = uplift_curve(scores[perm], y[perm], t[perm], n_points=17)
        np.testing.assert_array_equal(a.g, b.g)
        assert a.auuc == b.auuc

    def test_tie_rule_is_mean_over_row_orders(self):
        # A partly selected tied group counts at its mean response: the
        # exact average of the row-order curve over every row ordering.
        scores = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        y = np.array([1, 0, 0, 1, 1, 1, 0])
        t = np.array([1, 1, 1, 1, 0, 0, 0])
        n_points = 6
        rates = {}
        for arm in (1, 0):
            rows = [i for i in range(len(t)) if t[i] == arm]
            mean = [Fraction(0)] * n_points
            perms = list(itertools.permutations(rows))
            for perm in perms:
                ranked = sorted(perm, key=lambda i: -scores[i])  # stable
                for k in range(1, n_points + 1):
                    m = math.ceil(Fraction(k * len(rows), n_points))
                    mean[k - 1] += Fraction(sum(y[i] for i in ranked[:m]), m)
            rates[arm] = [float(v / len(perms)) for v in mean]
        g = [(k / n_points) * (rates[1][k - 1] - rates[0][k - 1])
             for k in range(1, n_points + 1)]
        np.testing.assert_array_equal(uplift_curve(scores, y, t, n_points).g, g)

    def test_nan_scores_rejected(self):
        with pytest.raises(MetricError, match="2 of 4 scores are NaN"):
            uplift_curve(np.array([0.1, np.nan, 0.3, np.nan]), np.zeros(4),
                         np.array([1, 0, 1, 0]))

    @pytest.mark.parametrize("n_scores, n_outcome, n_treatment", [
        (3, 4, 4), (4, 3, 4), (4, 4, 5), (0, 4, 4),
    ])
    def test_vectors_of_unequal_length_rejected(self, n_scores, n_outcome, n_treatment):
        with pytest.raises(ConfigError, match="^scores, outcome and treatment must be "
                                              "equal-length vectors$"):
            uplift_curve(np.zeros(n_scores), np.arange(n_outcome) % 2,
                         np.arange(n_treatment) % 2)

    def test_single_arm_rejected(self):
        with pytest.raises(MetricError):
            uplift_curve(np.zeros(4), np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("scores", [
        np.array([0.4, 0.3, 0.2, 0.1]) * (1 + 1j), ["a", "b", "c", "d"],
        [0.4, 0.3, 0.2, [0.1, 0.0]],
    ], ids=["complex", "text", "ragged"])
    def test_scores_that_are_not_real_rejected(self, scores):
        with pytest.raises(ConfigError, match="^'scores' must hold real numbers"):
            uplift_curve(scores, [1, 0, 1, 0], [1, 1, 0, 0])

    def test_tiny_grid_rejected(self):
        # A float grid size, even a whole one, used to fail in numpy's indexing.
        for n_points in (1, 2.5, np.float64(10), True):
            with pytest.raises(ConfigError, match="'n_points' must be an integer >= 2"):
                uplift_curve(np.zeros(4), np.zeros(4), np.array([1, 0, 1, 0]),
                             n_points=n_points)

    def test_least_grid_is_two_points(self):
        scores, y, t = np.zeros(4), np.zeros(4), np.array([1, 0, 1, 0])
        assert len(uplift_curve(scores, y, t, n_points=2).g) == 2
        for n_points in (0, 1):
            want = f"'n_points' must be an integer >= 2, got {n_points}"
            with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
                uplift_curve(scores, y, t, n_points=n_points)

    @pytest.mark.parametrize("column, bad", [
        ("treatment", 2), ("outcome", 0.7), ("outcome", np.nan), ("treatment", -1),
    ])
    def test_nonbinary_column_rejected(self, column, bad):
        # A treatment of 2 would count as treated but rank as control, an
        # outcome of 0.7 would truncate to 0, and a NaN has no integer.
        cols = {"outcome": np.array([1.0, 0.0, 1.0, 0.0]),
                "treatment": np.array([1.0, 1.0, 0.0, 0.0])}
        cols[column][1] = bad
        with pytest.raises(MetricError, match=f"1 of 4 {column} values"):
            uplift_curve(np.array([0.4, 0.3, 0.2, 0.1]), **cols)

    @pytest.mark.parametrize("outcome", [np.array(["1", "0", "1", "0"]),
                                         np.array([0, 1, 1, 0], dtype=object),
                                         np.array([0, 1, 1, 0], dtype=complex)])
    def test_non_numeric_column_names_its_dtype(self, outcome):
        # Rejected even when every value equals 0 or 1.
        with pytest.raises(MetricError, match=f"outcome must be bool, integer or "
                                              f"float, got {outcome.dtype}"):
            uplift_curve(np.zeros(4), outcome, [1, 1, 0, 0])


class TestAuuc:
    def test_wrapper_equals_curve(self):
        rng = np.random.default_rng(11)
        scores, y, t = _random_set(rng)
        assert auuc(scores, y, t) == uplift_curve(scores, y, t, 100).auuc

    def test_negating_an_informative_scorer_hurts(self):
        # Uplift concentrated in high-scoring rows; flipping the ranking
        # must strictly reduce AUUC (verified against brute force too).
        y = np.array([1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        t = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        scores = np.array([1.0, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6])
        good = auuc(scores, y, t)
        bad = auuc(-scores, y, t)
        assert good > bad
        _, ref_good = brute_force_curve(scores, y, t, 100)
        assert good == ref_good

    def test_true_effect_scores_beat_random_scores(self):
        ds = generate_synthetic(SynthConfig(n=30_000, seed=21))
        oracle = auuc(ds.true_ite, ds.outcome, ds.treatment)
        rng = np.random.default_rng(21)
        random_scores = auuc(rng.normal(size=ds.n), ds.outcome, ds.treatment)
        assert oracle >= random_scores


class TestAggregateRuns:
    def test_identical_runs(self):
        agg = aggregate_runs([1.0, 1.0, 1.0])
        assert agg.mean == 1.0 and agg.std == 0.0 and not agg.single_run

    def test_two_runs_sample_std(self):
        agg = aggregate_runs([2.0, 4.0])
        assert agg.mean == 3.0
        assert abs(agg.std - math.sqrt(2.0)) < 1e-12

    def test_single_run_flagged(self):
        agg = aggregate_runs([0.007])
        assert agg.single_run and agg.std == 0.0

    def test_format_convention(self):
        agg = aggregate_runs([0.007111, 0.007111])
        assert agg.format_x1000() == "7.111±0.000"

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_runs([])

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), "0.1", True, None])
    def test_value_that_is_no_finite_number_rejected(self, bad):
        want = f"aggregate_runs needs finite numbers, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            aggregate_runs([0.1, bad])


class TestCurveFiles:
    def test_hundred_point_curve_has_header_plus_rows(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n=2000, seed=2))
        curve = uplift_curve(ds.true_ite, ds.outcome, ds.treatment, 100)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 101
        assert lines[0] == "phi,g"

    def test_round_trip_bitwise(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n=1500, seed=4))
        curve = uplift_curve(ds.true_ite, ds.outcome, ds.treatment, 64)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        assert path.read_text(encoding="utf-8").startswith("phi,g\n")
        phi, g = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        np.testing.assert_array_equal(phi, curve.phi)
        np.testing.assert_array_equal(g, curve.g)

    def test_exact_bytes(self, tmp_path):
        curve = UpliftCurve(np.array([1 / 3, 2 / 3, 1.0]),
                            np.array([0.01, -0.0, 0.1 + 0.2]), 0.0)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        assert path.read_bytes() == (
            b"phi,g\n0.33333333333333331,0.01\n0.66666666666666663,-0\n"
            b"1,0.30000000000000004\n"
        )

    def test_two_point_curve_written(self, tmp_path):
        curve = UpliftCurve(np.array([0.5, 1.0]), np.array([0.01, 0.02]), 0.0)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        assert path.read_bytes() == b"phi,g\n0.5,0.01\n1,0.02\n"

    def test_one_point_curve_rejected(self, tmp_path):
        # No file is begun for a curve export_curve rejects.
        curve = UpliftCurve(np.array([1.0]), np.array([0.02]), 0.0)
        with pytest.raises(ConfigError, match="^a curve needs at least 2 points$"):
            export_curve(curve, tmp_path / "curve.csv")
        assert not (tmp_path / "curve.csv").exists()

    def test_unwritable_path_raises(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n=500, seed=5))
        curve = uplift_curve(ds.true_ite, ds.outcome, ds.treatment, 10)
        with pytest.raises(OSError):
            export_curve(curve, tmp_path / "missing_dir" / "curve.csv")
