"""Bag formation, bag-wise ATE arithmetic, the combined loss, and the
noise-cancellation identity behind the regularizer."""

import re

import numpy as np
import pytest

from upliftmil import models
from upliftmil.errors import ConfigError, ShapeError
from upliftmil.mil import (
    BagMode,
    batch_bag_stats,
    cluster_bags,
    combined_loss_and_grads,
    mil_loss,
)

from oracles import (
    combined_loss_ref,
    dense_mil_logit_grad,
    fd_gradients,
    max_relative_error,
    mil_loss_ref,
    variance_identity_check,
)

ALL_KINDS = ["tm", "tarnet", "ddr", "sdr"]


class TestClusterBags:
    def test_sort_oracle_on_six_values(self):
        preds = np.array([0.9, 0.1, 0.5, 0.3, 0.8, 0.2])
        part = cluster_bags(preds, 2)
        got = [set(b.tolist()) for b in part.bags]
        assert got == [{1, 5}, {3, 2}, {4, 0}]

    def test_single_bag_when_bag_is_batch(self):
        part = cluster_bags(np.array([0.3, 0.1, 0.2, 0.4]), 4)
        assert len(part.bags) == 1
        assert set(part.bags[0].tolist()) == {0, 1, 2, 3}

    def test_ties_keep_original_order(self):
        part = cluster_bags(np.zeros(6), 2)
        got = [b.tolist() for b in part.bags]
        assert got == [[0, 1], [2, 3], [4, 5]]

    def test_remainder_dropped(self):
        part = cluster_bags(np.arange(7.0), 3)
        assert sum(len(b) for b in part.bags) == 6

    def test_oversized_bag_rejected(self):
        with pytest.raises(ConfigError, match="^bag_size 4 exceeds batch size 3$"):
            cluster_bags(np.arange(3.0), 4)

    def test_random_mode_partitions_fully(self):
        rng = np.random.default_rng(0)
        part = cluster_bags(np.arange(8.0), 2, BagMode.RANDOM, rng)
        assert sorted(np.concatenate(part.bags).tolist()) == list(range(8))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="'mode'.*'nearest'"):
            cluster_bags(np.arange(8.0), 2, "nearest")

    @pytest.mark.parametrize("bag_size", [1, 2.5, 3.0, 2.0, True])
    def test_bad_bag_size_rejected(self, bag_size):
        # A float size, even a whole one, used to fail in numpy's reshape.
        want = f"'bag_size' must be an integer >= 2, got {bag_size!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            cluster_bags(np.arange(8.0), bag_size)
        m = models.build("tm", 3, (4,), 0)
        with pytest.raises(ConfigError, match=re.escape(want)):
            combined_loss_and_grads(m, *_batch(30), alpha=0.01, bag_size=bag_size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", list(BagMode))
    def test_non_finite_prediction_rejected(self, bad, mode):
        preds = np.array([0.1, bad, 0.3, 0.2])
        with pytest.raises(ConfigError,
                           match="^uplift predictions contain non-finite values$"):
            cluster_bags(preds, 2, mode, np.random.default_rng(0))

    @pytest.mark.parametrize("preds", [
        np.arange(4.0) * 1j, ["a", "b", "c", "d"], [0.1, 0.2, 0.3, [0.4, 0.5]],
    ], ids=["complex", "text", "ragged"])
    def test_predictions_that_are_not_real_rejected(self, preds):
        with pytest.raises(ConfigError, match="^'uplift_predictions' must hold real numbers"):
            cluster_bags(preds, 2)

    @pytest.mark.parametrize("preds, shape", [
        (np.array([[0.4], [0.1], [0.3], [0.2]]), (4, 1)), (np.array(0.5), ()),
    ], ids=["column", "0-d"])
    def test_predictions_that_are_no_vector_rejected(self, preds, shape):
        # A column once gave the bags [[0, 0], [0, 0]], which repeat a row,
        # and a 0-d array a bare TypeError.
        want = f"'uplift_predictions' must be a vector, got shape {shape}"
        with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
            cluster_bags(preds, 2)

    def test_random_mode_without_rng_rejected(self):
        # A seedless shuffle would draw OS entropy and break reproducibility.
        with pytest.raises(ConfigError, match="rng"):
            cluster_bags(np.arange(8.0), 2, BagMode.RANDOM)
        m = models.build("tm", 3, (4,), 0)
        x, t, y, u_t = _batch(30)
        with pytest.raises(ConfigError, match="rng"):
            combined_loss_and_grads(
                m, x, t, y, u_t, alpha=0.01, bag_size=2, mode=BagMode.RANDOM
            )

    @pytest.mark.parametrize("rng", [5, "x", np.random.RandomState(0)],
                             ids=["int", "str", "RandomState"])
    def test_random_mode_with_an_rng_that_is_no_generator_rejected(self, rng):
        # An int once failed with a bare AttributeError on rng.permutation.
        want = ("random bags need an rng, so the shuffle is reproducible: "
                f"'rng' must be a numpy Generator, got {rng!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            cluster_bags(np.arange(8.0), 2, BagMode.RANDOM, rng)

    def test_clustered_bags_monotone_between_bags(self):
        rng = np.random.default_rng(5)
        preds = rng.normal(size=100)
        part = cluster_bags(preds, 8)
        for a, b in zip(part.bags[:-1], part.bags[1:]):
            assert preds[a].max() <= preds[b].min()

    def test_partition_legality(self):
        rng = np.random.default_rng(6)
        preds = rng.normal(size=50)
        part = cluster_bags(preds, 8)
        flat = np.concatenate(part.bags)
        assert len(flat) == len(set(flat.tolist()))
        assert all(len(b) == 8 for b in part.bags)


def _members(bags, outcome, treatment, p_t, p_c):
    """The members of `bags` as the step gathers them: (outcomes,
    factual probabilities, treated flags), each of the shape of `bags`."""
    treated = np.asarray(treatment)[bags] == 1
    p_f = np.where(treated, np.asarray(p_t)[bags], np.asarray(p_c)[bags])
    return np.asarray(outcome, dtype=np.float64)[bags], p_f, treated


def _one_bag(outcome, treatment, u_t, p_t=None, p_c=None):
    """(y_bag, h_bag, usable) of one bag holding every row, by
    `batch_bag_stats`; the prediction defaults to the outcomes."""
    p_t, p_c = (outcome, outcome) if p_t is None else (p_t, p_c)
    bag = np.arange(len(treatment))[None, :]
    y_bag, h_bag, usable = batch_bag_stats(*_members(bag, outcome, treatment, p_t, p_c), u_t)
    return y_bag[0], h_bag[0], usable[0]


class TestBagLabel:
    def test_balanced_bag(self):
        # treated outcomes (1, 0), control outcomes (0, 0), u_t = 1/2
        y = np.array([1.0, 0.0, 0.0, 0.0])
        t = np.array([1, 1, 0, 0])
        label, _, usable = _one_bag(y, t, 0.5)
        assert usable
        assert abs(label - 2.0) < 1e-12

    def test_imbalanced_bag(self):
        # treated (1, 1, 0), control (1,), u_t = 3/4
        y = np.array([1.0, 1.0, 0.0, 1.0])
        t = np.array([1, 1, 1, 0])
        label, _, usable = _one_bag(y, t, 0.75)
        assert usable
        assert abs(label - (2 / 0.75 - 1 / 0.25)) < 1e-12
        assert abs(label - (-4 / 3)) < 1e-12

    def test_all_zero_outcomes(self):
        y = np.zeros(4)
        t = np.array([1, 0, 1, 0])
        label, _, usable = _one_bag(y, t, 0.5)
        assert usable and label == 0.0

    def test_single_arm_bag_unusable(self):
        y = np.array([1.0, 0.0])
        t = np.array([1, 1])
        label, _, usable = _one_bag(y, t, 0.5)
        assert not usable
        assert np.isnan(label)


class TestTreatedFractionOutsideUnitInterval:
    # u_t is the batch's treated fraction. At 0 or 1 every bag holds one
    # arm, and the label's weights 1 / u_t and 1 / (1 - u_t) are undefined
    # only for the arm no bag holds.
    @pytest.mark.parametrize("u_t", [0.0, 1.0, -0.5, 1.5])
    def test_a_two_arm_bag_raises(self, u_t):
        bags = np.array([[0, 1], [2, 3]])
        with pytest.raises(ConfigError, match=re.escape(
                f"u_t must lie in (0, 1) for a two-arm bag, got {u_t}")):
            batch_bag_stats(*_members(bags, np.ones(4), [1, 1, 1, 0], np.full(4, 0.5),
                                      np.full(4, 0.5)), u_t)

    @pytest.mark.parametrize("u_t, t", [(1.0, [1, 1, 1, 1]), (0.0, [0, 0, 0, 0]),
                                        (1.5, [1, 1, 0, 0])])
    def test_single_arm_bags_are_unusable(self, u_t, t):
        bags = np.array([[0, 1], [2, 3]])
        y_bag, h_bag, usable = batch_bag_stats(
            *_members(bags, np.ones(4), t, np.full(4, 0.5), np.full(4, 0.5)), u_t)
        assert not usable.any()
        assert np.isnan(y_bag).all() and np.isnan(h_bag).all()
        assert not np.shares_memory(y_bag, h_bag)
        loss, residuals = mil_loss(y_bag, h_bag, usable)
        assert loss == 0.0 and residuals.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_an_all_treated_step_is_the_base_step(self, kind):
        # A batch of treated rows alone (u_t = 1) forms only unusable bags:
        # the regularizer adds nothing, and the gradient has the bytes of
        # the alpha-0 step.
        m = models.build(kind, 3, (5, 4), 13)
        x, _, y, _ = _batch(130)
        t = np.ones(len(x))
        for mode in BagMode:
            step, grads, _ = combined_loss_and_grads(
                m, x, t, y, 1.0, 0.5, 4, mode, np.random.default_rng(0))
            base, base_grads, _ = combined_loss_and_grads(m, x, t, y, 1.0, 0.0, 4)
            assert step.usable_bags == 0 and step.l_mil == 0.0
            assert step.l_base == step.loss == base.loss
            assert grads.tobytes() == base_grads.tobytes()


class TestBagPrediction:
    def test_weighted_summation(self):
        # treated p_t (0.6, 0.4), control p_c (0.5, 0.3), u_t = 1/2
        p_t = np.array([0.6, 0.4, 0.9, 0.9])
        p_c = np.array([0.9, 0.9, 0.5, 0.3])
        t = np.array([1, 1, 0, 0])
        _, pred, usable = _one_bag(np.zeros(4), t, 0.5, p_t, p_c)
        assert usable
        assert abs(pred - 0.4) < 1e-12

    def test_symmetric_half_probabilities_cancel(self):
        p = np.full(4, 0.5)
        t = np.array([1, 0, 1, 0])
        _, pred, usable = _one_bag(np.zeros(4), t, 0.5, p, p)
        assert usable and abs(pred) < 1e-12

    def test_equals_label_when_predictions_equal_outcomes(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 8).astype(float)
        t = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        u_t = 0.5
        label, pred, _ = _one_bag(y, t, u_t, y, y)
        assert label == pred


class TestMemberShapes:
    # The members are gathered by one (n_bags, bag_size) array of
    # positions, so a column gathers into (n_bags, bag_size, 1). A column
    # treatment and outcome once gave a (2, 1) label and a (2, 2)
    # prediction here.
    def test_column_gathered_outcome_rejected(self):
        bags = np.array([[0, 1], [2, 3]])
        members = _members(bags, np.ones((4, 1)), [1, 0, 1, 0], np.full(4, 0.5),
                           np.full(4, 0.5))
        want = ("bag members must share one (n_bags, bag_size) shape, got outcomes "
                "(2, 2, 1), probabilities (2, 2) and treated (2, 2)")
        with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
            batch_bag_stats(*members, 0.5)

    @pytest.mark.parametrize("shapes", [
        ((2, 2), (2, 3), (2, 2)), ((2, 2), (2, 2), (1, 2)), ((4,), (4,), (4,)),
        ((2, 2, 1),) * 3])
    def test_arrays_of_other_shapes_rejected(self, shapes):
        # Mismatched shapes, and shared ones that are no (n_bags, bag_size).
        with pytest.raises(ShapeError, match=re.escape(
                f"got outcomes {shapes[0]}, probabilities {shapes[1]} "
                f"and treated {shapes[2]}")):
            batch_bag_stats(np.zeros(shapes[0]), np.full(shapes[1], 0.5),
                            np.zeros(shapes[2], dtype=bool), 0.5)


class TestMilLoss:
    def test_single_bag_residual(self):
        loss, residuals = mil_loss(np.array([2.0]), np.array([1.5]), np.array([True]))
        assert abs(loss - 0.25) < 1e-15
        np.testing.assert_allclose(residuals, [0.5])

    def test_perfect_predictions_zero_loss(self):
        loss, _ = mil_loss(np.ones(4), np.ones(4), np.full(4, True))
        assert loss == 0.0

    def test_two_bag_sum(self):
        loss, _ = mil_loss(np.array([1.0, 0.0]), np.array([0.9, 0.2]), np.array([True, True]))
        assert abs(loss - 0.05) < 1e-15

    def test_unusable_bags_skipped(self):
        loss, residuals = mil_loss(
            np.array([np.nan, 3.0]), np.array([np.nan, 1.0]), np.array([False, True]))
        assert abs(loss - 4.0) < 1e-15
        assert residuals[0] == 0.0


def _batch(seed, n=16, d=3):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    t = rng.integers(0, 2, n).astype(float)
    t[:2] = [1.0, 0.0]
    y = rng.integers(0, 2, n).astype(float)
    u_t = t.sum() / n
    return x, t, y, u_t


class TestCombinedLoss:
    def test_alpha_zero_reduces_to_base_bitwise(self):
        for kind in ALL_KINDS:
            m = models.build(kind, 3, (5, 4), 7)
            x, t, y, u_t = _batch(70)
            breakdown, grads, _ = combined_loss_and_grads(
                m, x, t, y, u_t, alpha=0.0, bag_size=4
            )
            base, base_grads, _ = models.base_loss_and_grads(m, x, t, y)
            assert breakdown.l_base == base
            assert breakdown.l_mil == 0.0
            assert breakdown.loss == base
            assert grads.tobytes() == base_grads.tobytes()

    def test_loss_field_is_exact_combination(self):
        m = models.build("tm", 3, (5, 4), 9)
        x, t, y, u_t = _batch(90)
        breakdown, _, _ = combined_loss_and_grads(
            m, x, t, y, u_t, alpha=0.01, bag_size=4
        )
        assert breakdown.loss == breakdown.l_base + 0.01 * breakdown.l_mil
        assert breakdown.usable_bags > 0

    def test_matches_reference_loss(self):
        m = models.build("tarnet", 3, (5, 4), 11)
        x, t, y, u_t = _batch(110)
        breakdown, _, out = combined_loss_and_grads(
            m, x, t, y, u_t, alpha=0.01, bag_size=4
        )
        part = cluster_bags(out.uplift, 4)
        ref = combined_loss_ref(
            m, x, t, y, u_t, 0.01, [b.tolist() for b in part.bags]
        )
        assert abs(breakdown.loss - ref) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradients_match_finite_differences_frozen_bags(self, kind):
        m = models.build(kind, 3, (5, 4), 23)
        rng = np.random.default_rng(230)
        m.params += rng.normal(0.0, 0.05, size=m.params.shape)
        # 18 rows leave two remainder rows in no bag of 4: they must get
        # no MIL gradient.
        for n in (16, 18):
            x, t, y, u_t = _batch(231, n=n)
            alpha = 0.01
            _, grads, out = combined_loss_and_grads(
                m, x, t, y, u_t, alpha, bag_size=4
            )
            # The bags the call formed, by the same stable sort of its own
            # forward pass, frozen for the perturbed losses.
            bags = cluster_bags(out.uplift, 4).bags.tolist()
            frozen_pc = out.p_c.copy() if kind == "ddr" else None

            def loss_fn(_arrays):
                return combined_loss_ref(
                    m, x, t, y, u_t, alpha, bags, frozen_pc=frozen_pc
                )

            numeric = fd_gradients(loss_fn, [m.params])
            assert max_relative_error([grads], numeric) < 1e-4

    @pytest.mark.parametrize("mode", list(BagMode))
    @pytest.mark.parametrize("bag_size", [2, 3, 8, 16, 64])
    def test_mil_term_matches_reference_for_every_bag_size(self, bag_size, mode):
        # 131 rows is a multiple of no bag size, and the first bag is
        # made single-arm, so remainder rows and unusable bags both occur.
        m = models.build("sdr", 3, (5, 4), 13)
        x, t, y, _ = _batch(130, n=131)
        out = models.forward_full(m, x)
        bags = cluster_bags(out.uplift, bag_size, mode, np.random.default_rng(7)).bags
        t[bags[0]] = 1.0
        u_t = t.sum() / len(t)
        breakdown, _, _ = combined_loss_and_grads(
            m, x, t, y, u_t, 0.01, bag_size, mode, rng=np.random.default_rng(7)
        )
        two_arm = [0 < t[b].sum() < bag_size for b in bags]
        assert not two_arm[0] and any(two_arm)
        assert breakdown.usable_bags == sum(two_arm)
        ref = mil_loss_ref(out.p_t, out.p_c, t, y, bags.tolist(), u_t)
        assert abs(breakdown.l_mil - ref) <= 1e-12 * abs(ref)

    def test_oversized_bag_rejected_by_the_step(self):
        m = models.build("tarnet", 3, (5, 4), 17)
        x, t, y, u_t = _batch(170)
        with pytest.raises(ConfigError, match="^bag_size 32 exceeds batch size 16$"):
            combined_loss_and_grads(m, x, t, y, u_t, alpha=0.01, bag_size=32)

    @pytest.mark.parametrize("bad, want", [
        ({"bag_size": 1}, "'bag_size' must be an integer >= 2, got 1"),
        ({"bag_size": 2.5}, "'bag_size' must be an integer >= 2, got 2.5"),
        ({"bag_size": "x"}, "'bag_size' must be an integer >= 2, got 'x'"),
        ({"bag_size": 17}, "bag_size 17 exceeds batch size 16"),
        ({"mode": "bogus"}, "'mode' must be one of clustered, random, got 'bogus'"),
        ({"mode": BagMode.RANDOM}, "random bags need an rng, so the shuffle is "
                                   "reproducible: 'rng' must be a numpy Generator, got None"),
    ], ids=["bag-1", "bag-2.5", "bag-x", "bag-17", "mode-bogus", "random-without-rng"])
    def test_bad_bag_setting_rejected_whatever_alpha_is(self, bad, want):
        # An alpha-0 step forms no bags, and once ran on settings that
        # every step at alpha > 0 rejects.
        m = models.build("tm", 3, (4,), 0)
        x, t, y, u_t = _batch(30)
        for alpha in (0.0, 0.1):
            with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
                combined_loss_and_grads(m, x, t, y, u_t, alpha, **{"bag_size": 4, **bad})

    @pytest.mark.parametrize("shape", [(16, 1), (15,)], ids=["column", "short"])
    @pytest.mark.parametrize("name", ["treatment", "outcome"])
    def test_arm_or_outcome_that_is_no_batch_vector_rejected_whatever_alpha_is(
            self, monkeypatch, name, shape):
        # An (n, 1) column once went through the bag sums by broadcasting:
        # l_base came out right, but l_mil and the gradients did not.
        m = models.build("sdr", 3, (4,), 0)
        x, t, y, u_t = _batch(31)
        given = {"treatment": t, "outcome": y}
        given[name] = given[name][:shape[0]].reshape(shape)
        monkeypatch.setattr(models, "forward_full", None)  # the forward pass raises
        want = f"'{name}' must be a vector of 16 rows, got shape {shape}"
        for alpha in (0.0, 0.1):
            with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
                combined_loss_and_grads(m, x, given["treatment"], given["outcome"], u_t,
                                        alpha, 2)

    @pytest.mark.parametrize("t", [np.full(8, 0.5), np.r_[2.0, np.zeros(7)],
                                   np.r_[1.0, -1.0, np.zeros(6)]],
                             ids=["half", "two", "minus-one"])
    def test_treatment_that_is_not_binary_rejected_whatever_alpha_is(self, monkeypatch, t):
        # 0.5 on every row once trained as an all-control batch, a 2 raised a
        # bare IndexError from the base loss and a -1 a bare ValueError.
        m = models.build("tm", 3, (4,), 0)
        x, _, y, u_t = _batch(33, n=8)
        monkeypatch.setattr(models, "forward_full", None)  # the forward pass raises
        want = "'treatment' must be 0 or 1 on every row"
        for alpha in (0.0, 0.1):
            with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
                combined_loss_and_grads(m, x, t, y, u_t, alpha, 2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_diverged_model_forms_no_bags(self, kind):
        # NaN predictions must not reach cluster_bags, which would raise a
        # ConfigError; the non-finite loss goes back for the caller to report.
        m = models.build(kind, 3, (5, 4), 29)
        m.params[...] = np.nan
        x, t, y, u_t = _batch(29)
        with np.errstate(invalid="ignore"):
            breakdown, _, _ = combined_loss_and_grads(
                m, x, t, y, u_t, alpha=0.01, bag_size=4
            )
        assert np.isnan(breakdown.l_base) and np.isnan(breakdown.loss)
        assert breakdown.l_mil == 0.0 and breakdown.usable_bags == 0

    def test_diverged_counterfactual_arm_forms_no_bags(self):
        # TARNet's treatment head diverged, on an all-control batch: no row
        # is factual for it, yet the base loss is NaN and no bags are
        # formed, so cluster_bags never sees the NaN uplift.
        m = models.build("tarnet", 3, (5, 4), 43)
        m.nets["head_t"].flat[...] = np.nan
        x, _, y, _ = _batch(43)
        with np.errstate(invalid="ignore"):
            breakdown, _, _ = combined_loss_and_grads(
                m, x, np.zeros(len(x)), y, 0.0, alpha=0.1, bag_size=4
            )
        assert np.isnan(breakdown.l_base) and np.isnan(breakdown.loss)
        assert breakdown.usable_bags == 0

    @pytest.mark.parametrize("mode", list(BagMode))
    @pytest.mark.parametrize("bag_size", [2, 7, 64])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradient_has_the_bits_of_the_dense_form(self, kind, bag_size, mode):
        # The scatter into the factual column against the dense (n, 2)
        # form, on the bags the call formed: the dense form adds +0.0 where
        # the scatter writes nothing, which changes no entry, so the
        # parameter gradients are equal bytes. 200 rows leave remainder
        # rows in no bag for every bag size here.
        m = models.build(kind, 3, (6, 5), 41)
        m.params += np.random.default_rng(410).normal(0.0, 0.3, size=m.params.size)
        x, t, y, u_t = _batch(411, n=200)
        bufs = models.buffer_set(m, len(x))
        breakdown, grads, out = combined_loss_and_grads(
            m, x, t, y, u_t, 0.1, bag_size, mode, rng=np.random.default_rng(412),
            buffers=bufs)
        grads = grads.copy()
        assert breakdown.usable_bags > 0
        part = cluster_bags(out.uplift, bag_size, mode, np.random.default_rng(412))
        stats = batch_bag_stats(*_members(part.bags, y, t, out.p_t, out.p_c), u_t)
        _, residuals = mil_loss(*stats)
        # A second pass in the same set, for backprop_factual to consume.
        out = models.forward_full(m, x, bufs)
        _, g = models.factual_loss(out, t, y)
        g = dense_mil_logit_grad(g, out.p_t, out.p_c, t, part.bags, residuals, u_t, 0.1)
        assert grads.tobytes() == models.backprop_factual(m, g, bufs).tobytes()

    def test_negative_alpha_rejected(self):
        m = models.build("tm", 3, (4,), 0)
        x, t, y, u_t = _batch(1)
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="'alpha' must be finite and >= 0"):
                combined_loss_and_grads(m, x, t, y, u_t, alpha=alpha, bag_size=4)

    @pytest.mark.parametrize("alpha", ["0.1", None, True, np.nan, np.inf])
    def test_alpha_that_is_no_finite_number_rejected(self, alpha):
        m = models.build("tm", 3, (4,), 0)
        x, t, y, u_t = _batch(1)
        with pytest.raises(ConfigError, match="'alpha' must be finite and >= 0"):
            combined_loss_and_grads(m, x, t, y, u_t, alpha=alpha, bag_size=4)


class TestVarianceIdentity:
    def test_zero_noise(self):
        lhs, rhs = variance_identity_check(np.ones(4), np.zeros(4), [np.arange(4)])
        assert lhs == rhs == 0.0

    def test_cancelling_noise(self):
        lhs, rhs = variance_identity_check(
            np.array([1.0, 0.0]), np.array([0.1, -0.1]), [np.arange(2)]
        )
        assert abs(lhs) < 1e-30 and abs(rhs) < 1e-30

    def test_additive_noise(self):
        lhs, rhs = variance_identity_check(
            np.array([1.0, 0.0]), np.array([0.1, 0.2]), [np.arange(2)]
        )
        assert abs(lhs - 0.09) < 1e-12
        assert abs(rhs - 0.09) < 1e-12

    def test_random_cases(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            n = int(rng.integers(8, 129))
            bag = int(rng.integers(2, min(17, n + 1)))
            y = rng.integers(0, 2, n).astype(float)
            e = rng.normal(0, 0.5, n)
            part = cluster_bags(rng.normal(size=n), bag)
            lhs, rhs = variance_identity_check(y, e, part.bags)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestLabelUnbiasedness:
    def test_monte_carlo_recovers_summed_effect(self):
        # Fixed 64-instance bag with known per-arm response rates under
        # randomized assignment: the mean label over resampled
        # assignments estimates the summed per-instance effect.
        rng = np.random.default_rng(424)
        bag_size = 64
        rate_t = rng.uniform(0.05, 0.35, bag_size)
        rate_c = rng.uniform(0.02, 0.30, bag_size)
        true_sum = float(np.sum(rate_t - rate_c))
        u_t = 0.5
        draws = []
        n_draws = 20_000
        for _ in range(n_draws):
            t = (rng.random(bag_size) < u_t).astype(int)
            if t.sum() in (0, bag_size):
                continue
            p = np.where(t == 1, rate_t, rate_c)
            y = (rng.random(bag_size) < p).astype(float)
            label, _, usable = _one_bag(y, t, u_t)
            assert usable
            draws.append(label)
        draws = np.asarray(draws)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - true_sum) <= 3 * se
