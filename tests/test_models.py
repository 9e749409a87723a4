"""Architecture wiring, prediction contracts, factual-arm loss."""

import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from upliftmil import models, nncore
from upliftmil.errors import ConfigError, ShapeError
from upliftmil.models import CHUNK, build, predict

from oracles import (
    base_loss_ref,
    fd_gradients,
    combined_loss_ref,
    max_relative_error,
    model_probs,
)

ALL_KINDS = ["tm", "tarnet", "ddr", "sdr"]


def _zero_output_layers(model):
    """Zero every layer whose output feeds a logistic, so p = 0.5: the last
    layer of every net but TARNet's trunk, which feeds the heads."""
    for name, net in model.nets.items():
        if name != "trunk":
            net.weights[-1][...] = np.zeros_like(net.weights[-1])
            net.biases[-1][...] = np.zeros_like(net.biases[-1])


def _base_ref(out, t, y):
    """The oracle's base loss of a forward pass's arm logits."""
    return base_loss_ref(out.logits[:, 1], out.logits[:, 0], t, y)


def _tiny(kind, seed=0, d=3):
    return build(kind, d, (5, 4), seed)


def _jitter(model, seed):
    """Small random offsets on every parameter.

    Freshly built nets have zero biases, which parks whole rectifier
    layers exactly on the kink where central differences are undefined;
    finite-difference checks need a generic point.
    """
    rng = np.random.default_rng(seed)
    model.params += rng.normal(0.0, 0.05, size=model.params.shape)


class TestBuild:
    def test_tm_has_two_output_nodes(self):
        m = build("tm", 12, (1024, 512, 256), seed=0)
        assert m.nets["net"].layer_sizes == (12, 1024, 512, 256, 2)

    def test_ddr_treatment_input_width(self):
        m = build("ddr", 7, (6, 5), seed=0)
        assert m.nets["treatment"].layer_sizes[0] == 8

    def test_deterministic_per_seed(self):
        for kind in ALL_KINDS:
            a, b = _tiny(kind, seed=13), _tiny(kind, seed=13)
            np.testing.assert_array_equal(a.params, b.params)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="'kind'.*'slearner'"):
            build("slearner", 3, (4,), seed=0)

    @pytest.mark.parametrize("seed", [1.5, True, -1, None, "1"])
    def test_bad_seed_names_it(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            build("tm", 3, (4,), seed)

    def test_tarnet_head_widths(self):
        m = build("tarnet", 5, (16, 8), seed=1)
        assert m.nets["trunk"].layer_sizes == (5, 16, 8)
        assert m.nets["head_t"].layer_sizes == (8, 8, 1)
        assert m.nets["head_c"].layer_sizes == (8, 8, 1)


class TestParameterVector:
    @pytest.mark.parametrize("origin", ["built", "loaded", "pickled"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_layer_is_a_view_into_params(self, kind, origin, tmp_path):
        m = _tiny(kind, seed=19)
        if origin == "loaded":
            models.save_checkpoint(m, tmp_path / "model.npz")
            m = models.load_checkpoint(tmp_path / "model.npz")
        elif origin == "pickled":  # as repeat_runs returns a worker's model
            m = pickle.loads(pickle.dumps(m))
        layers = [a for net in m.nets.values() for a in (*net.weights, *net.biases)]
        assert all(np.shares_memory(a, m.params) for a in layers)
        assert sum(a.size for a in layers) == m.params.size

        x = np.random.default_rng(19).random((6, 3))
        t = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        _, grads, _ = models.base_loss_and_grads(m, x, t, np.ones(6))
        assert grads.shape == m.params.shape
        before = predict(m, x)[2]
        m.params += 0.1
        assert not np.array_equal(predict(m, x)[2], before)

        # Distinct values in params land once each across the layers, so
        # the views tile the vector without overlap.
        m.params[...] = np.arange(m.params.size)
        values = np.concatenate([a.ravel() for a in layers])
        np.testing.assert_array_equal(np.sort(values), np.arange(m.params.size))

        net = next(iter(m.nets.values()))
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros_like(net.weights[0])
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros_like(net.biases[0])

    def test_pickle_keeps_params_once(self):
        m = build("tarnet", 6, (1024, 512, 256), seed=0)
        assert abs(len(pickle.dumps(m)) / m.params.nbytes - 1.0) < 0.01

    def test_harness_parameter_arrays(self):
        # The benchmark harness's names for the parameter vector: the
        # vector itself, a copy in, checked for shape, and a copy out.
        m = _tiny("sdr", seed=3)
        assert m.parameter_arrays() is m.params
        clone = models.clone_parameter_arrays(m)
        assert clone.tobytes() == m.params.tobytes()
        assert not np.shares_memory(clone, m.params)
        clone += 1.0
        values = clone.copy()
        models.set_parameter_arrays(m, clone)
        assert m.params.tobytes() == values.tobytes()
        assert not np.shares_memory(m.params, clone)
        for shape in [(m.params.size - 1,), (m.params.size + 1,), (1, m.params.size)]:
            want = f"expected {m.params.shape} values, got {shape}"
            with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
                models.set_parameter_arrays(m, np.zeros(shape))
        assert m.params.tobytes() == values.tobytes()

    def test_params_of_wrong_shape_rejected(self):
        n = _tiny("tm").params.size
        for shape in [(0,), (n - 1,), (n + 1,), (2, n // 2)]:
            with pytest.raises(ConfigError, match="'params'"):
                models.UpliftModel("tm", 3, (5, 4), 0, np.zeros(shape))


class TestBufferSet:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nets_write_slices_of_one_gradient_vector(self, kind):
        m = _tiny(kind, seed=23)
        bufs = models.buffer_set(m, 8)
        assert bufs.grad.shape == m.params.shape
        for name, net in m.nets.items():
            grad = bufs.nets[name].grad
            assert np.shares_memory(grad, bufs.grad) and grad.size == net.flat.size
        assert sum(b.grad.size for b in bufs.nets.values()) == bufs.grad.size
        # Every set has a gradient, a set that predict makes alone too.
        for bufs in (models.buffer_set(m, 1), models.buffer_set(m, models.CHUNK)):
            assert bufs.grad.shape == m.params.shape
            assert all(np.shares_memory(b.grad, bufs.grad) for b in bufs.nets.values())

    def test_nets_share_input_buffers(self):
        # Every net that reads the scaled features reads the set's one
        # model-input buffer; TARNet's heads read the trunk's output
        # buffer and DDR's treatment net has an input buffer of its own.
        for kind, readers in [("sdr", ["shared", "private_c", "private_t"]),
                              ("tm", ["net"]), ("ddr", ["control"]),
                              ("tarnet", ["trunk"])]:
            bufs = models.buffer_set(_tiny(kind, seed=23), 8)
            assert bufs.inputs.shape == (8, 4)
            for name in readers:
                assert bufs.nets[name].inputs is bufs.inputs
        bufs = models.buffer_set(_tiny("tarnet", seed=23), 8)
        for head in ("head_c", "head_t"):
            assert np.shares_memory(bufs.nets[head].inputs,
                                    bufs.nets["trunk"].activations[-1])
            assert not np.shares_memory(bufs.nets[head].inputs, bufs.inputs)
        bufs = models.buffer_set(_tiny("ddr", seed=23), 8)
        assert bufs.nets["treatment"].inputs.shape == (8, 5)
        assert not np.shares_memory(bufs.nets["treatment"].inputs, bufs.inputs)

    def test_features_are_scaled_once_into_the_set(self):
        # forward_full scales x into the model-input buffer, and each SDR
        # net's forward pass runs on that one copy. Each pass scales by
        # the scaler the model holds then, after it is written in place
        # or replaced too, though the set keeps the last one tiled.
        m = _tiny("sdr", seed=23)
        m.scaler = (np.array([0.4, 0.5, 0.6]), np.array([0.3, 0.2, 0.1]))
        x = np.random.default_rng(23).random((5, 3))
        bufs = models.buffer_set(m, 8)
        for step in ("as set", "written in place", "replaced"):
            if step == "written in place":
                m.scaler[0][2] = 0.7
            elif step == "replaced":
                m.scaler = (m.scaler[0], np.array([1.0, 2.0, 4.0]))
            models.forward_full(m, x, bufs)
            scaled = (x - m.scaler[0]) / m.scaler[1]
            assert bufs.inputs[:5, :-1].tobytes() == scaled.tobytes()
        assert (bufs.inputs[:5, -1] == 1.0).all()
        for net in bufs.nets.values():
            assert net.inputs is bufs.inputs and net.rows == 5

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_in_buffers_gives_fresh_bits(self, kind):
        # A batch shorter than the set, run twice in it, against passes
        # in a fresh set; the returned gradient is the set's vector.
        m = _tiny(kind, seed=29)
        m.scaler = (np.array([0.4, 0.5, 0.6]), np.array([0.3, 0.2, 0.1]))
        rng = np.random.default_rng(29)
        bufs = models.buffer_set(m, 20)
        for _ in range(2):
            x = rng.random((9, 3))
            t = rng.integers(0, 2, 9).astype(float)
            gz_t, gz_c = rng.normal(size=9) * t, rng.normal(size=9) * (1.0 - t)
            g = np.column_stack((gz_c, gz_t))
            fresh_bufs = models.buffer_set(m, 9)
            fresh = models.forward_full(m, x, fresh_bufs)
            want = models.backprop_factual(m, g, fresh_bufs)
            out = models.forward_full(m, x, bufs)
            got = models.backprop_factual(m, g, bufs)
            assert got is bufs.grad and got.tobytes() == want.tobytes()
            assert out.uplift.tobytes() == fresh.uplift.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_over_all_rows_of_the_set_gives_fresh_bits(self, kind):
        # A set of r rows trains on batches of r rows: a step over all of
        # them, after a shorter step in the same set, gives the bytes of
        # the same step in a fresh set twice as wide.
        m = _tiny(kind, seed=31)
        m.scaler = (np.array([0.4, 0.5, 0.6]), np.array([0.3, 0.2, 0.1]))
        rng = np.random.default_rng(31)
        bufs = models.buffer_set(m, 12)
        for n in (5, 12):
            x = rng.random((n, 3))
            t = rng.integers(0, 2, n).astype(float)
            gz_t, gz_c = rng.normal(size=n) * t, rng.normal(size=n) * (1.0 - t)
            g = np.column_stack((gz_c, gz_t))
            wide = models.buffer_set(m, 2 * n)
            fresh = models.forward_full(m, x, wide)
            want = models.backprop_factual(m, g, wide)
            out = models.forward_full(m, x, bufs)
            got = models.backprop_factual(m, g, bufs)
            assert out.uplift.tobytes() == fresh.uplift.tobytes()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tail", [0, 1, 7])
    def test_predict_bits_do_not_depend_on_the_set(self, tail, monkeypatch):
        # predict scores CHUNK rows at a time in any set that holds them,
        # a training set wider than CHUNK included, so in-run and direct
        # evaluations give the same bits; tails of 1 and 7 rows too.
        m = _tiny("tarnet", seed=37)
        x = np.random.default_rng(37).random((2 * models.CHUNK + tail, 3))
        want = b"".join(v.tobytes() for v in predict(m, x))
        passes, forward_full = [], models.forward_full
        monkeypatch.setattr(models, "forward_full", lambda model, rows, bufs=None: (
            passes.append(len(rows)) or forward_full(model, rows, bufs)))
        for bufs in (models.buffer_set(m, models.CHUNK),
                     models.buffer_set(m, 2 * models.CHUNK + 300)):
            passes.clear()
            assert b"".join(v.tobytes() for v in predict(m, x, bufs)) == want
            assert passes == [models.CHUNK] * 2 + [tail] * (tail > 0)

    def test_predict_in_a_set_narrower_than_a_chunk_rejected(self):
        m = _tiny("tarnet", seed=37)
        bufs = models.buffer_set(m, 64)
        with pytest.raises(ShapeError, match="65 rows"):
            predict(m, np.zeros((65, 3)), bufs)


class TestPredict:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zeroed_output_model_predicts_half(self, kind):
        m = _tiny(kind)
        _zero_output_layers(m)
        p_t, p_c, uplift = predict(m, np.random.default_rng(0).random((6, 3)))
        np.testing.assert_array_equal(p_t, np.full(6, 0.5))
        np.testing.assert_array_equal(p_c, np.full(6, 0.5))
        np.testing.assert_array_equal(uplift, np.zeros(6))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_uplift_is_probability_difference(self, kind):
        m = _tiny(kind, seed=4)
        p_t, p_c, uplift = predict(m, np.random.default_rng(4).random((9, 3)))
        np.testing.assert_array_equal(uplift, p_t - p_c)

    def test_vector_lengths(self):
        m = _tiny("tarnet", seed=2)
        p_t, p_c, uplift = predict(m, np.random.default_rng(2).random((7, 3)))
        assert len(p_t) == len(p_c) == len(uplift) == 7

    def test_shape_mismatch_raises(self):
        m = _tiny("tm")
        for x in (np.zeros((2, 5)), np.zeros((0, 5)), np.zeros(0), np.zeros(3)):
            with pytest.raises(ShapeError):
                predict(m, x)

    @pytest.mark.parametrize("x", [
        np.ones((2, 3)) * (1 + 2j), [["a", "b", "c"]], [[0.1, 0.2, 0.3], [0.4]],
    ], ids=["complex", "text", "ragged"])
    @pytest.mark.parametrize("fn", [predict, models.forward_full])
    def test_input_that_is_not_real_names_it(self, fn, x):
        with pytest.raises(ConfigError, match="^'x' must hold real numbers"):
            fn(_tiny("tm"), x)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_chunked_scores_match_one_pass(self, kind):
        # A tail of a few rows may run through another BLAS kernel than a
        # whole pass, so chunked and one-pass scores agree to rounding,
        # not bit for bit.
        m = _tiny(kind, seed=9)
        m.scaler = (np.array([0.4, 0.5, 0.6]), np.array([0.3, 0.2, 0.1]))
        rng = np.random.default_rng(9)
        for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5):
            x = rng.random((n, 3))
            p_t, p_c, uplift = predict(m, x)
            np.testing.assert_array_equal(uplift, p_t - p_c)
            full = models.forward_full(m, x)
            ref_t, ref_c = model_probs(m, x)
            pairs = ((p_t, full.p_t), (p_c, full.p_c), (p_t, ref_t), (p_c, ref_c))
            for got, want in pairs:
                assert got.shape == (n,)
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_memory_bounded_by_chunk(self):
        # No backward caches outlive a chunk: beyond the three output
        # vectors, predict holds at most two chunks' worth of inputs and
        # activations, however many rows it scores.
        n, d = 100_000, 10
        m = build("sdr", d, (64, 32), seed=0)
        x = np.random.default_rng(0).random((n, d))
        m.scaler = (x.mean(axis=0), x.std(axis=0))
        widths = d + sum(sum(net.layer_sizes[1:]) for net in m.nets.values())
        tracemalloc.start()
        try:
            predict(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (3 * n + 2 * CHUNK * widths)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_clean_room_evaluator(self, kind):
        m = _tiny(kind, seed=8)
        x = np.random.default_rng(8).random((5, 3))
        p_t, p_c, _ = predict(m, x)
        ref_t, ref_c = model_probs(m, x)
        np.testing.assert_allclose(p_t, ref_t, rtol=1e-12)
        np.testing.assert_allclose(p_c, ref_c, rtol=1e-12)

    def test_scaler_applied(self):
        m = _tiny("tm", seed=3)
        x = np.random.default_rng(3).normal(5.0, 2.0, size=(4, 3))
        raw = predict(m, x)[2]
        m.scaler = (x.mean(axis=0), x.std(axis=0))
        scaled = predict(m, x)[2]
        assert not np.allclose(raw, scaled)
        ref_t, ref_c = model_probs(m, x)
        np.testing.assert_allclose(predict(m, x)[0], ref_t, rtol=1e-12)


class TestBaseLoss:
    def test_near_perfect_predictions_near_zero_loss(self):
        # One treated positive at logit 40, one control negative at -40:
        # each arm costs softplus(-40) = log1p(exp(-40)).
        m = build("tm", 2, (4,), seed=0)
        net = m.nets["net"]
        net.weights[-1][...] = np.zeros_like(net.weights[-1])
        net.biases[-1][...] = np.array([-40.0, 40.0])  # p_c ~ 0, p_t ~ 1
        x = np.zeros((2, 2))
        t = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0])
        loss, _, _ = models.base_loss_and_grads(m, x, t, y)
        assert abs(loss - 2 * math.log1p(math.exp(-40.0))) < 1e-9

    def test_uninformative_balanced_batch_costs_two_ln2(self):
        m = _tiny("tarnet")
        _zero_output_layers(m)
        x = np.random.default_rng(1).random((8, 3))
        t = np.tile([1.0, 0.0], 4)
        y = np.tile([1.0, 1.0, 0.0, 0.0], 2)
        loss, _, _ = models.base_loss_and_grads(m, x, t, y)
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_loss_matches_reference(self):
        for kind in ALL_KINDS:
            m = _tiny(kind, seed=21)
            rng = np.random.default_rng(21)
            x = rng.random((10, 3))
            t = rng.integers(0, 2, 10).astype(float)
            t[0], t[1] = 1.0, 0.0  # both arms present
            y = rng.integers(0, 2, 10).astype(float)
            loss, _, out = models.base_loss_and_grads(m, x, t, y)
            assert abs(loss - _base_ref(out, t, y)) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradients_match_finite_differences(self, kind):
        m = _tiny(kind, seed=31)
        _jitter(m, seed=131)
        rng = np.random.default_rng(31)
        x = rng.random((8, 3))
        t = np.array([1, 0, 1, 0, 1, 1, 0, 0], dtype=float)
        y = rng.integers(0, 2, 8).astype(float)
        _, grads, out = models.base_loss_and_grads(m, x, t, y)

        frozen_pc = out.p_c.copy() if kind == "ddr" else None

        def loss_fn(_arrays):
            # m.params is mutated in place by fd_gradients; every net is
            # a view into it, so the reference sees perturbed weights.
            return combined_loss_ref(m, x, t, y, 0.5, 0.0, [], frozen_pc=frozen_pc)

        numeric = fd_gradients(loss_fn, [m.params])
        assert max_relative_error([grads], numeric) < 1e-4

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("logit", [20.0, 40.0, -20.0, -40.0])
    def test_saturated_logits_keep_exact_loss_and_gradient(self, kind, logit):
        # z_t near `logit` and z_c near -`logit` on every row, each factual
        # label opposite its arm's saturation: the loss grows linearly in
        # the logit there, and its gradient is the exact derivative.
        m = _tiny(kind, seed=33)
        _jitter(m, seed=133)
        arm_sign = {"net": [-1.0, 1.0], "head_c": -1.0, "head_t": 1.0,
                    "control": -1.0, "treatment": 1.0,
                    "shared": 0.0, "private_c": -1.0, "private_t": 1.0}
        for name, net in m.nets.items():
            if name != "trunk":
                net.weights[-1][...] *= 0.01
                net.biases[-1][...] = logit * np.asarray(arm_sign[name])
        rng = np.random.default_rng(33)
        x = rng.random((6, 3))
        t = np.array([1, 0, 1, 0, 1, 0], dtype=float)
        y = np.where(t == 1, logit < 0, logit > 0).astype(float)
        loss, grads, out = models.base_loss_and_grads(m, x, t, y)
        assert (np.abs(out.logits) > abs(logit) - 1).all()
        assert abs(loss - _base_ref(out, t, y)) < 1e-12
        frozen_pc = out.p_c.copy()

        def loss_fn(_arrays):
            return combined_loss_ref(m, x, t, y, 0.5, 0.0, [], frozen_pc=frozen_pc)

        # The loss is near 2 |logit| here, so its rounding sets an
        # absolute floor on the differences, as in the property tests.
        (numeric,) = fd_gradients(loss_fn, [m.params])
        np.testing.assert_allclose(grads, numeric, rtol=1e-6, atol=1e-7)

    def test_single_arm_batch_contributes_one_arm(self):
        m = _tiny("tm", seed=5)
        x = np.random.default_rng(5).random((4, 3))
        t = np.ones(4)
        y = np.array([1.0, 0.0, 1.0, 1.0])
        loss, grads, out = models.base_loss_and_grads(m, x, t, y)
        assert abs(loss - _base_ref(out, t, y)) < 1e-12
        # Control column of the output layer receives no gradient
        g_w_last = nncore.layer_blocks(grads, m.nets["net"].layer_sizes)[-1][:-1]
        assert not g_w_last[:, 0].any()


class TestFactualMasking:
    def test_control_parameters_do_not_touch_treated_loss(self):
        # Perturb everything private to the control arm: the treated
        # arm's cross-entropy term must not move.
        rng = np.random.default_rng(12)
        x = rng.random((6, 3))
        y = rng.integers(0, 2, 6).astype(float)
        for kind, control_net in [("tarnet", "head_c"), ("sdr", "private_c")]:
            m = _tiny(kind, seed=12)
            p_t_before, _, _ = predict(m, x)
            for w in m.nets[control_net].weights:
                w += rng.normal(size=w.shape)
            p_t_after, _, _ = predict(m, x)
            np.testing.assert_array_equal(p_t_before, p_t_after)

    def test_tm_output_columns_independent(self):
        m = _tiny("tm", seed=13)
        x = np.random.default_rng(13).random((5, 3))
        p_t_before, _, _ = predict(m, x)
        m.nets["net"].weights[-1][:, 0] += 1.0  # control column only
        p_t_after, _, _ = predict(m, x)
        np.testing.assert_array_equal(p_t_before, p_t_after)

    def test_ddr_stop_gradient_blocks_treated_rows(self):
        # Treated rows must not push gradient into the control net.
        m = _tiny("ddr", seed=14)
        x = np.random.default_rng(14).random((4, 3))
        t = np.ones(4)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        _, grads, _ = models.base_loss_and_grads(m, x, t, y)
        n_control = m.nets["control"].flat.size
        assert all(not g.any() for g in grads[:n_control])


class TestAntisymmetry:
    def test_tm_swap_negates_uplift(self):
        m = _tiny("tm", seed=15)
        x = np.random.default_rng(15).random((6, 3))
        uplift = predict(m, x)[2]
        net = m.nets["net"]
        net.weights[-1][...] = net.weights[-1][:, ::-1].copy()
        net.biases[-1][...] = net.biases[-1][::-1].copy()
        np.testing.assert_array_equal(predict(m, x)[2], -uplift)

    def test_tarnet_swap_negates_uplift(self):
        m = _tiny("tarnet", seed=16)
        x = np.random.default_rng(16).random((6, 3))
        uplift = predict(m, x)[2]
        m.nets["head_t"], m.nets["head_c"] = m.nets["head_c"], m.nets["head_t"]
        np.testing.assert_array_equal(predict(m, x)[2], -uplift)


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_bitwise(self, kind, tmp_path):
        m = _tiny(kind, seed=17)
        m.scaler = (np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "model.npz"
        models.save_checkpoint(m, path)
        back = models.load_checkpoint(path)
        assert back.kind == m.kind
        assert back.hidden_sizes == m.hidden_sizes
        np.testing.assert_array_equal(m.params, back.params)
        x = np.random.default_rng(17).random((5, 3))
        np.testing.assert_array_equal(predict(m, x)[2], predict(back, x)[2])

    def test_hand_built_format_2_archive_loads(self, tmp_path):
        # Format 2 as written down, not as save_checkpoint writes it: a JSON
        # manifest, the parameter vector and the scaler's two members.
        m = _tiny("tarnet", seed=19)
        m.scaler = (np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25, 4.0]))
        manifest = {"format_version": 2, "kind": "tarnet", "input_dim": 3,
                    "hidden_sizes": [5, 4], "seed": 19, "has_scaler": True}
        path = tmp_path / "model.npz"
        np.savez(path, manifest=np.array(json.dumps(manifest)), params=m.params,
                 **{"scaler.mean": m.scaler[0], "scaler.std": m.scaler[1]})
        back = models.load_checkpoint(path)
        x = np.random.default_rng(19).random((7, 3))
        for got, want in zip(predict(back, x), predict(m, x)):
            assert got.tobytes() == want.tobytes()

    def test_path_without_npz_suffix_kept(self, tmp_path):
        # np.savez given a path appends .npz to any other suffix.
        m = _tiny("sdr", seed=17)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(m, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert models.load_checkpoint(path).params.tobytes() == m.params.tobytes()

    def _saved(self, tmp_path, entries=None, edit=None, kind="sdr"):
        """Path of a saved tiny model with a scaler. `edit` changes the
        archive's members; `entries` replace manifest entries, and an
        entry of None is deleted."""
        m = _tiny(kind, seed=18)
        m.scaler = (np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "model.npz"
        models.save_checkpoint(m, path)
        with np.load(path) as archive:
            members = {key: archive[key] for key in archive.files}
        manifest = {**json.loads(str(members["manifest"])), **(entries or {})}
        manifest = {k: v for k, v in manifest.items() if v is not None}
        members["manifest"] = np.array(json.dumps(manifest))
        if edit:
            edit(members)
        np.savez(path, **members)
        return path

    def test_one_params_member_and_no_weight_draws(self, tmp_path, monkeypatch):
        path = self._saved(tmp_path)
        with np.load(path) as archive:
            assert sorted(archive.files) == [
                "manifest", "params", "scaler.mean", "scaler.std"]
        monkeypatch.setattr(nncore, "init_network", None)  # a call would raise
        models.load_checkpoint(path)

    def test_wrong_member_shape_names_it(self, tmp_path):
        # One value would broadcast silently over the whole vector.
        path = self._saved(tmp_path, edit=lambda m: m.update({"params": np.zeros(1)}))
        with pytest.raises(ConfigError, match=re.escape("'params'")):
            models.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["scaler.mean", "scaler.std"])
    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_scaler_member_of_wrong_shape_names_it(self, tmp_path, key, shape):
        path = self._saved(tmp_path, edit=lambda m: m.update({key: np.ones(shape)}))
        want = f"checkpoint member {key!r} has shape {shape}, expected (3,)"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            models.load_checkpoint(path)

    @pytest.mark.parametrize("key, values, match", [
        ("params", {0: np.nan}, "not finite"),
        ("params", {-1: np.inf}, "not finite"),
        ("scaler.std", {1: 0.0, 2: np.nan}, "not finite"),
        ("scaler.std", {1: np.inf}, "not finite"),
        ("scaler.std", {1: 0.0}, "must be > 0"),
        ("scaler.std", {0: -1.0}, "must be > 0"),
        ("scaler.mean", {2: -np.inf}, "not finite"),
        ("scaler.mean", {0: np.nan}, "not finite"),
    ])
    def test_non_finite_member_rejected(self, tmp_path, key, values, match):
        # A zero or NaN std once loaded and made every score NaN at the
        # first evaluation; an infinite weight scored silently, clipped.
        def edit(members):
            for i, v in values.items():
                members[key][i] = v

        path = self._saved(tmp_path, edit=edit)
        with pytest.raises(ConfigError, match=f"'{re.escape(key)}'.*{match}"):
            models.load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["text", "truncated", "npy"])
    def test_file_that_is_no_checkpoint_rejected(self, tmp_path, kind):
        # They raised ValueError about pickled data, zipfile.BadZipFile and
        # TypeError (an array is not a context manager).
        path = self._saved(tmp_path)
        if kind == "text":
            path.write_text("kind,sdr\n")
        elif kind == "truncated":
            path.write_bytes(path.read_bytes()[:-40])
        else:
            path = tmp_path / "params.npy"
            np.save(path, _tiny("sdr", seed=18).params)
        want = f"{path} is not a checkpoint: not an .npz archive"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            models.load_checkpoint(path)
        with pytest.raises(FileNotFoundError):
            models.load_checkpoint(tmp_path / "missing.npz")

    @pytest.mark.parametrize("text", ["{not json", "", '{"kind": "sdr"'])
    def test_manifest_that_is_not_json_rejected(self, tmp_path, text):
        path = self._saved(tmp_path, edit=lambda m: m.update(manifest=np.array(text)))
        with pytest.raises(ConfigError, match="manifest is not JSON"):
            models.load_checkpoint(path)

    def test_missing_member_names_it(self, tmp_path):
        path = self._saved(tmp_path, edit=lambda m: m.pop("params"), kind="tarnet")
        with pytest.raises(ConfigError, match=re.escape("'params'")):
            models.load_checkpoint(path)

    @pytest.mark.parametrize(
        "entries, match",
        [
            # The manifest alone lays out the nets: a params vector of
            # another length fails the load rather than a later predict.
            ({"hidden_sizes": [99], "input_dim": 7}, "'params'"),
            ({"hidden_sizes": [5]}, "'params'"),
            ({"input_dim": 7}, "'params'"),
            *[({"hidden_sizes": v}, "hidden_sizes must be")
              for v in ([], [0], ["a"], 5, [2.5], [True])],
            # The ids are those of the message these cases matched before
            # `errors.check_int` held the one message of an integer setting.
            *[pytest.param({"input_dim": v}, f"'input_dim' must be an integer >= 1, "
                           f"got {v!r}", id=f"entries{i}-input_dim must be")
              for i, v in enumerate((0, "3", 2.5, [3], True), start=9)],
            ({"format_version": 1}, "checkpoint format 1 not supported"),
            ({"format_version": 2.0}, "checkpoint format 2.0 not supported"),
        ],
    )
    def test_manifest_at_odds_with_params_rejected(self, tmp_path, entries, match):
        path = self._saved(tmp_path, entries)
        with pytest.raises(ConfigError, match=re.escape(match)):
            models.load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("input_dim", None),
            ("hidden_sizes", None),
            ("seed", None),
            ("has_scaler", None),
            ("format_version", None),
            ("kind", "xyz"),
            ("manifest", None),
            *[("seed", v) for v in ("a", [1], 1.5, True, -1)],
            # A flag of another type: 1 once loaded the scaler, 0 dropped it.
            *[("has_scaler", v) for v in (1, 0, "true", [True])],
        ],
    )
    def test_bad_manifest_names_the_key(self, tmp_path, key, value):
        # value None deletes the manifest entry `key` (or, for "manifest",
        # the whole member); a value replaces the entry.
        if key == "manifest":
            path = self._saved(tmp_path, edit=lambda m: m.pop("manifest"))
        else:
            path = self._saved(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=re.escape(repr(value or key))):
            models.load_checkpoint(path)
