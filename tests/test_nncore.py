"""Network machinery: init, forward, backward, Adam, cross-entropy."""

import math
import re

import numpy as np
import pytest

from upliftmil import nncore
from upliftmil.errors import ConfigError, ShapeError

from oracles import adam_ref, fd_gradients, max_relative_error


def _forward(net, x):
    """A forward pass over x in a fresh set of just its rows; returns the
    outputs and the set."""
    bufs = nncore.net_buffers(net.layer_sizes, len(x), np.empty_like(net.flat))
    return nncore.forward(net, x, bufs), bufs


def _loss_through_net(net, x, y):
    """Scalar BCE of the net's logits, for FD checks."""
    out, _ = _forward(net, x)
    loss, _ = nncore.bce_loss(out.ravel(), y, np.ones_like(y))
    return loss


class TestInit:
    def test_deterministic_for_fixed_seed(self):
        a = nncore.init_network((2, 1), seed=7)
        b = nncore.init_network((2, 1), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_layer_chain_matches_sizes(self):
        net = nncore.init_network((12, 1024, 512, 256, 2), seed=0)
        assert net.layer_sizes == (12, 1024, 512, 256, 2)
        for k in range(net.n_layers - 1):
            assert net.weights[k].shape[1] == net.weights[k + 1].shape[0]

    def test_single_entry_rejected(self):
        with pytest.raises(ConfigError):
            nncore.init_network((3,), seed=0)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigError):
            nncore.init_network((4, 0, 2), seed=0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "3", None])
    def test_size_that_is_no_integer_rejected(self, bad):
        want = f"'layer_sizes[1]' must be an integer >= 1, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            nncore.init_network((3, bad, 1), seed=0)

    @pytest.mark.parametrize("seed", [2.5, "3", -1, True, None, [], [0, -1], [0, 1.5],
                                      "ab", np.float64(1.0)])
    def test_seed_that_is_no_integer_rejected(self, seed):
        want = f"'seed' must be an integer >= 0 or a sequence of them, got {seed!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            nncore.init_network((3, 2, 1), seed)

    @pytest.mark.parametrize("seed", [0, np.int64(5), [7, 1], (7, 1)])
    def test_integer_seeds_accepted(self, seed):
        a, b = nncore.init_network((3, 2, 1), seed), nncore.init_network((3, 2, 1), seed)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_unknown_output_activation_rejected(self):
        with pytest.raises(ConfigError, match="^unknown output activation 'sigmoid'$"):
            nncore.NetworkParams(np.zeros(4), (3, 1), "sigmoid")
        with pytest.raises(ConfigError, match="'sigmoid'"):
            nncore.init_network((3, 1), 0, "sigmoid")

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), ()])
    def test_layer_blocks_of_a_vector_of_the_wrong_length_rejected(self, shape):
        want = f"{shape} does not hold a net of sizes (3, 1)"
        with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
            nncore.layer_blocks(np.zeros(shape), (3, 1))

    def test_biases_zero_weights_fan_in_scaled(self):
        net = nncore.init_network((100, 50, 1), seed=11)
        assert all(not b.any() for b in net.biases)
        # He scaling: std of the first weight block near sqrt(2/100)
        assert abs(net.weights[0].std() - math.sqrt(2 / 100)) < 0.02


class TestForward:
    def test_zero_net_outputs_half(self):
        net = nncore.init_network((3, 1), seed=0)
        net.weights[0][:] = 0.0
        out, _ = _forward(net, np.zeros((4, 3)))
        np.testing.assert_array_equal(nncore.logistic(out), np.full((4, 1), 0.5))

    def test_identity_hidden_layer_passes_nonnegative_input(self):
        net = nncore.init_network((3, 3, 1), seed=0, output_activation="linear")
        net.weights[0][...] = np.eye(3)
        net.biases[0][:] = 0.0
        x = np.array([[0.5, 1.0, 2.0]])
        _, bufs = _forward(net, x)
        # The set holds augmented activations: the layer's output, then
        # its column of ones.
        np.testing.assert_array_equal(bufs.activations[0][:1], np.append(x, [[1.0]], 1))
        np.testing.assert_array_equal(bufs.inputs[:1], np.append(x, [[1.0]], 1))

    def test_batch_shape_contract(self):
        net = nncore.init_network((4, 8, 8, 2), seed=3)
        out, _ = _forward(net, np.random.default_rng(0).normal(size=(5, 4)))
        assert out.shape == (5, 2)

    def test_saturated_logits_give_exact_probabilities(self):
        net = nncore.init_network((2, 1), seed=0)
        net.weights[0][:] = 0.0
        for bias, p in ((1e6, 1.0), (-1e6, 0.0)):
            net.biases[0][:] = bias  # saturate
            out, _ = _forward(net, np.ones((2, 2)))
            np.testing.assert_array_equal(nncore.logistic(out), np.full((2, 1), p))

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((1, 2, 3)), np.float64(1.0)])
    def test_input_that_is_not_2d_rejected(self, x):
        net = nncore.init_network((3, 1), seed=0)
        bufs = nncore.net_buffers(net.layer_sizes, 2, np.empty_like(net.flat))
        want = f"expected 2-D input, got shape {np.shape(x)}"
        with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
            nncore.forward(net, x, bufs)
        assert bufs.rows is None

    def test_dimension_mismatch_raises(self):
        net = nncore.init_network((3, 1), seed=0)
        with pytest.raises(ShapeError):
            _forward(net, np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(1, 10), (3, 10), (1024, 65)])
    def test_rectifier_gives_the_bits_of_a_scalar_zero(self, shape):
        # forward's rectifier takes its set's all-zeros operand, cut to the
        # activation's shape: the same bits as max(x, 0.0) for signed
        # zeros, NaNs of either sign, infinities and the least subnormals.
        # First against the operand of a set whose activation has this
        # shape, then through forward on a rectifier net whose
        # pre-activations are the edges: one input of 1.0, the edges as
        # weights and a zero bias. The product may turn -0.0 into 0.0, so
        # only the first part is sure to see a negative zero.
        edges = np.array([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf,
                          5e-324, -5e-324, -1.5, 2.5])
        rows, width = shape
        net = nncore.init_network((1, width - 1), 0, "relu")
        bufs = nncore.net_buffers(net.layer_sizes, rows, np.empty_like(net.flat))
        x = np.resize(edges, shape)
        got = np.maximum(x, bufs.zeros[: x.size].reshape(shape))
        assert got.tobytes() == np.maximum(x, 0.0).tobytes()

        w = np.resize(edges, width - 1)
        net.weights[0][...], net.biases[0][...] = w, 0.0
        linear = nncore.NetworkParams(net.flat, net.layer_sizes, "linear")
        z = _forward(linear, np.ones((rows, 1)))[0]
        nonzero = w != 0.0
        assert z[:, nonzero].tobytes() == np.tile(w[nonzero], (rows, 1)).tobytes()
        out = nncore.forward(net, np.ones((rows, 1)), bufs)
        assert out.tobytes() == np.maximum(z, 0.0).tobytes()


def _two_branch_logistic(z):
    """The sigmoid as two masked branches, 1 / (1 + exp(-z)) for z >= 0
    and exp(z) / (1 + exp(z)) below: the reference whose bits
    `nncore.logistic` keeps."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestLogistic:
    def test_bits_match_two_branch_formula(self):
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 700.0,
                          -700.0, 36.0, -36.0, 5e-324, -5e-324])
        rng = np.random.default_rng(8)
        for z in (edges, np.tile(edges, 9).reshape(-1, 2),
                  rng.normal(scale=3.0, size=(1024, 2)),
                  rng.normal(scale=300.0, size=4097)):
            got = nncore.logistic(z)
            assert got.shape == z.shape
            assert got.tobytes() == _two_branch_logistic(z).tobytes()


class TestBuffers:
    def test_buffers_give_fresh_bits(self):
        # A pass over fewer rows than the set holds works in its first
        # rows and returns views into it, with the bits of a pass in a
        # set of just the rows it needs.
        net = nncore.init_network((3, 7, 5, 2), seed=6)
        rng = np.random.default_rng(6)
        x, gz = rng.normal(size=(9, 3)), rng.normal(size=(9, 2))
        out, fresh = _forward(net, x)
        grads, dx = nncore.backward(net, fresh, gz)
        bufs = nncore.net_buffers(net.layer_sizes, 20, np.empty_like(net.flat))
        b_out = nncore.forward(net, x, bufs)
        b_grads, b_dx = nncore.backward(net, bufs, gz)
        # Both backward passes wrote their deltas over their activations.
        for got, want in zip(bufs.activations, fresh.activations):
            assert got[:9].tobytes() == want[:9].tobytes()
        assert b_out.tobytes() == out.tobytes()
        assert b_grads.tobytes() == grads.tobytes()
        assert b_dx.tobytes() == dx.tobytes()
        assert b_grads is bufs.grad
        assert np.shares_memory(b_out, bufs.activations[-1])
        assert np.shares_memory(b_dx, bufs.input_grad)

    def test_hidden_deltas_overwrite_the_activations(self):
        # Inputs, activations and the input gradient are one column wider
        # than their layer: a ones column, or a delta's scratch column. A
        # backward pass over n rows writes each hidden delta over the first
        # n rows of the activation it differentiates and leaves the other
        # rows alone. The input gradient has an array of its own, made with
        # the set at its rows, kept by every pass, and never sharing memory
        # with the input buffer.
        net = nncore.init_network((3, 7, 5, 2), seed=6)
        bufs = nncore.net_buffers(net.layer_sizes, 9, np.empty_like(net.flat))
        assert bufs.inputs.shape == (9, 4)
        assert [a.shape for a in bufs.activations] == [(9, 8), (9, 6), (9, 3)]
        assert bufs.input_grad.shape == (9, 4)
        kept = bufs.input_grad
        rng = np.random.default_rng(6)
        for n in (5, 3, 9):
            x, gz = rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
            nncore.forward(net, rng.normal(size=(9, 3)), bufs)
            rest = [a[n:].copy() for a in bufs.activations]
            nncore.forward(net, x, bufs)
            acts = [a[:n, :-1].copy() for a in bufs.activations]
            _, dx = nncore.backward(net, bufs, gz)
            delta = gz
            for k in (2, 1):
                delta = (delta @ net.weights[k].T) * (acts[k - 1] > 0)
                np.testing.assert_allclose(bufs.activations[k - 1][:n, :-1], delta,
                                           rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(dx, delta @ net.weights[0].T,
                                       rtol=1e-12, atol=1e-14)
            for got, want in zip(bufs.activations, rest):
                assert got[n:].tobytes() == want.tobytes()
            assert bufs.input_grad is kept
            assert np.shares_memory(dx, bufs.input_grad)
            assert not np.shares_memory(bufs.input_grad, bufs.inputs)

    def test_forward_after_backward_gives_fresh_bits(self):
        # A backward pass borrows the ones column of the activations it
        # differentiates as its deltas' scratch and writes 1.0 back, so
        # every row of every input and activation buffer's last column
        # reads 1.0 once it returns, and a forward pass after it, which
        # writes no ones column, gives a fresh set's bits.
        net = nncore.init_network((3, 7, 5, 2), seed=7)
        rng = np.random.default_rng(7)
        bufs = nncore.net_buffers(net.layer_sizes, 10, np.empty_like(net.flat))
        nncore.forward(net, rng.normal(size=(5, 3)), bufs)
        nncore.backward(net, bufs, rng.normal(size=(5, 2)))
        for a in (bufs.inputs, *bufs.activations):
            assert (a[:, -1] == 1.0).all()
        x = rng.normal(size=(9, 3))
        out = nncore.forward(net, x, bufs)
        fresh_out, fresh = _forward(net, x)
        assert out.tobytes() == fresh_out.tobytes()
        for got, want in zip(bufs.activations, fresh.activations):
            assert got[:9].tobytes() == want[:9].tobytes()

    @pytest.mark.parametrize("shape", [(4, 3), (4, 5), (3, 4), (5, 4)])
    def test_shared_input_buffer_of_the_wrong_shape_rejected(self, shape):
        want = (f"input buffer of shape {shape} does not take 4 rows of 3 inputs "
                "and a ones column")
        with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
            nncore.net_buffers((3, 2, 1), 4, np.empty(11), np.empty(shape))

    def test_gradient_of_the_wrong_length_rejected(self):
        # The set cuts its gradient blocks when it is made, so a gradient
        # vector that does not hold the net fails then, not in a pass.
        for size in (10, 12):
            with pytest.raises(ShapeError, match=re.escape(f"({size},) does not hold")):
                nncore.net_buffers((3, 2, 1), 4, np.empty(size))

    def test_pass_wider_than_buffers_rejected(self):
        # Forward and backward passes take up to the set's rows.
        net = nncore.init_network((3, 4, 1), seed=0)
        bufs = nncore.net_buffers(net.layer_sizes, 4, np.empty_like(net.flat))
        with pytest.raises(ShapeError, match="5 rows"):
            nncore.forward(net, np.zeros((5, 3)), bufs)
        nncore.forward(net, np.ones((4, 3)), bufs)
        with pytest.raises(ShapeError, match=r"\(5, 1\)"):
            nncore.backward(net, bufs, np.zeros((5, 1)))
        grads, dx = nncore.backward(net, bufs, np.ones((4, 1)))
        assert dx.shape == (4, 3) and np.isfinite(grads).all()

    def test_backward_of_another_pass_rejected(self):
        # A backward pass differentiates the set's last forward pass: an
        # output gradient of other rows or width, or a set in which no
        # forward pass has run, is rejected before anything is written.
        net = nncore.init_network((3, 4, 2), seed=0)
        bufs = nncore.net_buffers(net.layer_sizes, 10, np.empty_like(net.flat))
        bufs.grad[...] = 7.0
        with pytest.raises(ShapeError, match="None"):
            nncore.backward(net, bufs, np.zeros((3, 2)))
        nncore.forward(net, np.zeros((4, 3)), bufs)
        for rows, width in [(3, 2), (5, 2), (4, 1), (4, 3)]:
            with pytest.raises(ShapeError, match=r"\(4, 2\)"):
                nncore.backward(net, bufs, np.zeros((rows, width)))
        assert (bufs.grad == 7.0).all()
        nncore.backward(net, bufs, np.zeros((4, 2)))
        assert not bufs.grad.any()
        # The backward pass consumed the forward pass: differentiating it
        # again is rejected, and writes neither gradient.
        bufs.grad[...] = 7.0
        bufs.input_grad[...] = 7.0
        with pytest.raises(ShapeError, match="None"):
            nncore.backward(net, bufs, np.zeros((4, 2)))
        assert (bufs.grad == 7.0).all() and (bufs.input_grad == 7.0).all()


class TestBackward:
    def test_zero_output_grad_gives_zero_grads(self):
        net = nncore.init_network((3, 4, 2), seed=1)
        x = np.random.default_rng(1).normal(size=(5, 3))
        _, bufs = _forward(net, x)
        grads, dx = nncore.backward(net, bufs, np.zeros((5, 2)))
        assert all(not g.any() for g in grads)
        assert not dx.any()

    def test_gradients_match_finite_differences(self):
        # Gradient fidelity across depths up to 3 hidden layers.
        rng = np.random.default_rng(42)
        for sizes in [(3, 1), (4, 5, 2), (3, 6, 4, 1), (2, 5, 4, 3, 2)]:
            net = nncore.init_network(sizes, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(6, sizes[0]))
            y = rng.integers(0, 2, size=6 * sizes[-1]).astype(float)
            out, bufs = _forward(net, x)
            _, gz = nncore.bce_loss(out.ravel(), y, np.ones_like(y))
            grads, _ = nncore.backward(net, bufs, gz.reshape(out.shape))

            def loss_fn(_arrays):
                return _loss_through_net(net, x, y)

            numeric = fd_gradients(loss_fn, [net.flat])
            assert max_relative_error([grads], numeric) < 1e-4

    def test_gradients_additive_over_disjoint_batches(self):
        net = nncore.init_network((3, 4, 1), seed=5)
        rng = np.random.default_rng(5)
        xa, xb = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        ga = nncore.backward(net, _forward(net, xa)[1], np.ones((4, 1)))[0]
        gb = nncore.backward(net, _forward(net, xb)[1], np.ones((3, 1)))[0]
        gall = nncore.backward(net, _forward(net, np.vstack([xa, xb]))[1],
                               np.ones((7, 1)))[0]
        for a, b, c in zip(ga, gb, gall):
            np.testing.assert_allclose(a + b, c, atol=1e-12)

    def test_no_gradient_through_relu_at_exact_zero(self):
        # The rectifier mask is z > 0, read from the activation relu(z):
        # a unit sitting exactly at z = 0 passes no gradient.
        net = nncore.init_network((1, 2, 1), seed=0, output_activation="linear")
        net.weights[0][...] = [[1.0, -1.0]]
        net.biases[0][...] = [0.0, 1.0]
        net.weights[1][...] = [[1.0], [1.0]]
        _, bufs = _forward(net, np.zeros((1, 1)))
        grads, dx = nncore.backward(net, bufs, np.ones((1, 1)))
        grad_b0 = nncore.layer_blocks(grads, net.layer_sizes)[0][-1]
        np.testing.assert_array_equal(grad_b0, [0.0, 1.0])
        np.testing.assert_array_equal(dx, [[-1.0]])
        trunk = nncore.init_network((1, 2), seed=0, output_activation="relu")
        trunk.weights[0][...] = [[1.0, -1.0]]
        trunk.biases[0][...] = [0.0, 1.0]
        _, bufs = _forward(trunk, np.zeros((1, 1)))
        d_pre = nncore.output_grad_to_preact(trunk, bufs, np.ones((1, 2)))
        np.testing.assert_array_equal(d_pre, [[0.0, 1.0]])
        # backward takes the gradient at the rectified outputs and masks it
        # itself, over its own buffer, never over the caller's array.
        g = np.ones((1, 2))
        grads, _ = nncore.backward(trunk, bufs, g)
        grad_b = nncore.layer_blocks(grads, trunk.layer_sizes)[0][-1]
        np.testing.assert_array_equal(grad_b, [0.0, 1.0])
        assert (g == 1.0).all()

    def test_linear_output_gradient_is_already_the_preactivation_gradient(self):
        # A linear output is its own pre-activation: the gradient comes
        # back as the very array passed, unchanged, and `out` is not
        # written.
        net = nncore.init_network((3, 4, 2), seed=2)
        _, bufs = _forward(net, np.random.default_rng(2).normal(size=(5, 3)))
        g = np.random.default_rng(3).normal(size=(5, 2))
        before, out = g.copy(), np.full((5, 2), 7.0)
        assert nncore.output_grad_to_preact(net, bufs, g, out=out) is g
        assert g.tobytes() == before.tobytes() and (out == 7.0).all()

    def test_skipping_input_grad_leaves_gradients_unchanged(self):
        # A backward pass consumes its forward pass, so each of the two
        # backward passes follows a forward pass of its own.
        net = nncore.init_network((3, 5, 4, 2), seed=4)
        x = np.random.default_rng(4).normal(size=(6, 3))
        _, bufs = _forward(net, x)
        gz = np.random.default_rng(5).normal(size=(6, 2))
        before = gz.copy()
        got, no_dx = nncore.backward(net, bufs, gz, input_grad=False)
        got = got.copy()
        bufs.grad[...] = np.nan
        nncore.forward(net, x, bufs)
        grads, dx = nncore.backward(net, bufs, gz)
        assert no_dx is None and dx.shape == x.shape
        assert got.tobytes() == grads.tobytes()
        # The mask is applied in place, but never to the caller's array.
        assert gz.tobytes() == before.tobytes()

    def test_one_unit_layers_give_the_bits_of_the_matmul_chain(self):
        # A one-unit layer's input gradient is formed by np.dot, the rest by
        # np.matmul; the bits must be those of np.matmul throughout. The
        # output gradient is a strided column, as a model's arm column is.
        rng = np.random.default_rng(8)
        net = nncore.init_network((4, 1, 5, 1), seed=8)
        net.flat[...] = rng.normal(0.0, 0.7, size=net.flat.size)
        _, bufs = _forward(net, rng.normal(size=(64, 4)))
        acts = [bufs.inputs[:64].copy()] + [a[:64].copy() for a in bufs.activations]
        gz = rng.normal(size=(64, 2))[:, 1:]
        grads, dx = nncore.backward(net, bufs, gz)
        delta, want = gz, []
        for k in range(net.n_layers - 1, -1, -1):
            want.insert(0, np.matmul(acts[k].T, delta))
            d = np.matmul(delta, net.blocks[k].T)
            if k:
                d *= acts[k] > 0
            delta = d[:, :-1]
        assert grads.tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()
        assert dx.tobytes() == delta.tobytes()

    def test_buffers_of_another_net_raise(self):
        # Another depth, or the same depth with another hidden width.
        net = nncore.init_network((3, 4, 1), seed=5)
        for sizes in [(3, 1), (3, 5, 1)]:
            other = nncore.init_network(sizes, seed=5)
            _, bufs = _forward(other, np.zeros((2, 3)))
            with pytest.raises(ShapeError, match="do not fit"):
                nncore.backward(net, bufs, np.zeros((2, 1)))


class TestAdam:
    def test_single_step_hand_evaluated(self):
        # param 0, grad 1, lr 1e-3: first bias-corrected step moves by
        # -lr / (1 + eps) regardless of the moment decay rates.
        arrays = np.array([0.0])
        state = nncore.init_adam(arrays, learning_rate=1e-3)
        new, state = nncore.adam_step(arrays, np.array([1.0]), state)
        assert state.step == 1
        np.testing.assert_allclose(new, [-1e-3 / (1 + 1e-8)], rtol=1e-12)

    def test_zero_grad_leaves_params_unchanged(self):
        arrays = np.array([1.0, -2.0, 0.5])
        before = arrays.copy()
        state = nncore.init_adam(arrays, learning_rate=0.1)
        new, _ = nncore.adam_step(arrays, np.zeros(3), state)
        np.testing.assert_array_equal(before, new)

    def test_constant_gradient_moves_by_learning_rate(self):
        # With a constant gradient the bias-corrected update is a sign
        # step of magnitude ~lr on every step.
        arrays = np.array([0.0])
        grads = np.array([3.7])
        state = nncore.init_adam(arrays, learning_rate=1e-3)
        prev = arrays[0]
        for _ in range(2):
            arrays, state = nncore.adam_step(arrays, grads, state)
            assert abs(abs(arrays[0] - prev) - 1e-3) < 1e-9
            prev = arrays[0]

    def test_shape_mismatch_raises(self):
        arrays = np.zeros((2, 2))
        state = nncore.init_adam(arrays, learning_rate=0.1)
        with pytest.raises(ShapeError):
            nncore.adam_step(arrays, np.zeros(3), state)

    def test_update_is_in_place(self):
        params = np.array([1.0, -1.0])
        state = nncore.init_adam(params, learning_rate=0.1)
        m, v = state.m, state.v
        new, new_state = nncore.adam_step(params, np.array([1.0, 2.0]), state)
        assert new is params and new_state is state
        assert state.m is m and state.v is v
        assert state.step == 1
        assert params[0] != 1.0 and m.all() and v.all()

    def test_matches_reference_bit_for_bit(self):
        # Five in-place steps on a random vector against the functional
        # per-array reference, which splits the vector in two arrays.
        rng = np.random.default_rng(77)
        params = rng.normal(size=50)
        state = nncore.init_adam(params, 3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
        ref = [params[:20].copy(), params[20:].copy()]
        m = [np.zeros(20), np.zeros(30)]
        v = [np.zeros(20), np.zeros(30)]
        for step in range(1, 6):
            grads = rng.normal(size=50)
            nncore.adam_step(params, grads, state)
            ref, m, v = adam_ref(ref, [grads[:20], grads[20:]], m, v, step,
                                 3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
            assert params.tobytes() == np.concatenate(ref).tobytes()
            assert state.m.tobytes() == np.concatenate(m).tobytes()
            assert state.v.tobytes() == np.concatenate(v).tobytes()

    def test_blocks_match_reference_bit_for_bit(self):
        # A vector of two whole blocks and a short one, through the
        # block-sized scratch, against the whole-vector reference.
        n = 2 * nncore.ADAM_BLOCK + 37
        rng = np.random.default_rng(78)
        params = rng.normal(size=n)
        state = nncore.init_adam(params, 1e-3)
        assert state.scratch.shape == (2, nncore.ADAM_BLOCK)
        ref, m, v = [params.copy()], [np.zeros(n)], [np.zeros(n)]
        for step in range(1, 4):
            grads = rng.normal(size=n)
            nncore.adam_step(params, grads, state)
            ref, m, v = adam_ref(ref, [grads], m, v, step, 1e-3)
            assert params.tobytes() == ref[0].tobytes()
            assert state.m.tobytes() == m[0].tobytes()
            assert state.v.tobytes() == v[0].tobytes()

    def test_matrix_rejected(self):
        params = np.zeros((2, 3))
        with pytest.raises(ShapeError):
            nncore.adam_step(params, np.zeros((2, 3)), nncore.init_adam(params, 0.1))

    @pytest.mark.parametrize("rate", [0.0, -1e-3])
    def test_nonpositive_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            nncore.init_adam(np.zeros(2), learning_rate=rate)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_nonfinite_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            nncore.init_adam(np.zeros(2), learning_rate=rate)

    @pytest.mark.parametrize("value", ["0.1", None, True, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "beta1", "beta2", "eps"])
    def test_setting_that_is_no_finite_number_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"'{name}' must be a finite number"):
            nncore.init_adam(np.zeros(2), **{"learning_rate": 0.1, name: value})

    @pytest.mark.parametrize("name, value", [
        ("beta1", 0.0), ("beta1", 1.0), ("beta2", 0.0), ("beta2", 1.0), ("eps", 0.0),
        ("eps", -1.0)])
    def test_setting_outside_its_range_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^'{name}' must be a finite number in "):
            nncore.init_adam(np.zeros(2), **{"learning_rate": 0.1, name: value})

    def test_huge_finite_learning_rate_accepted(self):
        assert nncore.init_adam(np.zeros(2), learning_rate=1e200).step == 0


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        loss, _ = nncore.bce_loss(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert abs(loss - math.log(2)) < 1e-12

    def test_two_row_analytic_case(self):
        z = np.array([math.log(9.0), -math.log(9.0)])  # p = 0.9, 0.1
        y = np.array([1.0, 0.0])
        loss, _ = nncore.bce_loss(z, y, np.ones(2))
        assert abs(loss - (-math.log(0.9))) < 1e-12

    def test_empty_mask_contributes_nothing(self):
        z = np.array([-0.8, 0.8])
        loss, grad = nncore.bce_loss(z, np.array([1.0, 0.0]), np.zeros(2))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_grad_is_prelogistic_residual(self):
        z = np.array([1.4, -1.4, 0.4])
        y = np.array([1.0, 0.0, 0.0])
        mask = np.array([1.0, 0.0, 1.0])
        _, grad = nncore.bce_loss(z, y, mask)
        p = nncore.logistic(z)
        np.testing.assert_allclose(grad, [(p[0] - 1) / 2, 0.0, p[2] / 2])

    def test_masked_entries_get_zero_gradient(self):
        z = np.array([1.4, -1.4])
        _, grad = nncore.bce_loss(z, np.ones(2), np.array([0.0, 1.0]))
        assert grad[0] == 0.0

    def test_columns_average_over_their_own_rows(self):
        # Two columns, each the mean over its own selected rows, summed;
        # a column with an empty mask adds nothing.
        z = np.array([[0.3, -1.2], [2.0, 0.7], [-0.5, 1.1]])
        y = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        mask = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        loss, grad = nncore.bce_loss(z, y, mask)
        cols = [nncore.bce_loss(z[:, j], y[:, j], mask[:, j]) for j in range(2)]
        assert abs(loss - (cols[0][0] + cols[1][0])) < 1e-15
        np.testing.assert_array_equal(grad, np.column_stack([g for _, g in cols]))
        loss, grad = nncore.bce_loss(z, y, mask * [1.0, 0.0])
        assert loss == cols[0][0] and not grad[:, 1].any()

    def test_saturated_logits_keep_their_exact_loss_and_gradient(self):
        # Far past where a probability rounds to 0 or 1, the loss still
        # grows with the logit and its gradient is the exact derivative.
        z = np.array([40.0, -40.0, 800.0, -800.0])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        loss, grad = nncore.bce_loss(z, y, np.ones(4))
        assert abs(loss - (80.0 + 2 * math.log1p(math.exp(-40.0))) / 4) < 1e-12
        np.testing.assert_array_equal(grad, [0.25, -0.25, 0.0, 0.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError, match="mismatch"):
            nncore.bce_loss(np.zeros((3, 2)), np.zeros(3), np.ones((3, 2)))
