"""Property-based tests: `nncore.forward` and `backward`, run in a reused
set of buffers, against the clean-room evaluator and central finite
differences, for drawn layer sizes, row counts and output activations."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from upliftmil import nncore  # noqa: E402

from oracles import dense_eval, fd_gradients, net_layers  # noqa: E402

# A hidden pre-activation this close to zero puts a rectifier kink inside
# the finite-difference step; such draws are skipped.
KINK = 1e-3


@st.composite
def net_cases(draw):
    """A net (one-unit and one-wide layers included), a set of r rows,
    a backward batch of 1..r // 2 rows and a forward batch of 1..r."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    activation = draw(st.sampled_from(["linear", "relu"]))
    rows = draw(st.integers(2, 12))
    n_back = draw(st.integers(1, rows // 2))
    n_fwd = draw(st.integers(1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = nncore.init_network(sizes, 0, activation)
    net.flat[...] = rng.normal(0.0, 0.7, size=net.flat.size)
    return (net, rows, rng.normal(size=(n_back, sizes[0])),
            rng.normal(size=(n_back, sizes[-1])), rng.normal(size=(n_fwd, sizes[0])))


def _oracle(net, x, activation):
    """The clean-room evaluator over the rows of x."""
    layers = net_layers(net)
    return np.array([dense_eval(layers, activation, row) for row in x])


def _hidden_preacts(net, x):
    a, out = x, []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w + b
        out.append(z)
        a = np.maximum(z, 0.0)
    return out


@given(net_cases())
def test_forward_and_backward_in_a_set_match_oracles(case):
    net, rows, x_back, g_out, x_fwd = case
    assume(all((np.abs(z) > KINK).all() for z in _hidden_preacts(net, x_back)))
    bufs = nncore.net_buffers(net.layer_sizes, rows, np.empty_like(net.flat))

    out, cache = nncore.forward(net, x_back, bufs)
    np.testing.assert_allclose(out, _oracle(net, x_back, net.output_activation),
                               rtol=1e-12, atol=1e-12)

    # g_out is the gradient at the final pre-activations: it is the
    # gradient of sum(g_out * z) with z the net's last layer taken linear.
    grad, d_x = nncore.backward(net, cache, g_out, buffers=bufs)

    def loss(_arrays):
        return float(np.sum(g_out * _oracle(net, x_back, "linear")))

    (numeric,) = fd_gradients(loss, [net.flat])
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)
    (numeric_x,) = fd_gradients(loss, [x_back])
    np.testing.assert_allclose(d_x, numeric_x, rtol=1e-6, atol=1e-7)

    # The backward pass used the ones column of the activations' upper
    # half as scratch; a forward pass over any rows of the set still
    # matches the evaluator.
    out, _ = nncore.forward(net, x_fwd, bufs)
    np.testing.assert_allclose(out, _oracle(net, x_fwd, net.output_activation),
                               rtol=1e-12, atol=1e-12)
