"""Property-based tests of passes run in a reused set of buffers:
`nncore.forward` and `backward` against the clean-room evaluator and
central finite differences, for drawn layer sizes, row counts and output
activations; each architecture's wiring, its probabilities and base-loss
gradient against the per-kind clean-room oracle; and a model's training
step against the same step in a fresh set, whatever passes the reused
set ran before it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from upliftmil import models, nncore  # noqa: E402

from oracles import (  # noqa: E402
    combined_loss_ref,
    dense_eval,
    fd_gradients,
    model_probs,
    net_layers,
)

# A hidden pre-activation this close to zero puts a rectifier kink inside
# the finite-difference step; such draws are skipped.
KINK = 1e-3

# A probability this close to 0 or 1 may be clamped (nncore.PROB_CLIP)
# within the step, where the loss is flat but its logit gradient is not;
# such draws are skipped too.
CLAMP = 1e-6


@st.composite
def net_cases(draw):
    """A net (one-unit and one-wide layers included), a set of r rows,
    a backward batch of 1..r rows and a forward batch of 1..r."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    activation = draw(st.sampled_from(["linear", "relu"]))
    rows = draw(st.integers(2, 12))
    n_back = draw(st.integers(1, rows))
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


def _preacts(net, x):
    """Every layer's pre-activations over x, rectifiers between them."""
    a, out = x, []
    for w, b in zip(net.weights, net.biases):
        z = a @ w + b
        out.append(z)
        a = np.maximum(z, 0.0)
    return out


@given(net_cases())
def test_forward_and_backward_in_a_set_match_oracles(case):
    net, rows, x_back, g_out, x_fwd = case
    assume(all((np.abs(z) > KINK).all() for z in _preacts(net, x_back)[:-1]))
    bufs = nncore.net_buffers(net.layer_sizes, rows, np.empty_like(net.flat))

    out = nncore.forward(net, x_back, bufs)
    np.testing.assert_allclose(out, _oracle(net, x_back, net.output_activation),
                               rtol=1e-12, atol=1e-12)

    # g_out is the gradient at the final pre-activations: it is the
    # gradient of sum(g_out * z) with z the net's last layer taken linear.
    grad, d_x = nncore.backward(net, bufs, g_out)

    def loss(_arrays):
        return float(np.sum(g_out * _oracle(net, x_back, "linear")))

    (numeric,) = fd_gradients(loss, [net.flat])
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)
    (numeric_x,) = fd_gradients(loss, [x_back])
    np.testing.assert_allclose(d_x, numeric_x, rtol=1e-6, atol=1e-7)

    # The backward pass wrote its deltas over the activations, using their
    # ones column as scratch; a forward pass over any rows of the set
    # still matches the evaluator.
    out = nncore.forward(net, x_fwd, bufs)
    np.testing.assert_allclose(out, _oracle(net, x_fwd, net.output_activation),
                               rtol=1e-12, atol=1e-12)


@st.composite
def model_cases(draw):
    """A model of a drawn kind, feature count and hidden sizes (one-layer
    nets and one-unit layers included), with drawn parameters and a
    scaler, and a batch of two to six rows."""
    kind = draw(st.sampled_from(list(models.ModelKind)))
    d = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = models.build(kind, d, hidden, seed=0)
    model.params[...] = rng.normal(0.0, 0.7, size=model.params.size)
    model.scaler = (rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    x = rng.normal(size=(n, d))
    return model, x, rng.integers(0, 2, n), rng.integers(0, 2, n)


@given(model_cases())
def test_wiring_matches_the_per_kind_oracle(case):
    model, x, t, y = case
    bufs = models.buffer_set(model, len(x))
    out = models.forward_full(model, x, bufs)
    ref_t, ref_c = model_probs(model, x)
    np.testing.assert_allclose(out.p_t, ref_t, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.p_c, ref_c, rtol=1e-12, atol=1e-12)

    # Skip a draw with a rectifier kink inside the finite-difference step
    # (or a logit that close to zero), or a clamped probability; each
    # net's input is read from its buffer after the pass.
    preacts = [z for name, net in model.nets.items()
               for z in _preacts(net, bufs.nets[name].inputs[: len(x), :-1])]
    assume(all((np.abs(z) > KINK).all() for z in preacts))
    p = np.concatenate([out.p_t, out.p_c])
    assume(((p > CLAMP) & (p < 1.0 - CLAMP)).all())
    _, gz_t, gz_c = models.factual_loss(out, t, y)
    grad = models.backprop_factual(model, gz_t, gz_c, bufs)
    # DDR's treatment net reads p_c as a constant: the oracle is given the
    # pass's p_c frozen (the other kinds ignore it).
    frozen_pc = out.p_c.copy()

    def loss(_arrays):
        return combined_loss_ref(model, x, t, y, 0.5, 0.0, [], frozen_pc=frozen_pc)

    (numeric,) = fd_gradients(loss, [model.params])
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)


@st.composite
def step_cases(draw):
    """A model of a drawn kind and sizes, with a scaler; a set of r rows;
    a batch of n <= r rows; and what the set ran before the step: a step
    over up to r rows and a forward pass over up to r rows, which stands
    in for an in-run evaluation chunk, in either order."""
    kind = draw(st.sampled_from(list(models.ModelKind)))
    d = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    rows = draw(st.integers(1, 24))
    n = draw(st.integers(1, rows))
    n_step = draw(st.integers(1, rows))
    n_eval = draw(st.integers(1, rows))
    eval_first = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = models.build(kind, d, hidden, seed=0)
    model.params[...] = rng.normal(0.0, 0.7, size=model.params.size)
    model.scaler = (rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))

    def batch(k):
        return rng.normal(size=(k, d)), rng.integers(0, 2, k), rng.integers(0, 2, k)

    x_eval = rng.normal(size=(n_eval, d))
    return model, rows, batch(n), batch(n_step), x_eval, eval_first


def _step(model, buffers, x, t, y):
    """One base-loss step in `buffers`: forward_full, factual_loss,
    backprop_factual; the bytes of its outputs, loss and gradient."""
    out = models.forward_full(model, x, buffers)
    loss, gz_t, gz_c = models.factual_loss(out, t, y)
    grad = models.backprop_factual(model, gz_t, gz_c, buffers)
    assert grad is buffers.grad
    return [a.tobytes() for a in (out.p_t, out.p_c, out.uplift, np.float64(loss), grad)]


@given(step_cases())
def test_step_in_a_reused_set_gives_fresh_bits(case):
    model, rows, (x, t, y), before, x_eval, eval_first = case
    bufs = models.buffer_set(model, rows)
    for run_eval in (eval_first, not eval_first):
        if run_eval:
            models.forward_full(model, x_eval, bufs)
        else:
            _step(model, bufs, *before)
    want = _step(model, models.buffer_set(model, len(x)), x, t, y)
    assert _step(model, bufs, x, t, y) == want
