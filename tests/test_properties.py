"""Property-based tests of passes run in a reused set of buffers:
`nncore.forward` and `backward` against the clean-room evaluator and
central finite differences, for drawn layer sizes, row counts and output
activations; each architecture's wiring, its probabilities and base-loss
gradient against the per-kind clean-room oracle; a model's training
step against the same step in a fresh set, whatever passes the reused
set ran before it; `predict` against `forward_full` over the same
chunks and over all rows at once, at the chunk edges; the
bag-regularized loss and gradient against the oracle with its bags held
fixed; the bags `cluster_bags` forms, which the gradient's scatter
needs disjoint; the uplift curve against the brute-force evaluator,
signed zeros and infinities among the scores; checkpoint loading of
corrupted manifests; `data.split`, a complete, disjoint and stratified
partition of any data set; `data.minibatches`, an epoch's rows in
disjoint full batches with exact treated shares; a table's save and
load, which give back its bits; and `errors.is_binary`, the one test of
a binary column, against a value-by-value oracle."""

import contextlib
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, strategies as st  # noqa: E402

from upliftmil import data, metrics, mil, models, nncore  # noqa: E402
from upliftmil.errors import ConfigError, is_binary, is_int  # noqa: E402

from oracles import (  # noqa: E402
    binary_ref,
    brute_force_curve,
    combined_loss_ref,
    dense_eval,
    fd_gradients,
    model_probs,
    net_layers,
)

# A hidden pre-activation this close to zero puts a rectifier kink inside
# the finite-difference step; such draws are skipped.
KINK = 1e-3


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


def _off_kinks(model, bufs, n):
    """False for a pass with a rectifier kink inside the finite-difference
    step (or a logit that close to zero); each net's input is read from
    its buffer after the pass."""
    preacts = [z for name, net in model.nets.items()
               for z in _preacts(net, bufs.nets[name].inputs[:n, :-1])]
    return all((np.abs(z) > KINK).all() for z in preacts)


@given(model_cases())
def test_wiring_matches_the_per_kind_oracle(case):
    model, x, t, y = case
    bufs = models.buffer_set(model, len(x))
    out = models.forward_full(model, x, bufs)
    ref_t, ref_c = model_probs(model, x)
    np.testing.assert_allclose(out.p_t, ref_t, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.p_c, ref_c, rtol=1e-12, atol=1e-12)

    assume(_off_kinks(model, bufs, len(x)))
    _, g = models.factual_loss(out, t, y)
    grad = models.backprop_factual(model, g, bufs)
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
    loss, g = models.factual_loss(out, t, y)
    grad = models.backprop_factual(model, g, buffers)
    assert grad is buffers.grad
    return [a.tobytes() for a in (out.p_t, out.p_c, out.uplift, out.logits,
                                  np.float64(loss), grad)]


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


@st.composite
def predict_cases(draw):
    """A model of a drawn kind and sizes, with drawn parameters and a
    scaler, and n rows of features, n at a chunk edge: 0, 1, CHUNK - 1,
    CHUNK, CHUNK + 1 or 2 * CHUNK + k."""
    kind = draw(st.sampled_from(list(models.ModelKind)))
    d = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    chunk = models.CHUNK
    n = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1])
             | st.integers(0, 9).map(lambda k: 2 * chunk + k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = models.build(kind, d, hidden, seed=0)
    model.params[...] = rng.normal(0.0, 0.7, size=model.params.size)
    model.scaler = (rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    return model, rng.normal(size=(n, d))


@given(predict_cases())
def test_predict_is_forward_full_over_chunks(case):
    model, x = case
    n, chunk = len(x), models.CHUNK
    scores = models.predict(model, x)
    passes = [models.forward_full(model, x[s : s + chunk]) for s in range(0, n, chunk)]
    for got, name in zip(scores, ("p_t", "p_c", "uplift")):
        want = [getattr(out, name) for out in passes]
        assert got.shape == (n,)
        assert got.tobytes() == np.concatenate([np.empty(0), *want]).tobytes()
    p_t, p_c, uplift = scores
    assert uplift.tobytes() == (p_t - p_c).tobytes()
    # One pass over all rows agrees to rounding only: a short last chunk
    # may take another BLAS kernel than the same rows inside a long pass.
    # The uplift's tolerance is absolute too, for p_t - p_c near zero.
    full = models.forward_full(model, x)
    np.testing.assert_allclose(p_t, full.p_t, rtol=1e-12)
    np.testing.assert_allclose(p_c, full.p_c, rtol=1e-12)
    np.testing.assert_allclose(uplift, full.uplift, rtol=1e-12, atol=1e-12)
    # Each chunk's first and last rows against the clean-room evaluator.
    edges = sorted({i for s in range(0, n, chunk) for i in (s, min(s + chunk, n) - 1)})
    ref_t, ref_c = model_probs(model, x[edges])
    np.testing.assert_allclose(p_t[edges], ref_t, rtol=1e-12)
    np.testing.assert_allclose(p_c[edges], ref_c, rtol=1e-12)


@st.composite
def bag_cases(draw):
    """A model of a drawn kind and sizes with a scaler, a batch of 2..16
    rows holding both arms, a bag size from 2 to the batch size (so
    remainder rows occur), either bag mode, an alpha > 0 and the seed of
    the RANDOM shuffle. Treatment is drawn per bag position from a drawn
    treated share, so single-arm bags are common."""
    kind = draw(st.sampled_from(list(models.ModelKind)))
    d = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    n = draw(st.integers(2, 16))
    bag_size = draw(st.integers(2, n))
    mode = draw(st.sampled_from(list(mil.BagMode)))
    alpha = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = models.build(kind, d, hidden, seed=0)
    model.params[...] = rng.normal(0.0, 0.7, size=model.params.size)
    model.scaler = (rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    t = (rng.random(n) < share).astype(float)
    t[:2] = [1.0, 0.0]
    y = rng.integers(0, 2, n).astype(float)
    return (model, rng.normal(size=(n, d)), t, y, bag_size, mode, alpha,
            int(rng.integers(2**32)))


@given(bag_cases())
def test_combined_loss_and_gradient_match_the_oracle(case):
    model, x, t, y, bag_size, mode, alpha, shuffle = case
    u_t = t.mean()
    bufs = models.buffer_set(model, len(x))
    breakdown, grad, out = mil.combined_loss_and_grads(
        model, x, t, y, u_t, alpha, bag_size, mode,
        rng=np.random.default_rng(shuffle), buffers=bufs)
    # The bags the call formed, from its own forward pass and the same
    # shuffle, held fixed for the oracle and its perturbed losses.
    bags = mil.cluster_bags(out.uplift, bag_size, mode,
                            np.random.default_rng(shuffle)).bags
    usable = [0 < t[b].sum() < bag_size for b in bags]
    assert breakdown.usable_bags == sum(usable)
    frozen_pc = out.p_c.copy()

    def loss(_arrays):
        return combined_loss_ref(model, x, t, y, u_t, alpha, bags.tolist(),
                                 frozen_pc=frozen_pc)

    np.testing.assert_allclose(breakdown.loss, loss(None), rtol=1e-12, atol=1e-12)
    assume(_off_kinks(model, bufs, len(x)))
    (numeric,) = fd_gradients(loss, [model.params])
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)


@st.composite
def partition_cases(draw):
    """Uplift predictions on a coarse grid, so ties are common, a bag size
    up to a few rows past the batch size, a mode and a shuffle seed."""
    n = draw(st.integers(1, 40))
    levels = draw(st.integers(1, 8))
    preds = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n)))
    return (preds / levels - 0.5, draw(st.integers(2, n + 3)),
            draw(st.sampled_from(list(mil.BagMode))), draw(st.integers(0, 2**32 - 1)))


@given(partition_cases())
def test_bags_are_disjoint_equal_and_drop_the_remainder(case):
    preds, bag_size, mode, seed = case
    n = len(preds)

    def bags_of(uplift):
        with pytest.warns(UserWarning) if bag_size > n else contextlib.nullcontext():
            return mil.cluster_bags(uplift, bag_size, mode,
                                    np.random.default_rng(seed)).bags

    bags = bags_of(preds)
    flat = bags.ravel()
    assert bags.shape == (n // bag_size, bag_size)
    assert n - flat.size == n % bag_size
    assert len(np.unique(flat)) == flat.size and np.isin(flat, np.arange(n)).all()
    if mode is mil.BagMode.CLUSTERED:
        # Stable: ascending uplift, ties in row order, and the dropped rows
        # are the last of that order.
        order = sorted(range(n), key=lambda i: (preds[i], i))
        assert flat.tolist() == order[: flat.size]
    else:  # the shuffle comes from the rng alone, whatever the uplift
        assert bags.tobytes() == bags_of(preds[::-1].copy()).tobytes()


# Score levels at the edges of a ranking: -0.0 and +0.0 are one score in
# the oracle, and a sort may leave them in either order.
_SCORE_EDGES = [-0.0, 0.0, math.inf, -math.inf, 1e-300, -1e-300]


@st.composite
def curve_cases(draw):
    """Scores drawn from `levels` values (one level: a constant scorer;
    few: tie-heavy), some of them signed zeros, infinities or +-1e-300,
    1..n-1 treated rows at random positions, each arm's response rate 0,
    1 or drawn (one-sided arms included), a grid of 2..60 points and a
    permutation of the rows."""
    n = draw(st.integers(2, 40))
    n_t = draw(st.integers(1, n - 1))
    levels = draw(st.integers(1, n))
    edges = draw(st.lists(st.sampled_from(_SCORE_EDGES), max_size=levels))
    rate_t, rate_c = (draw(st.sampled_from([0.0, 1.0, None])) for _ in range(2))
    n_points = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=levels)
    values[: len(edges)] = edges
    scores = values[rng.integers(0, levels, n)]
    t = rng.permutation(np.arange(n) < n_t).astype(np.int64)
    rate = np.where(t == 1, rng.random() if rate_t is None else rate_t,
                    rng.random() if rate_c is None else rate_c)
    y = (rng.random(n) < rate).astype(np.int64)
    return scores, y, t, n_points, rng.permutation(n)


@given(curve_cases())
def test_uplift_curve_matches_brute_force(case):
    scores, y, t, n_points, perm = case
    g_ref, auuc_ref = brute_force_curve(scores, y, t, n_points)
    for rows in (slice(None), perm):
        curve = metrics.uplift_curve(scores[rows], y[rows], t[rows], n_points)
        np.testing.assert_array_equal(curve.g, g_ref)
        assert curve.auuc == auuc_ref


_MANIFEST_KEYS = ("format_version", "kind", "input_dim", "hidden_sizes", "seed",
                  "has_scaler")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=True), st.text(max_size=4),
                     st.lists(st.integers(-1, 9), max_size=3))
_JUNK = st.one_of(_SCALARS,
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def corrupted_manifests(draw):
    """The text of a corrupted checkpoint manifest: a valid one with
    entries dropped or given values of any type, or a cut or mangled
    copy of its text, or a JSON value that is not an object."""
    valid = {"format_version": models.CHECKPOINT_VERSION, "kind": "sdr",
             "input_dim": 3, "hidden_sizes": [5, 4], "seed": 18, "has_scaler": True}
    how = draw(st.sampled_from(["entries", "text", "value"]))
    if how == "entries":
        keys = draw(st.lists(st.sampled_from(_MANIFEST_KEYS), min_size=1, unique=True))
        manifest = dict(valid)
        for key in keys:
            if draw(st.booleans()):
                del manifest[key]
            else:
                manifest[key] = draw(_JUNK)
        assume(manifest != valid)
        return json.dumps(manifest)
    if how == "value":
        return json.dumps(draw(_SCALARS))
    text = json.dumps(valid)
    cut = draw(st.integers(0, len(text) - 1))
    return text[:cut] + draw(st.text(alphabet="{}[]\",:xa1", max_size=3))


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """The members of a saved SDR checkpoint with a scaler, and a path for
    a copy to be written to."""
    model = models.build("sdr", 3, (5, 4), seed=18)
    model.scaler = (np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
    path = tmp_path_factory.mktemp("ckpt") / "model.npz"
    models.save_checkpoint(model, path)
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}, path


@given(text=corrupted_manifests())
def test_corrupted_manifest_is_a_config_error(text, saved_checkpoint):
    members, path = saved_checkpoint
    np.savez(path, **{**members, "manifest": np.array(text)})
    try:
        models.load_checkpoint(path)
    except ConfigError:
        return
    # A corruption can leave a manifest that still describes the stored
    # members: the same layout, a seed >= 0 and a flag for the scaler.
    manifest, valid = json.loads(text), json.loads(str(members["manifest"]))
    assert manifest.keys() == valid.keys()
    for key in ("format_version", "kind", "input_dim", "hidden_sizes"):
        assert manifest[key] == valid[key] and type(manifest[key]) is type(valid[key])
    assert is_int(manifest["seed"], 0) and isinstance(manifest["has_scaler"], bool)


@st.composite
def split_cases(draw):
    """A data set whose four (t, y) cells hold 0, 1, 2 or more rows each,
    in a drawn row order, with its row numbers as its one feature; three
    positive fractions that sum to 1, and a seed."""
    sizes = draw(st.lists(st.one_of(st.integers(0, 2), st.integers(0, 60)),
                          min_size=4, max_size=4))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(sum(sizes))
    t, y = np.repeat([0, 0, 1, 1], sizes)[order], np.repeat([0, 1, 0, 1], sizes)[order]
    weights = draw(st.lists(st.integers(1, 20), min_size=3, max_size=3))
    fractions = tuple(w / sum(weights) for w in weights)
    ds = data.Dataset(np.arange(len(t), dtype=np.float64)[:, None], t, y)
    return ds, fractions, draw(st.integers(0, 2**32 - 1))


def _largest_remainder(n, fractions):
    """Each split's floor of n times its fraction, plus one row for the
    splits with the largest remainders, ties to the earlier split."""
    quotas = [n * f for f in fractions]
    sizes = [math.floor(q) for q in quotas]
    for s in sorted(range(3), key=lambda s: sizes[s] - quotas[s])[: n - sum(sizes)]:
        sizes[s] += 1
    return sizes


_SYNTH_100 = data.generate_synthetic(data.SynthConfig(n=100, d=3, seed=1))


@given(split_cases())
@example((_SYNTH_100, (0.8, 0.1, 0.1), 0))
def test_split_is_a_stratified_partition(case):
    ds, fractions, seed = case
    parts = data.split(ds, fractions, seed)
    rows = [np.flatnonzero(np.isin(ds.features[:, 0], p.features[:, 0])) for p in parts]
    assert [len(r) for r in rows] == [p.n for p in parts]
    # Complete and disjoint, each split's rows in the data set's order.
    np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(ds.n))
    for p, r in zip(parts, rows):
        np.testing.assert_array_equal(p.features, ds.features[r])
        np.testing.assert_array_equal(p.treatment, ds.treatment[r])
        np.testing.assert_array_equal(p.outcome, ds.outcome[r])
    assert [p.n for p in parts] == _largest_remainder(ds.n, fractions)
    for t in (0, 1):
        for y in (0, 1):
            cell_n = int(((ds.treatment == t) & (ds.outcome == y)).sum())
            for p, f in zip(parts, fractions):
                got = int(((p.treatment == t) & (p.outcome == y)).sum())
                assert abs(got - cell_n * f) <= 2


@st.composite
def minibatch_cases(draw):
    """A data set of 2..200 rows with drawn treatment flags, a batch size
    of 2..n rows, a seed and an epoch."""
    n = draw(st.integers(2, 200))
    t = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    ds = data.Dataset(np.zeros((n, 1)), t, np.zeros(n, dtype=np.int64))
    return (ds, draw(st.integers(2, n)), draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 10**6)))


@given(minibatch_cases())
def test_minibatches_partition_an_epoch_minus_the_remainder(case):
    ds, batch_size, seed, epoch = case
    batches = data.minibatches(ds, batch_size, seed, epoch)
    assert all(len(b.indices) == batch_size for b in batches)
    rows = np.concatenate([b.indices for b in batches])
    # Disjoint, and every row but exactly n % batch_size of them.
    assert len(np.unique(rows)) == len(rows) == ds.n - ds.n % batch_size
    assert rows.min() >= 0 and rows.max() < ds.n
    for b in batches:
        assert b.u_t == int(ds.treatment[b.indices].sum()) / batch_size
    again = data.minibatches(ds, batch_size, seed, epoch)
    assert [(b.indices.tobytes(), b.u_t) for b in again] == [
        (b.indices.tobytes(), b.u_t) for b in batches]


# Finite values at the edges of float64: signed zeros, the least subnormal,
# the largest subnormal and the largest finite value.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
          -1.7976931348623157e308]


@st.composite
def table_cases(draw):
    """A data set of 1..6 rows and 1..3 features, its values drawn from
    every finite float64 and the edges above, with or without a true_ite
    column, and a delimiter."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    finite = st.one_of(st.sampled_from(_EDGES),
                       st.floats(allow_nan=False, allow_infinity=False))
    unit = st.one_of(st.sampled_from([v for v in _EDGES if abs(v) <= 1.0] + [-1.0, 1.0]),
                     st.floats(-1.0, 1.0))
    features = draw(st.lists(finite, min_size=n * d, max_size=n * d))
    flags = draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n))
    ite = draw(st.none() | st.lists(unit, min_size=n, max_size=n))
    ds = data.Dataset(np.reshape(features, (n, d)), flags[:n], flags[n:], ite)
    return ds, draw(st.sampled_from([",", ";", "\t"]))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "table.txt"


@given(case=table_cases())
def test_table_round_trip_is_exact(case, table_path):
    ds, delimiter = case
    data.save_table(ds, table_path, delimiter)
    saved = table_path.read_bytes()
    ite = None if ds.true_ite is None else "true_ite"
    back = data.load_table(table_path, data.TableSchema(true_ite_col=ite,
                                                        delimiter=delimiter))
    for name in ("features", "treatment", "outcome", "true_ite"):
        a, b = getattr(ds, name), getattr(back, name)
        assert (a is None and b is None) or (a.dtype == b.dtype and a.shape == b.shape
                                             and a.tobytes() == b.tobytes())
    data.save_table(back, table_path, delimiter)
    assert table_path.read_bytes() == saved


_BINARY_DTYPES = ("bool", "int8", "int64", "uint64", "float32", "float64", "complex128",
                  "U1", "O")


@st.composite
def column_cases(draw):
    """A column of 0 to 6 values of a drawn dtype: 0s and 1s (signed zeros
    among the floats), one of them replaced, half the time, by any value
    of the dtype: a fraction, NaN, the infinities or an integer at its
    type's edge."""
    dtype = np.dtype(draw(st.sampled_from(_BINARY_DTYPES)))
    binary = [0.0, -0.0, 1.0] if dtype.kind == "f" else [0, 1]
    values = draw(st.lists(st.sampled_from(binary), max_size=6))
    if dtype.kind == "f":
        width = dtype.itemsize * 8
        other = st.one_of(st.floats(0.0, 1.0, width=width), st.floats(width=width))
    elif dtype.kind in "iu":
        other = st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    else:
        other = st.sampled_from([0, 1, 2, True])
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(other)
    if dtype.kind == "U":
        values = [str(v) for v in values]
    return np.array(values, dtype=dtype)


@given(column_cases())
@example(np.array([np.nan]))
@example(np.array([0.5, 1.0]))
@example(np.array([-0.0, 1.0], dtype=np.float32))
@example(np.array([np.inf, 0.0]))
@example(np.array([2**64 - 1, 1], dtype=np.uint64))
@example(np.array([-(2**63), 0]))
@example(np.array([], dtype=np.uint64))
@example(np.array([], dtype=np.float32))
@example(np.array([], dtype="U1"))
def test_is_binary_matches_the_value_oracle(values):
    assert is_binary(values) is binary_ref(values)
