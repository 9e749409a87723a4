"""Independent reference implementations used as test oracles.

Everything here is written straight from the defining formulas with
plain loops, deliberately sharing no code with the package: a clean-room
dense-net evaluator per architecture (arm logits, and their sigmoid),
the factual-arm loss on the logits and the bag-level loss, the
bag-noise identity, central finite differences, a functional per-array
Adam step, a brute-force uplift-curve evaluator that materializes every
selection explicitly, the two-sample standard error of an empirical
ATE, and a value-by-value test of a binary column. One oracle is a
bit-exact reference instead: the dense (n, 2) form of the bag term's
arm-logit gradient, which the package's scatter must reproduce bit for
bit. Another, `replay_train`, is built from the package's own step
functions: it checks `trainer.train`'s loop (which batch, u_t, alpha,
scaler and checkpoint), not the step, which the other oracles check.
"""

import math
from fractions import Fraction

import numpy as np

def sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def softplus(z):
    """log(1 + e^z), without overflow for large z."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def dense_eval(layers, out_act, x_row):
    """One row through a dense net given [(W, b), ...]; hidden relu, and
    a "relu" or "linear" output."""
    a = list(x_row)
    for k, (w, b) in enumerate(layers):
        z = [
            sum(a[i] * w[i][j] for i in range(len(a))) + b[j]
            for j in range(len(b))
        ]
        if k < len(layers) - 1 or out_act == "relu":
            a = [max(0.0, v) for v in z]
        else:
            a = z
    return a


def net_layers(net):
    """Copy a NetworkParams into plain nested lists."""
    return [
        (w.tolist(), b.tolist()) for w, b in zip(net.weights, net.biases)
    ]


def model_logits(model, x, frozen_pc=None):
    """Clean-room arm logits (z_t, z_c) per row for any architecture.

    frozen_pc, when given for DDR, is the control prediction vector fed
    to the treatment net in place of the freshly computed one; this
    mirrors the stop-gradient the trainer applies on that input.
    """
    kind = model.kind.value
    # Each net's output activation is written below, not read from the model.
    nets = {name: net_layers(net) for name, net in model.nets.items()}
    if model.scaler is not None:
        mean, std = model.scaler
        x = [(np.asarray(row) - mean) / std for row in x]
    z_t, z_c = [], []
    for r, row in enumerate(x):
        row = list(np.asarray(row, dtype=float))
        if kind == "tm":
            zc, zt = dense_eval(nets["net"], "linear", row)
        elif kind == "tarnet":
            rep = dense_eval(nets["trunk"], "relu", row)
            zc = dense_eval(nets["head_c"], "linear", rep)[0]
            zt = dense_eval(nets["head_t"], "linear", rep)[0]
        elif kind == "ddr":
            zc = dense_eval(nets["control"], "linear", row)[0]
            fed = sigmoid(zc) if frozen_pc is None else float(frozen_pc[r])
            zt = dense_eval(nets["treatment"], "linear", row + [fed])[0]
        else:  # sdr
            zs = dense_eval(nets["shared"], "linear", row)[0]
            zc = zs + dense_eval(nets["private_c"], "linear", row)[0]
            zt = zs + dense_eval(nets["private_t"], "linear", row)[0]
        z_t.append(zt)
        z_c.append(zc)
    return z_t, z_c


def model_probs(model, x, frozen_pc=None):
    """Clean-room (p_t, p_c) per row: the sigmoid of `model_logits`."""
    z_t, z_c = model_logits(model, x, frozen_pc=frozen_pc)
    return [sigmoid(z) for z in z_t], [sigmoid(z) for z in z_c]


def base_loss_ref(z_t, z_c, t, y):
    """Arm-wise mean negative log-likelihood of the factual arm's logit,
    summed. A positive costs -log sigmoid(z) = softplus(-z), a negative
    -log(1 - sigmoid(z)) = softplus(z)."""

    def nll(z, label):
        return softplus(-z) if label == 1 else softplus(z)

    t_terms = [nll(z_t[i], y[i]) for i in range(len(t)) if t[i] == 1]
    c_terms = [nll(z_c[i], y[i]) for i in range(len(t)) if t[i] == 0]
    loss = 0.0
    if t_terms:
        loss += math.fsum(t_terms) / len(t_terms)
    if c_terms:
        loss += math.fsum(c_terms) / len(c_terms)
    return loss


def mil_loss_ref(p_t, p_c, t, y, bags, u_t):
    """Sum over two-arm bags of squared (label - prediction) residuals."""
    total = 0.0
    for bag in bags:
        tr = [i for i in bag if t[i] == 1]
        co = [i for i in bag if t[i] == 0]
        if not tr or not co:
            continue
        y_bag = sum(y[i] for i in tr) / u_t - sum(y[j] for j in co) / (1.0 - u_t)
        h_bag = sum(p_t[i] for i in tr) / u_t - sum(p_c[j] for j in co) / (1.0 - u_t)
        total += (y_bag - h_bag) ** 2
    return total


def variance_identity_check(labels, noise, bags):
    """Algebraic core of the variance-reduction argument: with unweighted
    per-bag sums, the squared gap between noisy and clean bag sums equals
    the squared bag sum of the noise alone.

    `bags` is any iterable of index arrays. Computes
    lhs = sum_bags (sum(y + eps) - sum(y))^2 and rhs = sum_bags (sum eps)^2
    with exact accumulation and raises if they differ beyond 1e-12
    relative to max(1, |lhs|, |rhs|).
    """
    y = np.asarray(labels, dtype=np.float64)
    e = np.asarray(noise, dtype=np.float64)
    if y.shape != e.shape:
        raise ValueError(f"length mismatch: {y.shape} labels, {e.shape} noise")
    lhs_terms, rhs_terms = [], []
    for bag in bags:
        noisy = math.fsum((y[i] + e[i]) for i in bag)
        clean = math.fsum(y[i] for i in bag)
        lhs_terms.append((noisy - clean) ** 2)
        rhs_terms.append(math.fsum(e[i] for i in bag) ** 2)
    lhs = math.fsum(lhs_terms)
    rhs = math.fsum(rhs_terms)
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
        raise AssertionError(
            f"bag-noise identity violated: lhs={lhs!r} rhs={rhs!r}"
        )
    return lhs, rhs


def combined_loss_ref(model, x, t, y, u_t, alpha, bags, frozen_pc=None):
    z_t, z_c = model_logits(model, x, frozen_pc=frozen_pc)
    loss = base_loss_ref(z_t, z_c, t, y)
    if alpha != 0.0:
        p_t, p_c = [sigmoid(z) for z in z_t], [sigmoid(z) for z in z_c]
        loss += alpha * mil_loss_ref(p_t, p_c, t, y, bags, u_t)
    return loss


def dense_mil_logit_grad(g, p_t, p_c, t, bags, residuals, u_t, alpha):
    """g plus alpha times the bag term's gradient at the arm logits, in the
    dense (n, 2) form: d l_mil / d p scattered into a zero (n, 2) array
    (-2 r / u_t at the treated arm of treated members, +2 r / (1 - u_t) at
    the control arm of control members), then through the logistic of
    every arm, column_stack((p_c, p_t)), as one elementwise product.

    `bags` is the (n_bags, bag_size) partition and `residuals` its
    per-bag residuals, zero for unusable bags."""
    treated = t[bags] == 1.0
    r = residuals[:, None]
    dp = np.zeros_like(g)
    dp[bags, treated.astype(np.intp)] = np.where(
        treated, -2.0 * r / u_t, 2.0 * r / (1.0 - u_t))
    p = np.column_stack((p_c, p_t))
    return g + alpha * dp * p * (1.0 - p)


def fd_gradients(loss_of_arrays, arrays, h=1e-5):
    """Central finite differences of a scalar loss over a flat array list."""
    grads = [np.zeros_like(a) for a in arrays]
    for ai, a in enumerate(arrays):
        flat = a.reshape(-1)
        gflat = grads[ai].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_of_arrays(arrays)
            flat[j] = orig - h
            down = loss_of_arrays(arrays)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
    return grads


def adam_ref(arrays, grads, m, v, step, learning_rate,
             beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over lists of arrays, inputs left
    untouched. `step` is the index of this update (1 for the first).
    Returns the new (arrays, m, v)."""
    new_arrays, new_m, new_v = [], [], []
    for a, g, m_a, v_a in zip(arrays, grads, m, v):
        m_a = beta1 * m_a + (1.0 - beta1) * g
        v_a = beta2 * v_a + (1.0 - beta2) * g * g
        m_hat = m_a / (1.0 - beta1**step)
        v_hat = v_a / (1.0 - beta2**step)
        new_arrays.append(a - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m_a)
        new_v.append(v_a)
    return new_arrays, new_m, new_v


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def brute_force_curve(scores, outcome, treatment, n_points):
    """Uplift curve by explicit selection at every grid fraction.

    Each arm's rows are grouped by equal score and the groups are walked
    in descending score order. Whole groups are taken while they fit;
    the group that straddles the selection size contributes its response
    sum in proportion to the rows it gives, Fraction(sum * take, size).
    Selection sizes use exact rational ceilings and each rate is the
    exact rational rounded once to float.
    """

    def groups(arm):
        by_score = {}
        for i in range(len(scores)):
            if treatment[i] == arm:
                by_score.setdefault(float(scores[i]), []).append(int(outcome[i]))
        return [by_score[s] for s in sorted(by_score, reverse=True)]

    def rate(arm_groups, m):
        total, left = Fraction(0), m
        for group in arm_groups:
            take = min(left, len(group))
            total += Fraction(sum(group) * take, len(group))
            left -= take
            if left == 0:
                break
        return float(total / m)

    groups_t, groups_c = groups(1), groups(0)
    n_t = sum(len(grp) for grp in groups_t)
    n_c = sum(len(grp) for grp in groups_c)
    g = []
    for k in range(1, n_points + 1):
        m_t = math.ceil(Fraction(k * n_t, n_points))
        m_c = math.ceil(Fraction(k * n_c, n_points))
        g.append((k / n_points) * (rate(groups_t, m_t) - rate(groups_c, m_c)))
    return g, math.fsum(g) / n_points


def ate_standard_error(ds):
    """Standard two-sample standard error of the empirical ATE."""
    y_t = ds.outcome[ds.treatment == 1].astype(np.float64)
    y_c = ds.outcome[ds.treatment == 0].astype(np.float64)
    return math.sqrt(y_t.var(ddof=1) / len(y_t) + y_c.var(ddof=1) / len(y_c))


def binary_ref(values):
    """Whether `values` is a binary column: an array of bool, integer or
    floating dtype whose every value, read as an exact Python number,
    equals 0 or 1. Any other dtype is not, even when empty."""
    v = np.asarray(values)
    return v.dtype.kind in "biuf" and all(x == 0 or x == 1 for x in v.ravel().tolist())


def replay_train(train_ds, cfg, steps):
    """The params of a clustered-bag `trainer.train(train_ds, ..., cfg)`
    run after `steps` steps, replayed without evaluation: the scaler fit
    on the training features, then per step the epoch's next batch, the
    bag-regularized loss at the batch's treated fraction (alpha from the
    first step after warm-up) and one Adam step."""
    from upliftmil import data, mil, models, nncore

    model = models.build(cfg.model, train_ds.d, cfg.hidden_sizes, cfg.seed)
    model.scaler = data.fit_scaler(train_ds.features)
    state = nncore.init_adam(model.params, cfg.learning_rate, cfg.beta1, cfg.beta2,
                             cfg.eps)
    step, epoch = 0, 0
    while step < steps:
        for batch in data.minibatches(train_ds, cfg.batch_size, cfg.seed, epoch):
            if step == steps:
                break
            step += 1
            rows = batch.indices
            t, y = train_ds.treatment[rows], train_ds.outcome[rows]
            alpha = cfg.alpha if step > cfg.resolved_warmup() else 0.0
            _, grads, _ = mil.combined_loss_and_grads(
                model, train_ds.features[rows], t, y, t.mean(), alpha, cfg.bag_size)
            nncore.adam_step(model.params, grads, state)
        epoch += 1
    return model.params
