"""Minimal dense feedforward network machinery.

Everything needed to train the uplift models lives here: parameter
vectors cut into per-layer views, a forward pass that keeps each
layer's activation (not its pre-activation), exact reverse-mode
backpropagation into one gradient vector, bias-corrected Adam updates
in place, and masked binary cross-entropy. All arithmetic is float64;
batches are row-major (batch x features) numpy arrays.

Affine layers: `flat` holds each layer as W (fan_in x fan_out) then b,
so the (fan_in + 1) x fan_out block [W; b] is one contiguous view
(`layer_blocks`). Every layer input carries a trailing column of ones,
which makes a layer one matrix product against its block, forward and
backward: the bias is the product's last term and its gradient the
last row of the block's gradient.

Buffers: `forward` and `backward` run in the `NetBuffers` their caller
passes, using the first n rows of each array for a pass over n rows. A
set is complete when `net_buffers` makes it: besides the input,
activation and gradient arrays it holds the gradient's layer blocks, the
input gradient's array and the rectifier's zero operand, a read-only
mapping of zeros that never becomes resident. So of a batch's size a
pass allocates only the rectifier mask, a transient boolean array, and
no pass replaces an array of the set. The input buffer and every
activation buffer have one column more than their layer's width, and
that column reads 1.0 in every row between passes: `net_buffers` writes
it once, when it makes the set, and the one pass that borrows it,
`backward`, writes it back (the pass contract below). `forward` writes
no ones column. It copies its input into the input buffer's other
columns (numpy skips the copy when the input is that very view, as for
an input a caller wrote there or the output of another net that shares
the buffer) and writes each layer's product into its activation's other
columns; a rectifier keeps the ones column, as max(1, 0) = 1.

A buffer that several nets read, such as a model's input buffer or a
representation net's output, is made with one net's set and passed to
`net_buffers` for the others, so each buffer's ones column has one
writer, the set that made it.

The pass contract: a set of r rows takes forward and backward passes
over up to r rows. A backward pass consumes the forward pass last run in
its set: it writes each hidden delta, whose last column is scratch, over
the activation it differentiates, ones column included, and writes 1.0
back into that column before it moves to the next layer. A rectifier
output's masked gradient goes over the output activation, whose ones
column it leaves alone. The set records the row count of the pass it
may differentiate, and `backward` raises ShapeError for an output
gradient of other rows or width, for a set whose pass is consumed or
never ran, or for a set laid out for another net. The input gradient has an array of its own, since other nets may
read the input buffer. The caller owns the set: the returned outputs
(the final activations without their ones column), gradient and input
gradient are views into it, valid until its next pass of the same kind.
`adam_step` works through the vector in blocks of `ADAM_BLOCK` values,
with scratch kept in its `AdamState`.

A net ends in "linear" (a logit) or "relu" (a representation for
further nets), never in a sigmoid: `models.forward_full` alone applies
`logistic`, to the arm logits. Gradient convention: `backward` consumes
the gradient of the scalar loss with respect to the outputs that
`forward` returned, for either output activation. For a linear output
that is the final pre-activation gradient already; for a rectifier
output `backward` masks it with `output_grad_to_preact`, writing over
the output activation, which the pass consumes. Cross-entropy is taken
on the logits themselves: `bce_loss` reports softplus(z) - y * z and
returns its exact derivative (logistic(z) - y) / n, with no probability
in between to round off or clamp.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, check_int, is_int, is_real

_ACTIVATIONS = ("linear", "relu")

# Values per block of `adam_step`: its two scratch vectors and the four
# blocks it reads stay in cache.
ADAM_BLOCK = 16_384

@dataclass(frozen=True)
class NetworkParams:
    """Weights and biases of a dense net, one (in x out) matrix per layer.

    Hidden layers use the rectifier; the final layer's activation is
    `output_activation` ("linear" for logit heads, "relu" for shared
    representation trunks).

    `blocks` are the layers' [W; b] views into `flat` cut by
    `layer_sizes`; `weights` and `biases` are views of the blocks (all
    rows but the last, and the last). All are in tuples so none can be
    rebound and detached: write them in place.
    """

    flat: np.ndarray
    layer_sizes: tuple[int, ...]
    output_activation: str = "linear"
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.output_activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        blocks = layer_blocks(self.flat, self.layer_sizes)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "weights", tuple(b[:-1] for b in blocks))
        object.__setattr__(self, "biases", tuple(b[-1] for b in blocks))

    @property
    def n_layers(self) -> int:
        return len(self.blocks)


@dataclass
class NetBuffers:
    """Reusable arrays for one net's passes over up to the activations'
    length in rows.

    `inputs` holds the net's input and `activations[k]` layer k's output,
    each with a last column of ones (rows x width + 1); other nets may
    share `inputs`. `grad` is the vector the parameter gradient is
    written to, laid out like the net's `flat`, and `grad_blocks` its
    layers' [W; b] views (`layer_blocks`). `input_grad` holds the input
    gradient, in as many rows as the set, one column wider than the
    input with the last column scratch. `zeros` is the rectifier's
    second operand, read-only zeros as long as the largest activation
    buffer (at least one value). All of them are made with the set and
    kept for its life. `rows` is the row count of the forward pass that
    `backward` may differentiate, None before the first and once a
    backward pass consumed it. Activations hold no pre-activations,
    since a rectifier passes gradient where `relu(z) > 0`, which equals
    `z > 0` (NaN and exact zero included), and a linear output needs
    none.
    """

    inputs: np.ndarray
    activations: tuple[np.ndarray, ...]
    grad: np.ndarray
    grad_blocks: tuple[np.ndarray, ...]
    input_grad: np.ndarray
    zeros: np.ndarray
    rows: int | None = None


@dataclass
class AdamState:
    """First/second moment vectors plus the step counter, and two
    block-sized scratch vectors for `adam_step`."""

    m: np.ndarray
    v: np.ndarray
    step: int
    learning_rate: float
    beta1: float
    beta2: float
    eps: float
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2, min(ADAM_BLOCK, self.m.size)))


def logistic(z: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid: 1 / (1 + e) for z >= 0 and e / (1 + e)
    below, with e = exp(-|z|), formed as exp(min(z, -z)) so a NaN keeps
    its sign. It reaches 0 and 1 exactly where the logit saturates."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def param_count(layer_sizes) -> int:
    """Length of the parameter vector of a dense net with these sizes."""
    return sum((i + 1) * o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def layer_blocks(flat: np.ndarray, layer_sizes) -> tuple[np.ndarray, ...]:
    """The (fan_in + 1) x fan_out block [W; b] of every layer of a dense
    net, as views into the vector `flat`, which holds W0, b0, W1, b1, ...
    back to back."""
    if flat.shape != (param_count(layer_sizes),):
        raise ShapeError(f"{flat.shape} does not hold a net of sizes {layer_sizes}")
    blocks, pos = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        size = (fan_in + 1) * fan_out
        blocks.append(flat[pos : pos + size].reshape(fan_in + 1, fan_out))
        pos += size
    return tuple(blocks)


def init_network(layer_sizes, seed, output_activation: str = "linear") -> NetworkParams:
    """Build a network with fan-in-scaled zero-mean weights and zero biases.

    Weights are drawn N(0, 2/fan_in), the standard scaling for rectifier
    units. Deterministic for a fixed seed: an integer >= 0 or a list or
    tuple of them (`models.build` passes [seed, net index]), else a
    ConfigError naming it.
    """
    if not (is_int(seed, 0) or (isinstance(seed, (list, tuple)) and seed
                                and all(is_int(s, 0) for s in seed))):
        raise ConfigError(
            f"'seed' must be an integer >= 0 or a sequence of them, got {seed!r}")
    sizes = tuple(layer_sizes)
    if len(sizes) < 2:
        raise ConfigError(f"need at least 2 layer sizes, got {sizes}")
    sizes = tuple(check_int(f"layer_sizes[{k}]", s) for k, s in enumerate(sizes))
    rng = np.random.default_rng(seed)
    net = NetworkParams(np.zeros(param_count(sizes)), sizes, output_activation)
    for w in net.weights:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
    return net


def _rows(n: int, widths) -> tuple[np.ndarray, ...]:
    """Arrays of n rows, one column wider than each width: room for the
    ones column of an input or activation, or a delta's scratch column."""
    return tuple(np.empty((n, w + 1)) for w in widths)


def net_buffers(
    layer_sizes, rows: int, grad: np.ndarray, inputs: np.ndarray | None = None
) -> NetBuffers:
    """The complete set for passes of a net with these sizes over up to
    `rows` rows, whose backward passes write the parameter gradient to
    `grad` (ShapeError unless it has the net's `flat` length). `inputs`
    is an input buffer of `rows` x (input width + 1) that another net's
    set made, for nets that read one input; None makes a fresh one. The
    gradient's layer blocks, the input gradient's array of `rows` rows
    and the zero operand are made here, and no pass replaces them. The
    last column of every buffer made here, the input buffer when
    `inputs` is None and each activation buffer, is written 1.0 here,
    once (a shared input buffer's was written by the set that made it):
    the passes keep it so (see the module's pass contract)."""
    sizes = tuple(layer_sizes)
    if inputs is None:
        (inputs,) = _rows(rows, sizes[:1])
        inputs[:, -1] = 1.0
    elif inputs.shape != (rows, sizes[0] + 1):
        raise ShapeError(f"input buffer of shape {inputs.shape} does not take "
                         f"{rows} rows of {sizes[0]} inputs and a ones column")
    activations = _rows(rows, sizes[1:])
    for a in activations:
        a[:, -1] = 1.0
    # The rectifier's second operand. max(a, 0) against zeros of a's own
    # shape runs numpy's contiguous two-array loop: 13 us at (1024, 65),
    # against 25 us for the scalar 0.0, while 0-d, one-element and row
    # operands, `clip` and `fmax` all took 25-37 us. The zeros are a
    # private read-only anonymous mapping, of at least one value since
    # mmap maps no empty length: reads map the kernel's one zero page, so
    # they never become resident, and no write can reach them.
    size = 8 * max(1, *(a.size for a in activations))
    zeros = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE, prot=mmap.PROT_READ)
    return NetBuffers(inputs, activations, grad, layer_blocks(grad, sizes),
                      *_rows(rows, sizes[:1]), np.frombuffer(zeros, dtype=np.float64))


def first_rows(buffer: np.ndarray, n: int) -> np.ndarray:
    """The first n rows of a buffer, where a pass over n rows works."""
    if n > len(buffer):
        raise ShapeError(f"a pass over {n} rows does not fit buffers of {len(buffer)}")
    return buffer[:n]


def forward(params: NetworkParams, x: np.ndarray, buffers: NetBuffers) -> np.ndarray:
    """Run the net on a batch in `buffers` and return its outputs, a view
    into them; the set records the pass for `backward`. `x` is copied
    into the input buffer unless it is already the view of it. No ones
    column is written: every buffer's already reads 1.0 (`net_buffers`)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected 2-D input, got shape {x.shape}")
    if x.shape[1] != params.weights[0].shape[0]:
        raise ShapeError(
            f"input has {x.shape[1]} columns, network expects "
            f"{params.weights[0].shape[0]}"
        )
    n = x.shape[0]
    a = first_rows(buffers.inputs, n)
    buffers.rows = None  # until the pass is whole
    np.copyto(a[:, :-1], x)
    last = params.n_layers - 1
    for k, block in enumerate(params.blocks):
        out = first_rows(buffers.activations[k], n)
        np.matmul(a, block, out=out[:, :-1])
        if k < last or params.output_activation == "relu":
            np.maximum(out, buffers.zeros[: out.size].reshape(out.shape), out=out)
        a = out
    buffers.rows = n
    return a[:, :-1]


def backward(
    params: NetworkParams,
    buffers: NetBuffers,
    output_grad: np.ndarray,
    *,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact reverse-mode gradients of the forward pass last run in
    `buffers`, which this pass consumes, for a loss whose gradient with
    respect to the outputs `forward` returned is `output_grad`, one row
    per row of that pass. For a rectifier output, `output_grad_to_preact`
    masks it, writing over the output activation but not its ones
    column; a linear output's gradient is its pre-activation gradient,
    taken as it is. `output_grad` itself is never written.

    Returns (grad, input_grad) where grad is `buffers.grad`, laid out
    like `params.flat`, and input_grad is the gradient with respect to the
    batch input (a view into `buffers.input_grad`), or None when
    `input_grad=False` asks not to form it. Both are written into arrays
    the set has held since `net_buffers` made it, the gradient through its
    `grad_blocks`; the pass allocates only the rectifier mask.

    Each layer's block gradient is one product, input.T @ delta, and the
    gradient at its input one more, delta @ block.T over the augmented
    width, whose last column is scratch: the rectifier mask then runs
    over whole contiguous rows, two to three times faster than over rows
    that skip the input's ones column. The mask is taken from the
    activation before that product overwrites it, and the column is set
    to 1.0 again right after the mask multiply, in the same layer's step:
    later steps read only the delta's other columns, and the set's ones
    columns read 1.0 whenever no pass is running.

    The input-gradient product of a one-unit layer (delta of one column,
    K = 1) takes `np.dot`, every other one `np.matmul`. Each value of a
    K = 1 product is one multiplication, so the two give the same bits,
    but `np.matmul` hands that shape to OpenBLAS's general GEMM: (1024, 1)
    by (1, 33) takes 51-103 us there and 20-23 us in `np.dot` (OpenBLAS
    0.3.31, 2 cores), while at K = 2 `np.matmul` takes 15-21 us, faster
    than `np.dot`.
    """
    output_grad = np.asarray(output_grad, dtype=np.float64)
    widths = tuple(a.shape[1] - 1 for a in (buffers.inputs, *buffers.activations))
    if widths != params.layer_sizes:
        raise ShapeError(f"buffers of widths {widths} do not fit a net of sizes "
                         f"{params.layer_sizes}")
    n = buffers.rows
    if output_grad.shape != (n, widths[-1]):
        raise ShapeError(
            f"output_grad shape {output_grad.shape} does not match {(n, widths[-1])}, "
            "the outputs of the set's last forward pass (None rows: none to consume)"
        )
    grad_blocks = buffers.grad_blocks
    delta = output_grad
    if params.output_activation == "relu":  # masked over the outputs it consumes
        delta = output_grad_to_preact(params, buffers, output_grad,
                                      out=buffers.activations[-1][:n, :-1])
    buffers.rows = None
    for k in range(params.n_layers - 1, 0, -1):
        a_prev = buffers.activations[k - 1][:n]
        np.matmul(a_prev.T, delta, out=grad_blocks[k])
        mask = a_prev > 0
        _times_transpose(delta, params.blocks[k], a_prev)
        a_prev *= mask
        a_prev[:, -1] = 1.0  # scratch back to the ones column
        del mask  # freed before the next layer makes its own
        delta = a_prev[:, :-1]
    np.matmul(buffers.inputs[:n].T, delta, out=grad_blocks[0])
    if not input_grad:
        return buffers.grad, None
    d_in = buffers.input_grad[:n]
    _times_transpose(delta, params.blocks[0], d_in)
    return buffers.grad, d_in[:, :-1]


def _times_transpose(delta: np.ndarray, block: np.ndarray, out: np.ndarray) -> None:
    """delta @ block.T into `out`, the gradient at a layer's input; by
    `np.dot` for a one-unit layer (see `backward`)."""
    if delta.shape[1] == 1:
        np.dot(delta, block.T, out=out)
    else:
        np.matmul(delta, block.T, out=out)


def output_grad_to_preact(
    params: NetworkParams,
    buffers: NetBuffers,
    grad_outputs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The gradient at the final layer's pre-activations of the forward
    pass last run in `buffers`, from `grad_outputs`, the gradient at its
    outputs: for a rectifier output, masked where the output is not
    positive and written to `out` (`grad_outputs` itself may be it, and
    `backward` passes the output activation it consumes); for a linear
    output, `grad_outputs` itself, with `out` unwritten. `backward`
    calls it for a rectifier output."""
    if params.output_activation == "relu":
        outputs = buffers.activations[-1][: buffers.rows, :-1]
        return np.multiply(grad_outputs, outputs > 0, out=out)
    return grad_outputs


def init_adam(
    params: np.ndarray,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Zero moments for `params` and Adam's settings; ConfigError naming
    a setting that is not a finite number in its range."""
    bounds = (("learning_rate", learning_rate, np.inf), ("beta1", beta1, 1.0),
              ("beta2", beta2, 1.0), ("eps", eps, np.inf))
    for name, value, high in bounds:
        if not (is_real(value) and 0.0 < value < high):
            raise ConfigError(
                f"{name!r} must be a finite number in (0, {high}), got {value!r}")
    m, v = np.zeros_like(params), np.zeros_like(params)
    return AdamState(m, v, 0, learning_rate, beta1, beta2, eps)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of the vectors `params`, `state.m`
    and `state.v`, all in place, one block of `ADAM_BLOCK` values at a
    time; returns the same (params, state)."""
    if not (params.shape == grads.shape == state.m.shape) or params.ndim != 1:
        raise ShapeError(
            f"shapes differ or are not vectors: params {params.shape}, "
            f"grads {grads.shape}, moments {state.m.shape}"
        )
    state.step += 1
    t, b1, b2 = state.step, state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    # lr * m_hat / (sqrt(v_hat) + eps) one operation at a time, in order.
    for lo in range(0, params.size, ADAM_BLOCK):
        g = grads[lo : lo + ADAM_BLOCK]
        m, v = state.m[lo : lo + ADAM_BLOCK], state.v[lo : lo + ADAM_BLOCK]
        s, u = state.scratch[:, : g.size]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        np.multiply(1.0 - b2, g, out=s)
        s *= g
        v += s
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += state.eps
        np.divide(m, c1, out=u)
        u *= state.learning_rate
        u /= s
        params[lo : lo + ADAM_BLOCK] -= u
    return params, state


def bce_loss(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of logits over mask=1 entries, taken per
    column: softplus(z) - y * z, with softplus(z) = max(z, 0) +
    log1p(exp(-|z|)), averaged over each column's own selected entries
    and summed over columns (a 1-D input is one column).

    Returns (loss, grad) with grad its exact derivative at the logits:
    (logistic(z) - y) / n_selected on selected entries, zero elsewhere.
    A column with an empty mask contributes zero loss and zero gradient;
    callers flag that case themselves.
    """
    z, y, m = (np.asarray(a, dtype=np.float64) for a in (logits, labels, mask))
    if not (z.shape == y.shape == m.shape):
        raise ShapeError(f"length mismatch: logits {z.shape}, labels {y.shape}, "
                         f"mask {m.shape}")
    n_sel = np.maximum(m.sum(axis=0), 1.0)  # an empty column's terms are all 0
    nll = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.sum((nll * m).sum(axis=0) / n_sel))
    grad = m * (logistic(z) - y) / n_sel
    return loss, grad
