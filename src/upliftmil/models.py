"""Two-model uplift architectures behind one interface.

Every model maps a feature batch to per-row arm logits (z_c, z_t), and
`forward_full` alone applies the sigmoid, giving the control and
treatment response probabilities (p_c, p_t) = logistic([z_c, z_t]) and
the uplift prediction p_t - p_c. The factual-arm base loss is binary
cross-entropy of z_t on treated rows plus binary cross-entropy of z_c on
control rows, each taken on the logit itself and averaged within its own
arm; gradients reach a row's counterfactual arm nowhere. `factual_loss`
is its one implementation. It reads each row's factual logit alone, the
column its treatment names, and hands those n logits to
`nncore.bce_loss` with the treatments as their arms; the counterfactual
logits enter only its non-finite check. The bag-regularized loss of
`mil` adds to its (n, 2) arm-logit gradient rather than restating it,
and `backprop_factual` routes that one array through the nets.

Architectures:

* TM: one trunk ending in two logit nodes, so all hidden layers train
  on every instance.
* TARNET: shared rectifier trunk, then one-hidden-layer logit heads per
  arm (head width = last trunk width).
* DDR: a control net on the features, and a treatment net whose input is
  the features concatenated with logistic(z_c). That input is treated
  as a constant (stop-gradient), so treated rows never push gradient
  into the control net.
* SDR: a shared logit net on the features plus per-arm private
  one-hidden-layer logit heads, with z_arm = shared + private logit.

`_layout` is the one definition of each architecture: its nets' names,
parameter order, layer sizes, inputs, and the arm logits each net's
output adds to. A net that feeds no arm is a rectifier representation
for other nets ("relu"); every other net ends in a logit ("linear").
It states the architectures and checks nothing: `UpliftModel`'s
constructor checks a model's settings once and builds the table from
them once. A model holds that table, so `buffer_set`, `forward_full`
and `backprop_factual` read it without deriving it again; the passes
walk it, forward and in reverse, and know no architecture by name.

A checkpoint (format 2) is a .npz archive of a JSON manifest
(format_version, kind, input_dim, hidden_sizes, seed, has_scaler), the
one vector `params` and, with a scaler, its mean and std; `params` must
have the length of the layout the manifest gives, and every stored value
must be finite, the std positive.

Buffers: `forward_full`, `backprop_factual` and `predict` run in a
`BufferSet`: one model-input buffer, each net's `nncore.NetBuffers` and
one gradient vector laid out like `params`, whose per-net slices the
nets' backward passes write; the passes follow `nncore`'s pass contract,
net by net, so `backprop_factual` consumes the `forward_full` pass last
run in its set. The model-input buffer is shared by every net that
reads the scaled features (TM's net, TARNet's trunk, DDR's control net
and all three SDR nets). `nncore.net_buffers` makes it, with its ones
column, in the set of the first of them and is passed it for the
others; `forward_full` scales `x` straight into its other columns, once
per pass. This module allocates no net buffer and writes no ones column:
`nncore` keeps every ones column 1.0 (its pass contract). TARNet's heads
read the trunk's output buffer, and DDR's treatment net has an input
buffer of its own, for the features and the control probability. The
gradient at the trunk's output is its heads' summed input gradients,
which `nncore.backward` takes as it takes a logit's. The caller owns
the set and makes it with `buffer_set`; `trainer.train` keeps one for a
whole run, steps and evaluations alike, and drops it on return. Called
without a set, `forward_full` and `predict` make one for the call. A set
is never an attribute of the model: a model outlives its run.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nncore
from .errors import (ConfigError, ShapeError, check_hidden_sizes, check_int, check_reals,
                     enum_member, is_int)
from .nncore import NetworkParams

CHECKPOINT_VERSION = 2

# The columns of the arm logits [z_c, z_t] that a net's output adds to.
_CONTROL, _TREATED, _BOTH = slice(0, 1), slice(1, 2), slice(0, 2)

# Rows per forward pass of `predict`: it holds one chunk's activations
# at a time, not the whole set's. 1024 is the default
# `TrainConfig.batch_size`, so a default run's one buffer set, sized for
# its batches, serves its evaluations too; 2048-row chunks scored no
# faster and doubled the set.
CHUNK = 1024


class ModelKind(str, Enum):
    TM = "tm"
    TARNET = "tarnet"
    DDR = "ddr"
    SDR = "sdr"


@dataclass
class UpliftModel:
    """An architecture's nets, all views into the one vector `params`.

    The one constructor (`build`, `load_checkpoint` and unpickling call
    it) is the one place a model's settings are checked, each once, in
    this order: `kind` a `ModelKind`, `input_dim` an integer >= 1,
    `hidden_sizes` a non-empty sequence of integers >= 1, `seed` an
    integer >= 0, and `params` of the layout's length (`ConfigError`
    naming the field). It stores the checked values (a `ModelKind`, Python
    ints and a tuple of them), builds `_layout` from them once and keeps
    it for the passes to walk, then lays `nets` out as views into
    `params`, copying no contiguous float64 vector. Without `params` the
    model holds zeros of the layout's length, which `build` fills. A
    pickle holds its arguments, so `params` once."""

    kind: ModelKind
    input_dim: int
    hidden_sizes: tuple[int, ...]
    seed: int
    params: np.ndarray | None = field(default=None, repr=False)
    scaler: tuple[np.ndarray, np.ndarray] | None = None
    nets: dict[str, NetworkParams] = field(init=False, repr=False)
    _layout: list = field(init=False, repr=False)

    def __post_init__(self):
        self.kind = enum_member(ModelKind, self.kind, "kind")
        self.input_dim = check_int("input_dim", self.input_dim)
        self.hidden_sizes = check_hidden_sizes(self.hidden_sizes)
        self.seed = check_int("seed", self.seed, 0)
        self._layout = _layout(self.kind, self.input_dim, self.hidden_sizes)
        counts = [nncore.param_count(sizes) for _, sizes, _, _ in self._layout]
        if self.params is None:
            self.params = np.zeros(sum(counts))
        params = np.ascontiguousarray(self.params, dtype=np.float64)
        if params.shape != (sum(counts),):
            shape = np.shape(self.params)
            raise ConfigError(f"'params' has shape {shape}, expected ({sum(counts)},)")
        self.params = params
        flats = np.split(params, np.cumsum(counts)[:-1])
        self.nets = {n: NetworkParams(f, s, "relu" if arms is None else "linear")
                     for (n, s, arms, _), f in zip(self._layout, flats)}

    def __reduce__(self):
        return UpliftModel, (self.kind, self.input_dim, self.hidden_sizes,
                             self.seed, self.params, self.scaler)

    def parameter_arrays(self) -> np.ndarray:
        return self.params


@dataclass
class BufferSet:
    """A model's reusable arrays, from `buffer_set`: the model-input
    buffer `inputs` (scaled features and a ones column), which is the
    `inputs` of every net that reads the features, each net's buffers
    and the one gradient vector `grad` whose slices are the nets'
    `grad`."""

    inputs: np.ndarray
    nets: dict[str, nncore.NetBuffers]
    grad: np.ndarray
    # The bytes of the scaler last used and its mean and std tiled over
    # the set's rows, for `_scale`.
    _tiled: tuple = field(default=(b"", None, None), init=False, repr=False)


def buffer_set(model: UpliftModel, rows: int) -> BufferSet:
    """A buffer set for `model`'s passes over up to `rows` rows: each
    net's `nncore.net_buffers`, reading the input buffer its `_layout`
    entry names. The first net that reads the features makes the
    model-input buffer, and the later ones share it; `nncore` writes its
    ones column, as every buffer's."""
    counts = [net.flat.size for net in model.nets.values()]
    grad = np.empty(sum(counts))
    slices = np.split(grad, np.cumsum(counts)[:-1])
    nets: dict[str, nncore.NetBuffers] = {}
    reads: dict[str, np.ndarray] = {}  # the buffer each input name is read from
    for (name, sizes, _, source), g in zip(model._layout, slices):
        nets[name] = nncore.net_buffers(sizes, rows, g, reads.get(source))
        if source == "x":
            reads.setdefault("x", nets[name].inputs)
        reads[name] = nets[name].activations[-1]
    return BufferSet(reads["x"], nets, grad)


@dataclass
class ModelOutputs:
    """Per-row probabilities and the uplift vector of a forward pass, and
    the (n, 2) arm logits [z_c, z_t] they come from."""

    p_t: np.ndarray
    p_c: np.ndarray
    uplift: np.ndarray
    logits: np.ndarray


def _layout(
    kind: ModelKind, input_dim: int, hidden_sizes: tuple[int, ...]
) -> list[tuple[str, tuple, slice | None, str | None]]:
    """The nets of an architecture as (name, layer_sizes, arms, input), in
    parameter order: the one place that knows each kind's shape and wiring.
    It is a table and checks nothing: `UpliftModel`, its one caller, passes
    it settings it has checked.

    `arms` are the columns of the arm logits [z_c, z_t] that the net's
    output adds to (a one-unit net feeding both adds its logit to each),
    or None for a rectifier representation ("relu") that other nets
    read; every other net ends in a logit ("linear"). `input` is "x" for
    a net that reads the scaled features, another net's name for one
    that reads that net's output, and None for one whose input is its
    own: the features and the logistic of the control logit of the nets
    before it, a constant (stop-gradient)."""
    last = hidden_sizes[-1]
    if kind is ModelKind.TM:
        return [("net", (input_dim, *hidden_sizes, 2), _BOTH, "x")]
    if kind is ModelKind.TARNET:
        return [
            ("trunk", (input_dim, *hidden_sizes), None, "x"),
            ("head_c", (last, last, 1), _CONTROL, "trunk"),
            ("head_t", (last, last, 1), _TREATED, "trunk"),
        ]
    if kind is ModelKind.DDR:
        return [
            ("control", (input_dim, *hidden_sizes, 1), _CONTROL, "x"),
            ("treatment", (input_dim + 1, *hidden_sizes, 1), _TREATED, None),
        ]
    return [  # SDR: each arm's logit is the shared one plus its private one.
        ("shared", (input_dim, *hidden_sizes, 1), _BOTH, "x"),
        ("private_c", (input_dim, last, 1), _CONTROL, "x"),
        ("private_t", (input_dim, last, 1), _TREATED, "x"),
    ]


def build(kind, input_dim: int, hidden_sizes, seed: int) -> UpliftModel:
    """A model of the given kind with freshly drawn weights; deterministic
    for a fixed seed. `UpliftModel` checks the arguments and lays the
    model out over a zero `params`; `build` then fills each net's slice
    with `nncore.init_network`'s draw for that net."""
    model = UpliftModel(kind, input_dim, hidden_sizes, seed)
    # Per-net seeds derive from (seed, index) so nets are independent but
    # the whole model is reproducible from one integer.
    for i, net in enumerate(model.nets.values()):
        net.flat[...] = nncore.init_network(net.layer_sizes, [model.seed, i]).flat
    return model


def _check_input(model: UpliftModel, x: np.ndarray) -> np.ndarray:
    x = check_reals("x", x)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"expected input of shape (n, {model.input_dim}), got {x.shape}"
        )
    return x


def _scale(model: UpliftModel, x: np.ndarray, buffers: BufferSet) -> np.ndarray:
    """The model's scaled features (x - mean) / std, or `x` itself
    without a scaler, written into the set's model-input buffer.

    The arithmetic runs over `x` as one flat vector, against the mean and
    std tiled over the set's rows (tiled again whenever the scaler's bytes
    change), then one copy fills the buffer: each value takes the same two
    operations as in the row-wise form, so the bits are the same, but no
    loop runs over 6-value rows or writes a strided buffer row by row.
    A scaler is checked whenever it is tiled, since it is mostly assigned
    (`model.scaler = ...`): a mean and std that are not two finite
    vectors of `input_dim` values with std > 0 raise ConfigError naming
    'scaler', where they would score NaN rows or fail inside numpy.
    """
    out = nncore.first_rows(buffers.inputs, len(x))[:, :-1]
    if model.scaler is None:
        np.copyto(out, x)
        return out
    mean, std = model.scaler
    key = mean.tobytes() + std.tobytes()
    if buffers._tiled[0] != key:
        if not (mean.shape == std.shape == (model.input_dim,) and np.isfinite(mean).all()
                and np.isfinite(std).all() and (std > 0).all()):
            raise ConfigError(f"'scaler' must be two finite vectors of {model.input_dim} "
                              f"values with std > 0, got shapes {mean.shape} and {std.shape}")
        shape = buffers.inputs[:, :-1].shape
        buffers._tiled = (key, *(np.broadcast_to(v, shape).ravel() for v in (mean, std)))
    _, means, stds = buffers._tiled
    flat = np.subtract(x.reshape(-1), means[: x.size])
    np.divide(flat, stds[: x.size], out=flat)
    np.copyto(out, flat.reshape(x.shape))
    return out


def forward_full(
    model: UpliftModel, x: np.ndarray, buffers: BufferSet | None = None
) -> ModelOutputs:
    """Forward pass of every net in `buffers` (a fresh set when none is
    given), which keeps what `backprop_factual` needs; the (n, 2) arm
    logits [z_c, z_t] go through the model's one logistic."""
    x = _check_input(model, x)
    n = len(x)
    if buffers is None:
        buffers = buffer_set(model, n)
    outputs = {"x": _scale(model, x, buffers)}
    z = np.zeros((n, 2))
    for name, _, arms, source in model._layout:
        inputs = outputs.get(source)
        if inputs is None:  # its own input: the features and p_c
            inputs = nncore.first_rows(buffers.nets[name].inputs, n)[:, :-1]
            inputs[:, :-1] = outputs["x"]
            inputs[:, -1:] = nncore.logistic(z[:, :1])
        outputs[name] = nncore.forward(model.nets[name], inputs, buffers.nets[name])
        if arms is not None:
            z[:, arms] += outputs[name]
    p_c, p_t = nncore.logistic(z).T
    return ModelOutputs(p_t=p_t, p_c=p_c, uplift=p_t - p_c, logits=z)


def predict(model: UpliftModel, x: np.ndarray, buffers: BufferSet | None = None):
    """Per-row (p_t, p_c, uplift) with uplift = p_t - p_c exactly.

    Scores `CHUNK` rows at a time, whoever calls it, so its bits do not
    depend on the caller. The chunks run in `buffers`, which must hold
    `CHUNK` rows (or all of a smaller `x`); the caller owns them, and
    they hold no result once this returns. Called alone, it makes one
    set for the whole call. Each chunk is scaled into the set's
    model-input buffer, next to its column of ones, and every net reading
    the features runs on that one copy. Beyond the three output vectors,
    its memory is that set, whatever the number of rows: inputs and
    activations one column wider than their layers, and a gradient
    vector and input-gradient arrays that no pass of `predict` writes.
    """
    x = _check_input(model, x)
    n = x.shape[0]
    if buffers is None:
        buffers = buffer_set(model, min(CHUNK, max(n, 1)))
    p_t, p_c, uplift = np.empty(n), np.empty(n), np.empty(n)
    for s in range(0, n, CHUNK):
        out = forward_full(model, x[s : s + CHUNK], buffers)
        p_t[s : s + CHUNK], p_c[s : s + CHUNK] = out.p_t, out.p_c
        uplift[s : s + CHUNK] = out.uplift
    return p_t, p_c, uplift


def backprop_factual(model: UpliftModel, g: np.ndarray,
                     buffers: BufferSet) -> np.ndarray:
    """Route the (n, 2) arm-logit gradient `g` through the architecture,
    consuming the `forward_full` pass last run in `buffers`.

    g[i] is the loss gradient at row i's arm logits [z_c, z_t], laid out
    like `ModelOutputs.logits` (zero where an arm takes no gradient).
    Returns `buffers.grad`, aligned with `model.params`: each net's
    backward pass writes its own slice.
    """
    d_reads: dict[str, np.ndarray] = {}
    for name, _, arms, source in reversed(model._layout):
        net, bufs = model.nets[name], buffers.nets[name]
        # A representation takes its readers' summed input gradients.
        d_out = d_reads[name] if arms is None else g[:, arms]
        if d_out.shape[1] > net.layer_sizes[-1]:  # one logit for both arms
            d_out = d_out[:, :1] + d_out[:, 1:]
        # No input gradient for the features or an input of its own; a
        # reader adds the sum of the readers after it into its own.
        d_in = nncore.backward(net, bufs, d_out, input_grad=source in model.nets)[1]
        if d_in is not None:
            d_reads[source] = np.add(d_in, d_reads.get(source, 0.0), out=d_in)
    return buffers.grad


def factual_loss(out: ModelOutputs, treatment, outcome):
    """The base loss: factual-arm cross-entropy of a forward pass's logits.

    Returns (l_base, g), with g the (n, 2) arm-logit gradient
    `backprop_factual` takes: column 0 for the control arm, nonzero on
    control rows only, column 1 for the treatment arm on treated rows.
    Each arm's cross-entropy is averaged over that arm's rows and the two
    arm losses are summed; a batch with an empty arm contributes zero for
    that arm.

    A row's treatment (0 or 1) is its column in `out.logits`: the n
    factual logits go to `nncore.bce_loss`, and the loss's per-row
    derivative is scattered into a zeroed g. A non-finite logit in either
    column (a diverged net) makes l_base NaN, so no counterfactual logit
    can diverge unseen.
    """
    arms = np.asarray(treatment).astype(np.intp)
    rows = np.arange(len(arms))
    l_base, grad = nncore.bce_loss(out.logits[rows, arms], outcome, arms)
    g = np.zeros_like(out.logits)
    g[rows, arms] = grad
    if not np.isfinite(out.logits).all():
        l_base = float("nan")
    return l_base, g


def base_loss_and_grads(model: UpliftModel, x, treatment, outcome):
    """The base loss and its parameter gradients; returns (loss, grads,
    outputs)."""
    buffers = buffer_set(model, len(x))
    out = forward_full(model, x, buffers)
    loss, g = factual_loss(out, treatment, outcome)
    return loss, backprop_factual(model, g, buffers), out


def set_parameter_arrays(model: UpliftModel, values: np.ndarray) -> None:
    """Copy a parameter vector (as from `clone_parameter_arrays`) in."""
    if values.shape != model.params.shape:
        raise ShapeError(f"expected {model.params.shape} values, got {values.shape}")
    np.copyto(model.params, values)


def clone_parameter_arrays(model: UpliftModel) -> np.ndarray:
    return model.params.copy()


def save_checkpoint(model: UpliftModel, path) -> None:
    """Write the manifest, the parameter vector and the scaler to a .npz
    archive (checkpoint format 2) at `path` itself, whatever its suffix."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind.value,
        "input_dim": model.input_dim,
        "hidden_sizes": list(model.hidden_sizes),
        "seed": model.seed,
        "has_scaler": model.scaler is not None,
    }
    arrays = {"params": model.params}
    if model.scaler is not None:
        arrays["scaler.mean"], arrays["scaler.std"] = model.scaler
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(manifest)), **arrays)


def _read(archive, key: str, shape=None) -> np.ndarray:
    """Checkpoint member `key` as float64, read once; ConfigError naming
    it if it is missing, holds a value that is not finite or, given a
    `shape`, has another shape."""
    if key not in archive:
        raise ConfigError(f"checkpoint member {key!r} is missing")
    value = archive[key].astype(np.float64, copy=False)
    if shape is not None and value.shape != shape:
        raise ConfigError(
            f"checkpoint member {key!r} has shape {value.shape}, expected {shape}"
        )
    if not np.isfinite(value).all():
        raise ConfigError(f"checkpoint member {key!r} holds a value that is not finite")
    return value


def _entry(manifest: dict, key: str):
    """manifest[key] of a checkpoint, or ConfigError naming it."""
    if not isinstance(manifest, dict) or key not in manifest:
        raise ConfigError(f"checkpoint manifest has no entry {key!r}")
    return manifest[key]


def _archive(fh, path) -> np.lib.npyio.NpzFile:
    """The .npz archive in the open file `fh`, or ConfigError naming
    `path`. The caller closes `fh`, which `np.load` of a path leaves open
    when the archive is truncated."""
    try:
        archive = np.load(fh)
    except (ValueError, EOFError, zipfile.BadZipFile):  # text, empty or truncated
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):  # or a single .npy array
        raise ConfigError(f"{path} is not a checkpoint: not an .npz archive")
    return archive


def load_checkpoint(path) -> UpliftModel:
    """Read a format-2 checkpoint. The model is laid out from the
    manifest over the stored `params`; no weights are drawn. Every
    stored value must be finite, and the scaler's std positive. A
    manifest that is not JSON, or whose entries are missing or of the
    wrong type, raises ConfigError, and so does a file that is no .npz
    archive (text, an .npy array, a truncated archive); a missing file
    raises FileNotFoundError."""
    with open(path, "rb") as fh, _archive(fh, path) as archive:
        if "manifest" not in archive:
            raise ConfigError("checkpoint member 'manifest' is missing")
        try:
            manifest = json.loads(str(archive["manifest"]))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"checkpoint manifest is not JSON: {exc}") from None
        version = _entry(manifest, "format_version")
        if version != CHECKPOINT_VERSION or not is_int(version):
            raise ConfigError(f"checkpoint format {version} not supported")
        args = [_entry(manifest, k) for k in ("kind", "input_dim", "hidden_sizes")]
        model = UpliftModel(*args, _entry(manifest, "seed"), _read(archive, "params"))
        has_scaler = _entry(manifest, "has_scaler")
        if not isinstance(has_scaler, bool):
            raise ConfigError(f"'has_scaler' must be true or false, got {has_scaler!r}")
        if has_scaler:
            model.scaler = tuple(_read(archive, k, (model.input_dim,))
                                 for k in ("scaler.mean", "scaler.std"))
            if not (model.scaler[1] > 0).all():
                raise ConfigError("checkpoint member 'scaler.std' must be > 0")
    return model
