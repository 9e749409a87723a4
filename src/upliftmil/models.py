"""Two-model uplift architectures behind one interface.

Every model maps a feature batch to per-row treatment and control
response probabilities (p_t, p_c) and the uplift prediction p_t - p_c.
The factual-arm base loss is binary cross-entropy of p_t on treated rows
plus binary cross-entropy of p_c on control rows, each averaged within
its own arm; gradients reach a row's counterfactual arm nowhere.
`factual_loss` is its one implementation: the bag-regularized loss of
`mil` adds to it rather than restating it.

Architectures:

* TM: one trunk ending in two logistic output nodes (p_c, p_t), so all
  hidden layers train on every instance.
* TARNET: shared rectifier trunk, then one-hidden-layer logistic heads
  per arm (head width = last trunk width).
* DDR: a control net on the features, and a treatment net whose input is
  the features concatenated with the control prediction. The fed-in
  control prediction is treated as a constant (stop-gradient), so
  treated rows never push gradient into the control net.
* SDR: the two arms share part of their output: a shared logit net on
  the features plus per-arm private one-hidden-layer logit heads, with
  p_arm = logistic(shared logit + private logit).

`_layout` is the one definition of each architecture: its nets' names,
parameter order, layer sizes and output activations. A checkpoint
(format 2) is a .npz archive of a JSON manifest (format_version, kind,
input_dim, hidden_sizes, seed, has_scaler), the one vector `params` and,
with a scaler, its mean and std; `params` must have the length of the
layout the manifest gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nncore
from .errors import ConfigError, ShapeError
from .nncore import ForwardCache, NetworkParams

CHECKPOINT_VERSION = 2

# Rows per forward pass in `predict`: it holds one chunk's activations
# at a time, not the whole set's.
CHUNK = 2048


class ModelKind(str, Enum):
    TM = "tm"
    TARNET = "tarnet"
    DDR = "ddr"
    SDR = "sdr"


@dataclass
class UpliftModel:
    """An architecture's nets, all views into the one vector `params`. The
    constructor copies the given nets' values into `params` (back to back
    in the order of `nets`) and replaces each net by views into its slice."""

    kind: ModelKind
    input_dim: int
    hidden_sizes: tuple[int, ...]
    seed: int
    nets: dict[str, NetworkParams]
    scaler: tuple[np.ndarray, np.ndarray] | None = None
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.concatenate([net.flat for net in self.nets.values()])
        views, pos = {}, 0
        for name, net in self.nets.items():
            flat = self.params[pos : pos + net.flat.size]
            views[name] = NetworkParams(flat, net.layer_sizes, net.output_activation)
            pos += flat.size
        self.nets = views

    def __setstate__(self, state):
        # Pickle copies each view on its own (as when repeat_runs returns a
        # model from a worker process): join them into one vector again.
        self.__dict__.update(state)
        self.__post_init__()

    def net_names(self) -> tuple[str, ...]:
        return tuple(self.nets)

    def parameter_arrays(self) -> np.ndarray:
        return self.params


@dataclass
class ModelOutputs:
    """Per-row probabilities, the uplift vector, and each net's backward
    cache (its input and activations) for `backprop_factual`."""

    p_t: np.ndarray
    p_c: np.ndarray
    uplift: np.ndarray
    caches: dict[str, ForwardCache]


def _model_kind(value) -> ModelKind:
    try:
        return ModelKind(value)
    except ValueError:
        raise ConfigError(f"unknown model kind {value!r}")


def _is_size(v) -> bool:
    """A positive integer; bool, float and str values are not sizes."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0


def _layout(kind: ModelKind, input_dim, hidden_sizes) -> list[tuple[str, tuple, str]]:
    """The nets of an architecture as (name, layer_sizes, output_activation),
    in parameter order: the one place that knows each kind's shape."""
    if not _is_size(input_dim):
        raise ConfigError(f"input_dim must be a positive integer, got {input_dim!r}")
    try:
        hidden = tuple(hidden_sizes)
    except TypeError:
        hidden = ()
    if not hidden or not all(map(_is_size, hidden)):
        raise ConfigError(
            f"hidden_sizes must be positive integers, got {hidden_sizes!r}"
        )
    last = hidden[-1]
    if kind is ModelKind.TM:
        return [("net", (input_dim, *hidden, 2), "logistic")]
    if kind is ModelKind.TARNET:
        return [
            ("trunk", (input_dim, *hidden), "relu"),
            ("head_c", (last, last, 1), "logistic"),
            ("head_t", (last, last, 1), "logistic"),
        ]
    if kind is ModelKind.DDR:
        return [
            ("control", (input_dim, *hidden, 1), "logistic"),
            ("treatment", (input_dim + 1, *hidden, 1), "logistic"),
        ]
    return [  # SDR
        ("shared", (input_dim, *hidden, 1), "linear"),
        ("private_c", (input_dim, last, 1), "linear"),
        ("private_t", (input_dim, last, 1), "linear"),
    ]


def build(kind, input_dim: int, hidden_sizes, seed: int) -> UpliftModel:
    """Wire a model of the given kind; deterministic for a fixed seed."""
    kind = _model_kind(kind)
    layout = _layout(kind, input_dim, hidden_sizes)
    # Per-net seeds derive from (seed, index) so nets are independent but
    # the whole model is reproducible from one integer.
    nets = {
        name: nncore.init_network(sizes, [int(seed), i], activation)
        for i, (name, sizes, activation) in enumerate(layout)
    }
    hidden = tuple(int(h) for h in hidden_sizes)
    return UpliftModel(kind, input_dim, hidden, int(seed), nets)


def _check_input(model: UpliftModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"expected input of shape (n, {model.input_dim}), got {x.shape}"
        )
    return x


def _scale(model: UpliftModel, x: np.ndarray) -> np.ndarray:
    x = _check_input(model, x)
    if model.scaler is None:
        return x
    mean, std = model.scaler
    return (x - mean) / std


def forward_full(model: UpliftModel, x: np.ndarray) -> ModelOutputs:
    """Forward pass keeping the caches needed for backpropagation."""
    xs = _scale(model, x)
    caches: dict[str, ForwardCache] = {}
    if model.kind is ModelKind.TM:
        out, caches["net"] = nncore.forward(model.nets["net"], xs)
        p_c, p_t = out[:, 0], out[:, 1]
    elif model.kind is ModelKind.TARNET:
        rep, caches["trunk"] = nncore.forward(model.nets["trunk"], xs)
        out_c, caches["head_c"] = nncore.forward(model.nets["head_c"], rep)
        out_t, caches["head_t"] = nncore.forward(model.nets["head_t"], rep)
        p_c, p_t = out_c[:, 0], out_t[:, 0]
    elif model.kind is ModelKind.DDR:
        out_c, caches["control"] = nncore.forward(model.nets["control"], xs)
        p_c = out_c[:, 0]
        xt = np.hstack([xs, out_c])
        out_t, caches["treatment"] = nncore.forward(model.nets["treatment"], xt)
        p_t = out_t[:, 0]
    else:  # SDR
        z_s, caches["shared"] = nncore.forward(model.nets["shared"], xs)
        z_c, caches["private_c"] = nncore.forward(model.nets["private_c"], xs)
        z_t, caches["private_t"] = nncore.forward(model.nets["private_t"], xs)
        p_c = nncore.logistic(z_s[:, 0] + z_c[:, 0])
        p_t = nncore.logistic(z_s[:, 0] + z_t[:, 0])
    return ModelOutputs(p_t=p_t, p_c=p_c, uplift=p_t - p_c, caches=caches)


def predict(model: UpliftModel, x: np.ndarray):
    """Per-row (p_t, p_c, uplift) with uplift = p_t - p_c exactly.

    Scores `CHUNK` rows at a time and keeps no cache past its chunk, so
    beyond the three output vectors its memory is bounded by one chunk's
    activations, whatever the number of rows.
    """
    x = _check_input(model, x)
    n = x.shape[0]
    p_t, p_c, uplift = np.empty(n), np.empty(n), np.empty(n)
    for s in range(0, n, CHUNK):
        out = forward_full(model, x[s : s + CHUNK])
        p_t[s : s + CHUNK], p_c[s : s + CHUNK] = out.p_t, out.p_c
        uplift[s : s + CHUNK] = out.uplift
        del out  # so the next chunk's pass does not overlap this one's caches
    return p_t, p_c, uplift


def backprop_factual(
    model: UpliftModel, out: ModelOutputs, gz_t: np.ndarray, gz_c: np.ndarray
) -> np.ndarray:
    """Route per-row pre-logistic gradients through the architecture.

    gz_t[i] is the loss gradient at the treatment arm's pre-logistic
    value for row i (zero on rows whose treatment arm takes no gradient),
    gz_c likewise for the control arm. Returns one gradient vector
    aligned with `model.params`.
    """
    gt = np.asarray(gz_t, dtype=np.float64).reshape(-1, 1)
    gc = np.asarray(gz_c, dtype=np.float64).reshape(-1, 1)
    caches = out.caches
    if model.kind is ModelKind.TM:
        grads, _ = nncore.backward(
            model.nets["net"], caches["net"], np.hstack([gc, gt]), input_grad=False
        )
        return grads
    if model.kind is ModelKind.TARNET:
        g_head_c, din_c = nncore.backward(model.nets["head_c"], caches["head_c"], gc)
        g_head_t, din_t = nncore.backward(model.nets["head_t"], caches["head_t"], gt)
        trunk = model.nets["trunk"]
        d_rep = nncore.output_grad_to_preact(trunk, caches["trunk"], din_c + din_t)
        g_trunk, _ = nncore.backward(trunk, caches["trunk"], d_rep, input_grad=False)
        return np.concatenate([g_trunk, g_head_c, g_head_t])
    if model.kind is ModelKind.DDR:
        g_control, _ = nncore.backward(
            model.nets["control"], caches["control"], gc, input_grad=False
        )
        # No input gradient for the treatment net: the appended control
        # prediction is a constant input (stop-gradient).
        g_treatment, _ = nncore.backward(
            model.nets["treatment"], caches["treatment"], gt, input_grad=False
        )
        return np.concatenate([g_control, g_treatment])
    # SDR: both arms' pre-logistic values are shared_logit + private_logit,
    # so the shared net collects each row's factual-arm gradient.
    g_shared, _ = nncore.backward(
        model.nets["shared"], caches["shared"], gt + gc, input_grad=False
    )
    g_priv_c, _ = nncore.backward(
        model.nets["private_c"], caches["private_c"], gc, input_grad=False
    )
    g_priv_t, _ = nncore.backward(
        model.nets["private_t"], caches["private_t"], gt, input_grad=False
    )
    return np.concatenate([g_shared, g_priv_c, g_priv_t])


def factual_loss(out: ModelOutputs, treatment, outcome):
    """The base loss: factual-arm cross-entropy of a forward pass.

    Returns (l_base, gz_t, gz_c), with gz_t and gz_c the per-row
    pre-logistic gradients `backprop_factual` takes. Each arm's
    cross-entropy is averaged over that arm's rows and the two arm losses
    are summed; a batch with an empty arm contributes zero for that arm.
    """
    t = np.asarray(treatment, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.float64)
    loss_t, gz_t = nncore.bce_loss(out.p_t, y, t)
    loss_c, gz_c = nncore.bce_loss(out.p_c, y, 1.0 - t)
    return loss_t + loss_c, gz_t, gz_c


def base_loss_and_grads(model: UpliftModel, x, treatment, outcome):
    """The base loss and its parameter gradients; returns (loss, grads,
    outputs)."""
    out = forward_full(model, x)
    loss, gz_t, gz_c = factual_loss(out, treatment, outcome)
    return loss, backprop_factual(model, out, gz_t, gz_c), out


def set_parameter_arrays(model: UpliftModel, values: np.ndarray) -> None:
    """Copy a parameter vector (as from `clone_parameter_arrays`) in."""
    if values.shape != model.params.shape:
        raise ShapeError(f"expected {model.params.shape} values, got {values.shape}")
    np.copyto(model.params, values)


def clone_parameter_arrays(model: UpliftModel) -> np.ndarray:
    return model.params.copy()


def save_checkpoint(model: UpliftModel, path) -> None:
    """Write the manifest, the parameter vector and the scaler to a .npz
    archive (checkpoint format 2)."""
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
    np.savez(path, manifest=np.array(json.dumps(manifest)), **arrays)


def _read(archive, key: str, out: np.ndarray) -> None:
    """Copy checkpoint member `key` into `out`, checking that it exists
    and has `out`'s shape; the member is read once."""
    if key not in archive:
        raise ConfigError(f"checkpoint member {key!r} is missing")
    value = archive[key]
    if value.shape != out.shape:
        raise ConfigError(
            f"checkpoint member {key!r} has shape {value.shape}, expected {out.shape}"
        )
    out[...] = value


def _entry(manifest: dict, key: str):
    """manifest[key] of a checkpoint, or ConfigError naming it."""
    if not isinstance(manifest, dict) or key not in manifest:
        raise ConfigError(f"checkpoint manifest has no entry {key!r}")
    return manifest[key]


def load_checkpoint(path) -> UpliftModel:
    """Read a format-2 checkpoint. The nets are laid out empty from the
    manifest by `_layout` and filled from `params`; no weights are drawn."""
    with np.load(path) as archive:
        if "manifest" not in archive:
            raise ConfigError("checkpoint member 'manifest' is missing")
        manifest = json.loads(str(archive["manifest"]))
        version = _entry(manifest, "format_version")
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"checkpoint format {version} not supported")
        kind = _model_kind(_entry(manifest, "kind"))
        input_dim = _entry(manifest, "input_dim")
        hidden = _entry(manifest, "hidden_sizes")
        nets = {
            name: NetworkParams(np.empty(nncore.param_count(sizes)), sizes, activation)
            for name, sizes, activation in _layout(kind, input_dim, hidden)
        }
        model = UpliftModel(kind, int(input_dim), tuple(hidden),
                            int(_entry(manifest, "seed")), nets)
        _read(archive, "params", model.params)
        if _entry(manifest, "has_scaler"):
            model.scaler = (np.empty(input_dim), np.empty(input_dim))
            _read(archive, "scaler.mean", model.scaler[0])
            _read(archive, "scaler.std", model.scaler[1])
    return model
