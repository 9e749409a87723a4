"""Spans around calls into the public functions of each upliftmil layer.

The package is traced from outside: while a `Tracer` is recording, every
listed function is replaced, in every upliftmil module that holds it, by a
wrapper that appends one span per call. Restoring the originals on exit
leaves the package exactly as imported. Spans are kept in memory as

    [name, parent_index, start_ns, end_ns, counts]

and written out once, at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# Public functions traced per layer. The elementwise activations in nncore
# and the per-bag helpers in mil are left out: they run hundreds of times a
# step and their cost is covered by the spans of their callers
# (nncore.forward, mil.batch_bag_stats).
LAYERS = {
    "data": ("load_table", "save_table", "split", "minibatches",
             "generate_synthetic", "fit_scaler"),
    "models": ("build", "forward_full", "predict", "backprop_factual",
               "base_loss_and_grads", "set_parameter_arrays",
               "clone_parameter_arrays", "save_checkpoint", "load_checkpoint"),
    "nncore": ("init_network", "forward", "backward", "output_grad_to_preact",
               "init_adam", "adam_step", "bce_loss"),
    "mil": ("cluster_bags", "batch_bag_stats", "mil_loss",
            "combined_loss_and_grads"),
    "metrics": ("uplift_curve", "auuc", "aggregate_runs"),
    "trainer": ("train", "evaluate", "repeat_runs"),
}

# Counts taken at the same boundaries as the spans, from (args, result).
COUNTERS = {
    "mil.cluster_bags": lambda args, res: {"bags": len(res.bags)},
    "mil.combined_loss_and_grads": lambda args, res: {"usable_bags": res[0].usable_bags},
    "models.predict": lambda args, res: {"rows": len(res[2])},
    "trainer.evaluate": lambda args, res: {"rows": args[1].n},
}


class Tracer:
    """In-memory span recorder for the functions named in `layers`."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[4] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def mark(self, name: str):
        """A span of the benchmark's own, e.g. around one phase."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def recording(self):
        """Trace the listed functions for the duration of the block."""
        modules = [importlib.import_module("upliftmil")] + [
            importlib.import_module(f"upliftmil.{layer}") for layer in LAYERS
        ]
        swaps = []
        for layer, names in self.layers.items():
            owner = importlib.import_module(f"upliftmil.{layer}")
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                # Rebind every module global that holds the function, so
                # calls through `from .data import minibatches` and
                # package re-exports are traced too.
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            swaps.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in swaps:
                setattr(mod, attr, original)

    def named(self, name: str, within: list | None = None) -> list[list]:
        """Spans called `name`, optionally only those inside span `within`."""
        out = [s for s in self.spans if s[0] == name]
        if within is not None:
            out = [s for s in out if within[2] <= s[2] and s[3] <= within[3]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "counts"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def duration_ms(span: list) -> float:
    return (span[3] - span[2]) / 1e6
