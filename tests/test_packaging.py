"""Package metadata: every declared console script resolves, and every
package name the benchmark harness reaches exists."""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from upliftmil import mil, models, trainer

ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_benchmark_harness_names_resolve():
    # perfbench's own suite is not part of Tier-1: this keeps a deletion
    # here from breaking the names its tracer wraps and its probes call.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"upliftmil.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    # The calls perfbench makes without a buffer set, by argument count.
    for fn, n_args in [(models.forward_full, 2), (models.predict, 2),
                       (mil.combined_loss_and_grads, 7), (trainer.evaluate, 3)]:
        inspect.signature(fn).bind(*[None] * n_args)
    assert callable(models.UpliftModel.parameter_arrays)
    assert callable(models.set_parameter_arrays)
    assert "jobs" in inspect.signature(trainer.repeat_runs).parameters
    assert "bags" in {f.name for f in fields(mil.BagPartition)}
    assert "usable_bags" in {f.name for f in fields(mil.LossBreakdown)}
