"""Package metadata: every declared console script resolves, the package
imports nothing beyond NumPy and the standard library, its root binds
nothing but its modules, every package name the benchmark harness
reaches exists, every config the benchmark and scripts/fingerprint.py
build can be made, and a step calls the bag functions the harness traces
through the module globals it rebinds."""

import ast
import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
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


def test_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy as the one dependency.
    for path in sorted((ROOT / "src" / "upliftmil").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}")


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
    # The settings and class constants its probes and workloads read.
    cfg = trainer.TrainConfig()
    for name in ("learning_rate", "beta1", "beta2", "eps", "n_points", "eval_every",
                 "max_steps", "resolved_warmup"):
        assert hasattr(cfg, name), name


def test_every_benchmark_and_fingerprint_config_is_made(monkeypatch):
    # A config is checked when it is made, so one that the benchmark or
    # scripts/fingerprint.py builds and the check rejects fails here, not
    # only in a smoke run. Both are imported as the fingerprint imports them.
    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  ROOT / "scripts" / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for w in workloads.WORKLOADS.values():
        for cfg in (w.cfg, w.smoke().cfg):
            replace(cfg, seed=fingerprint.WORKLOAD_SEED)
    for _, kwargs in fingerprint.grid():
        trainer.TrainConfig(**kwargs)


def test_package_root_binds_only_modules():
    # Each name has one import path, its module: the root re-exports none.
    import upliftmil
    for path in (ROOT / "src" / "upliftmil").glob("[!_]*.py"):
        importlib.import_module(f"upliftmil.{path.stem}")
    stray = [name for name, value in vars(upliftmil).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    assert stray == []


def _counting(counts, name, fn):
    """`fn`, counting its calls in counts[name], as the tracer wraps it."""
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("alpha, calls", [(0.1, 1), (0.0, 0)])
def test_step_calls_the_traced_bag_functions_through_mil(monkeypatch, alpha, calls):
    # The tracer rebinds these module globals, times each call and reads
    # cluster_bags(...).bags for mil.bags_per_step: a step at alpha > 0
    # must call each once through them, and one at alpha 0 none.
    counts = dict.fromkeys(("cluster_bags", "batch_bag_stats", "mil_loss"), 0)
    for name in counts:
        monkeypatch.setattr(mil, name, _counting(counts, name, getattr(mil, name)))
    rng = np.random.default_rng(0)
    t = np.tile([1.0, 0.0], 8)
    mil.combined_loss_and_grads(models.build("sdr", 3, (4,), 0), rng.normal(size=(16, 3)),
                                t, rng.integers(0, 2, 16).astype(float), 0.5, alpha, 2)
    assert counts == dict.fromkeys(counts, calls)
