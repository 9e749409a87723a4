"""Run Tier-1 against one-line semantic mutants of the package and print
which of them it kills.

A mutant replaces one exact piece of text in one file of `src/upliftmil`
(a line, or two lines that trade places) and names what the change
breaks. The tree is copied once, without `.git` and caches, to a
temporary directory outside the checkout. For each mutant the file is
changed in the copy, Tier-1 runs there with `-x -p no:cacheprovider`
(and no bytecode written, so no run reads another's), and the file is
put back. A mutant is killed when that run fails, and survives when it
passes. Each line printed is "killed" or "survived", the file and what
the mutant breaks; the last line is the count.

A mutant whose old text does not occur exactly once in its file is an
error: every such mutant is named and the script exits 2 before it runs
any. So does a copy that fails Tier-1 unchanged, where every mutant
would read killed. Otherwise it exits 0 whatever survives. Run from
anywhere:

    python scripts/mutants.py

Uses only the standard library; Tier-1 needs pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "upliftmil"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
         "-p", "no:cacheprovider")

# (file in src/upliftmil, old text, new text, what the mutant breaks)
MUTANTS = (
    # The training loop.
    ("trainer.py",
     "            train_ds.treatment[batch.indices],\n"
     "            train_ds.outcome[batch.indices],\n",
     "            train_ds.outcome[batch.indices],\n"
     "            train_ds.treatment[batch.indices],\n",
     "a step takes the batch's outcome as its treatment, and its treatment as "
     "its outcome"),
    ("trainer.py", "model.scaler = fit_scaler(train_ds.features)",
     "model.scaler = fit_scaler(test_ds.features)",
     "the scaler is fit on the test split's features"),
    ("trainer.py", "            batch.u_t,\n", "            0.5,\n",
     "u_t is 0.5, not the batch's treated fraction"),
    ("trainer.py", "    np.copyto(model.params, best_params)\n", "    pass\n",
     "the best checkpoint is never copied back"),
    ("trainer.py", "        nncore.adam_step(model.params, grads, state)\n",
     "        if step == 1: nncore.adam_step(model.params, grads, state)\n",
     "Adam updates the parameters at step 1 only"),
    ("trainer.py", "minibatches(train_ds, cfg.batch_size, cfg.seed, e)",
     "minibatches(train_ds, cfg.batch_size, cfg.seed, 0)",
     "every epoch is drawn in epoch 0's order"),
    ("trainer.py", "evaluate(model, valid_ds, cfg.n_points, buffers)",
     "evaluate(model, test_ds, cfg.n_points, buffers)",
     "the best checkpoint is selected on the test split"),
    ("trainer.py", "if bad_evals >= cfg.patience:", "if bad_evals > cfg.patience:",
     "patience stops one evaluation late"),
    # The kernels and the loss.
    ("nncore.py", "params[lo : lo + ADAM_BLOCK] -= u", "params[lo : lo + ADAM_BLOCK] += u",
     "Adam steps up the gradient"),
    ("mil.py", "g[bags, treated.astype(np.intp)] += alpha",
     "g[bags, treated.astype(np.intp)] -= alpha",
     "the bag regularizer's gradient has the wrong sign"),
    ("mil.py", 'order = np.argsort(preds, kind="stable")',
     'order = np.argsort(-preds, kind="stable")',
     "clustered bags are sorted by descending uplift"),
    ("mil.py", 'order = np.argsort(preds, kind="stable")', "order = np.arange(n)",
     "clustered bags are formed in batch order, unsorted"),
    ("models.py", "uplift=p_t - p_c", "uplift=p_c - p_t", "the uplift has the wrong sign"),
    ("models.py", "np.column_stack((1.0 - t, t))", "np.column_stack((t, 1.0 - t))",
     "each row's loss is taken on its counterfactual arm"),
    # One rule per module: integer settings, ones columns, rectified outputs.
    ("errors.py", "if not is_int(value, least):", "if not is_int(value, 0):",
     "check_int ignores its least value"),
    ("nncore.py", "        inputs[:, -1] = 1.0\n", "        pass\n",
     "net_buffers leaves the ones column of an input buffer it makes unwritten"),
    ("nncore.py", 'if params.output_activation == "relu":  # masked',
     "if False:  # masked",
     "backward drops a rectified output's mask"),
    # A checkpoint at the exact path given; real-valued input arrays.
    ("models.py", "np.savez(fh, manifest", "np.savez(path, manifest",
     "save_checkpoint lets np.savez add .npz to a path with another suffix"),
    ("errors.py", 'v.dtype.kind not in "biuf":', 'v.dtype.kind not in "biufc":',
     "check_reals lets a complex array through, dropping its imaginary part"),
    # The synthetic experiment's law and its range check.
    ("data.py", "return BASE_RATE + SLOPE * x1,", "return BASE_RATE - SLOPE * x1,",
     "the control response falls with x1"),
    ("data.py", "_law(x[:, 0], x[:, 1], cfg.tau_max)",
     "_law(x[:, 0], x[:, 2], cfg.tau_max)", "the treatment effect follows x3, not x2"),
    ("data.py", "if lo < 0.0 or hi > 1.0:", "if lo < 0.0 or hi >= 1.0:",
     "the range check rejects tau_max 0.88, whose top response probability is 1"),
    # One row per line; the split's per-cell bound.
    ("data.py", "quotechar=None,", "quotechar='\"',",
     "the fast parse reads quoted fields, so an open quote swallows later lines"),
    ("data.py", "(alloc[c][s_over] - len(cells[c]) * fractions[s_over])",
     "(alloc[c][s_over] + len(cells[c]) * fractions[s_over])",
     "the repair key adds the quota, so a repair move can take a row from a cell "
     "below its quota"),
    # The training loop's contract: ties, the clock, the warm-up default.
    ("trainer.py", "if val_auuc > report.best_val_auuc:",
     "if val_auuc >= report.best_val_auuc:",
     "a tie in validation AUUC replaces the earlier checkpoint"),
    ("trainer.py", "time.perf_counter() - started", "time.perf_counter() + started",
     "wall_clock_s adds the start time to the end time"),
    ("trainer.py", "return self.max_steps // 5", "return self.max_steps / 5",
     "the default warm-up is a float"),
    # The checkpoint format.
    ("models.py", "CHECKPOINT_VERSION = 2", "CHECKPOINT_VERSION = 3",
     "checkpoints are written and read as format 3, so format 2 no longer loads"),
    # A batch or bag that cannot be formed; the least batch size.
    ("mil.py", "if bag_size > n:", "if bag_size >= n:",
     "cluster_bags rejects a bag of the whole batch"),
    ("data.py", "if batch_size > ds.n:", "if batch_size >= ds.n:",
     "minibatches rejects a batch of every row"),
    ("trainer.py", '("batch_size", 2)', '("batch_size", 1)',
     "TrainConfig lets a batch of one row through to the bag check"),
    ("data.py", "exc.object[exc.start : exc.start + 1]",
     "exc.object[exc.start : exc.start + 2]",
     "the decode error names the bad byte and the one after it"),
    # The bag settings checked whatever alpha is; Adam's class constants.
    ("mil.py", "    _check_bags(len(x), bag_size, mode, rng)\n", "",
     "a step checks its bag settings only when it forms bags, so an alpha-0 "
     "step runs on bad ones"),
    ("trainer.py", "eps: ClassVar[float] = 1e-8", "eps: ClassVar[float] = 1e-7",
     "Adam's eps is 1e-7, not 1e-8"),
    # A config checked once, when made; vectors into a step.
    ("trainer.py", "@dataclass(frozen=True)\nclass TrainConfig:",
     "@dataclass\nclass TrainConfig:",
     "TrainConfig is not frozen, so a checked config can be changed afterwards"),
    ("trainer.py", "object.__setattr__(self, name, check_int(name, value, least))",
     "check_int(name, value, least)",
     "a numpy integer setting is kept, so json.dumps rejects the report"),
    ("mil.py",
     "    for name, v in ((\"treatment\", t), (\"outcome\", y)):\n"
     "        if v.shape != (len(x),):\n"
     "            raise ShapeError(f\"{name!r} must be a vector of {len(x)} rows, \"\n"
     "                             f\"got shape {v.shape}\")\n",
     "",
     "a step takes a column of treatments or outcomes, and its bag term "
     "broadcasts it"),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks", "*.egg-info")


def stale(mutants) -> list[str]:
    """A line for each mutant whose old text its file does not hold exactly
    once in this checkout."""
    lines = []
    for name, old, _, what in mutants:
        found = (ROOT / PACKAGE / name).read_text(encoding="utf-8").count(old)
        if found != 1:
            lines.append(f"{name}: old text found {found} times, not once ({what})")
    return lines


def tier1(tree: Path) -> int:
    """Tier-1's exit status in `tree`, with the package under its src/."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    problems = stale(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="upliftmil-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if tier1(tree) != 0:
            print("Tier-1 fails on the unchanged copy; no mutant was run")
            return 2
        for name, old, new, what in MUTANTS:
            path = tree / PACKAGE / name
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(old, new), encoding="utf-8")
            try:
                status = tier1(tree)
            finally:
                path.write_text(source, encoding="utf-8")
            survived += status == 0
            print(f"{'survived' if status == 0 else 'killed':<9}{name:<11}{what}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
