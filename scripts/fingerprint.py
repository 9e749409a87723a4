"""Print one SHA-256 per training config over a fixed grid, so two trees
can be shown to train bit for bit alike.

The grid is every model kind (TM, TARNet, DDR, SDR) x both bag modes
(clustered, random) x bag sizes 2 and 64, each a short run at smoke size
on one synthetic split, then the benchmark's three workloads at the smoke
size of `perfbench/workloads.py` (`WORKLOADS[name].smoke()`), each on
its own inputs made as the benchmark makes them from one seed. A config's
digest covers the trained `params`, the report without `wall_clock_s`,
the `predict` bytes on its evaluation set (the test split, or
`eval_large`'s 20k held-out rows, scored in many chunks of one buffer
set) and that set's curve `g` and `auuc`.

Digests depend on the CPU and the BLAS build, so compare two trees on one
machine, never a tree against digests written down elsewhere:

    python scripts/fingerprint.py                  # this tree's digests
    python scripts/fingerprint.py --against DIR    # and the configs that
                                                   # differ from tree DIR

`--against` runs this script on the package under DIR/src in a
subprocess; it exits 0 whether or not configs differ. Uses only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("tm", "tarnet", "ddr", "sdr")
MODES = ("clustered", "random")
BAGS = (2, 64)
WORKLOAD_SEED = 3


def grid():
    """(name, TrainConfig keyword arguments) of every config of the kind,
    mode and bag grid, in order."""
    for kind in KINDS:
        for mode in MODES:
            for bag in BAGS:
                yield f"{kind}-{mode}-bag{bag}", dict(
                    model=kind, hidden_sizes=(16, 8), batch_size=256, bag_size=bag,
                    max_steps=60, warmup_steps=20, eval_every=20, patience=5,
                    seed=11, mode=mode, alpha=1e-2)


def digests(tree: Path) -> list[tuple[str, str]]:
    """(name, hex digest) of every config, trained by the package of `tree`."""
    sys.path.insert(0, str(tree / "src"))
    import numpy as np
    import upliftmil
    from upliftmil import data, models, trainer

    package = Path(upliftmil.__file__).resolve()
    if (tree / "src").resolve() not in package.parents:
        sys.exit(f"fingerprint: imported {package}, not the package of {tree}")
    sys.path.insert(1, str(ROOT / "perfbench"))
    from workloads import SPLIT, TAU_MAX, WORKLOADS

    def digest(parts, cfg, ds):
        """Train on `parts` and hash the run and its scores on `ds`."""
        model, report = trainer.train(*parts, cfg)
        record = report.to_dict()
        record.pop("wall_clock_s")
        _, curve = trainer.evaluate(model, ds, cfg.n_points)
        h = hashlib.sha256(model.params.tobytes())
        h.update(json.dumps(record, sort_keys=True).encode())
        for a in models.predict(model, ds.features):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(curve.g.tobytes())
        h.update(repr(curve.auuc).encode())
        return h.hexdigest()

    def synth(n, seed):
        return data.generate_synthetic(data.SynthConfig(n=n, tau_max=TAU_MAX, seed=seed))

    parts = data.split(data.generate_synthetic(data.SynthConfig(n=4000, seed=5)),
                       (0.6, 0.2, 0.2), 5)
    out = [(name, digest(parts, trainer.TrainConfig(**kwargs), parts[2]))
           for name, kwargs in grid()]
    for name, workload in WORKLOADS.items():
        w, seed = workload.smoke(), WORKLOAD_SEED
        parts = data.split(synth(w.rows, seed), SPLIT, seed)
        ds = parts[2]
        if w.heldout_rows:  # without true_ite, as the benchmark builds it
            held = synth(w.heldout_rows, seed + 1_000_000)
            ds = data.Dataset(held.features, held.treatment, held.outcome)
        out.append((f"{name}-smoke", digest(parts, replace(w.cfg, seed=seed), ds)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another tree; list the configs whose digests differ")
    parser.add_argument("--tree", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.against is None:
        for name, digest in digests(args.tree):
            print(f"{name:<24}{digest}")
        return
    theirs = subprocess.run(
        [sys.executable, __file__, "--tree", str(args.against.resolve())],
        check=True, capture_output=True, text=True).stdout
    other = dict(line.split() for line in theirs.splitlines())
    ours = digests(args.tree)
    differ = [name for name, digest in ours if other.get(name) != digest]
    for name, digest in ours:
        print(f"{name:<24}{digest}  {'differs' if name in differ else 'same'}")
    print(f"{len(differ)} of {len(ours)} configs differ from {args.against}"
          + (": " + ", ".join(differ) if differ else ""))


if __name__ == "__main__":
    main()
