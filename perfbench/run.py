"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train_tarnet --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer
metrics (and writes the spans to perfbench/out/). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the machine record. A fuller
result, with every failure message, goes to perfbench/out/ as well.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from harness import OUT, ROOT, import_package, machine_record


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload so a run takes seconds")
    args = parser.parse_args(argv)

    import_package()
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer()
    run = Run(workload, args.seed, Path(workdir))
    try:
        if args.trace:
            run.ops.call("traced run", run.trace, args.seconds, tracer)
        else:
            run.ops.call("run", run.measure, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")
    for name in declared:
        run.ops.check(f"metric {name} measured", name in run.values)
    machine = machine_record(args.workload, args.seed)
    result = {
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {
            name: {"value": _number(run.values.get(name)), "unit": unit}
            for name, unit in declared.items()
        },
    }
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "machine": machine, "failures": run.ops.failures,
                   "values": run.values, "extra": run.extra, "smoke": args.smoke},
                  fh, indent=1)
        fh.write("\n")
    for failure in run.ops.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


def _number(value):
    if value is None or not math.isfinite(value):
        return None
    return value if isinstance(value, int) else float(value)


if __name__ == "__main__":
    sys.exit(main())
