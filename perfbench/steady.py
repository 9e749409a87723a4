"""Steadiness check: run every workload N times, each in a fresh process
with its own seed, in alternating order, and print each metric's median,
quartiles and spread against the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10                 # end-to-end
    python3 perfbench/steady.py --runs 1 --trace 1        # per-layer
    python3 perfbench/steady.py --runs 10 --save parent.json
    python3 perfbench/steady.py --runs 10 --against parent.json

The spread is (q3 - q1) / median over the runs, as
statistics.quantiles(values, n=4) gives the quartiles. With --against,
each median is also compared with the one saved from another tree (for
example the parent commit), and a change worse than the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import BENCH_DIR, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    """One run in a fresh process: (machine record line, result)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    *_, machine, result = proc.stdout.strip().splitlines()
    return machine, json.loads(result)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, q1, q3 and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the raw values here")
    parser.add_argument("--against", type=Path,
                        help="values saved by --save from another tree")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = {w: {m["name"]: [] for m in declared} for w in workloads}
    failed = {w: [0, 0] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.first_seed + r
            machine, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            failed[workload][0] += result["failed"]
            failed[workload][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values[workload][name].append(metric["value"])
            print(f"run {r + 1}/{args.runs} {workload} seed {seed}: "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)

    print(f"\nlast {machine}")
    before = json.loads(args.against.read_text()) if args.against else {}
    worst = (0.0, "")
    for workload in workloads:
        print(f"\n{workload}: {failed[workload][0]} of {failed[workload][1]} "
              f"operations failed")
        print(f"  {'metric':28} {'unit':10} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}" + ("  vs saved" if before else ""))
        for m in declared:
            xs = values[workload][m["name"]]
            if not xs:
                print(f"  {m['name']:28} no values")
                continue
            med, q1, q3, sp = spread(xs)
            bound = m.get("bound")
            line = (f"  {m['name']:28} {m['unit']:10} {med:12.6g} {q1:12.6g} "
                    f"{q3:12.6g} {sp:7.3f} {bound if bound is not None else '':>6}")
            if bound is not None:
                worst = max(worst, (sp / bound, f"{m['name']} on {workload}"))
                line += "" if sp <= bound / 3 else (" !" if sp <= bound else " NOISY")
            old = before.get(workload, {}).get(m["name"])
            if old:
                change = (med - statistics.median(old)) / abs(statistics.median(old))
                worse = -change if m["better"] == "higher" else change
                line += f"  {change:+.3f}"
                if bound is not None and worse > bound:
                    line += " WORSE"
            print(line)
    if not args.trace:
        print(f"\nlargest spread / bound: {worst[0]:.3f} ({worst[1]})")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
